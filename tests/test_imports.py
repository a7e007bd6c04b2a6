"""Every module of the package reads each name it imports."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "classinv"


def unused_imports(source):
    """The names bound by the module's imports, ``from __future__`` aside,
    that appear neither as a ``Name`` in it nor in its ``__all__``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = '''from __future__ import annotations

import math
import os.path
from functools import cached_property, partial as bind
from typing import List, Tuple

from .numeval import check_integer

__all__ = ["check_integer"]


def area(r: float) -> Tuple[float, ...]:
    return (math.pi * r * r,)
'''
    assert unused_imports(source) == ["os", "cached_property", "bind", "List"]

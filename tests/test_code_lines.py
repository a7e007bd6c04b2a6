"""The code-line count of ``scripts/code_lines.py``."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line
LIMIT = 3
"""The docstring of LIMIT."""


class Box:
    """Class docstring."""

    size = 1
    "The docstring of size."

    def area(self):
        """Function docstring."""
        text = """a string
that is code"""
        print(text)
        "a string statement that is no docstring"
        return (self.size
                * math.pi)
'''


def test_counts_code_lines_only():
    # import, LIMIT, class, size, def, the two lines of text, print,
    # the string statement after a call and the two lines of the return
    assert code_lines.code_lines(_SOURCE) == 11


def test_prints_each_file_then_the_total(tmp_path, capsys):
    path = tmp_path / "one.py"
    path.write_text(_SOURCE)
    code_lines.main([str(path), str(path)])
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["11", "11", "22"]

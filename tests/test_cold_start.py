"""What a fresh interpreter loads: the hot path only, the rest on first use.

Each check runs in a new interpreter, so that no module imported by
another test hides a module that the package loads too early.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import classinv

_ROOT = Path(__file__).resolve().parent.parent
_SPANS = _ROOT / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

_LAZY = ("classinv.helper", "classinv.oracle", "classinv.orders", "classinv.qseries",
         "classinv.selftest", "classinv.cli")
"""The modules that importing classinv and computing a polynomial that
shares nothing must not load."""

_FORKED = {"classinv.helper"} if hasattr(os, "fork") else set()
"""What a shared rung loads: the helper's module, where it can fork."""


def _run(code):
    """The last line that ``code``, run in a fresh interpreter importing
    classinv from this source tree, prints, read as JSON."""
    source = str(Path(classinv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _lazy_loaded(*lines):
    """The modules of ``_LAZY`` loaded after importing classinv, computing
    P_107 on two usable CPUs (two forms at 120 digits: nothing is
    shared) and running ``lines``."""
    return set(_run("\n".join([
        "import json, os, sys, threading",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "import classinv",
        "from classinv import classpoly, etarep",
        "from classinv.sl2words import Mat2",
        "assert classpoly.compute_ramanujan(107).class_number == 3",
        *lines,
        f"print(json.dumps([m for m in {_LAZY!r} if m in sys.modules]))",
    ])))


@pytest.mark.parametrize("lines, loaded", [
    ((), set()),
    (("classinv.RepMatrix",), {"classinv.oracle"}),
    (("from classinv.etarep import RepMatrix",), {"classinv.oracle"}),
    (("etarep.full_action(Mat2.identity(72))",), {"classinv.oracle"}),
    (("assert all(r.invariant for r in etarep.invariance_check(11))",),
     {"classinv.orders"}),
    (("classpoly.compute_ramanujan(971)",), _FORKED),
    (("os.sched_getaffinity = lambda pid: {0}",
      "classpoly.compute_ramanujan(971)"), set()),
    (("release = threading.Event()",
      "waiting = threading.Thread(target=release.wait)",
      "waiting.start()",
      "classpoly.compute_ramanujan(971)",
      "release.set()",
      "waiting.join()"), set()),
], ids=["compute", "package-RepMatrix", "etarep-RepMatrix", "full_action",
        "invariance_check", "shared-rung", "one-cpu", "second-thread"])
def test_each_module_loads_at_its_first_use(lines, loaded):
    # n = 971 evaluates 8 forms at 120 digits, a rung that is shared
    # only where _shared's guards pass: two usable CPUs and one thread
    assert _lazy_loaded(*lines) == loaded


def test_invariance_result_is_built_at_first_use():
    # etarep gives the class from classinv.orders, which defines it
    assert _run("\n".join([
        "import json",
        "import classinv",
        "from classinv import classpoly, etarep, orders",
        "classpoly.compute_ramanujan(107)",
        "built = 'InvarianceResult' in vars(etarep)",
        "results = etarep.invariance_check(11)",
        "served = etarep.InvarianceResult is orders.InvarianceResult",
        "print(json.dumps([built, served, all(isinstance(r, orders.InvarianceResult)"
        " for r in results)]))",
    ])) == [False, True, True]


def _owner_name(owner):
    """A module's name, or module:qualname for a class."""
    if isinstance(owner, type):
        return f"{owner.__module__}:{owner.__qualname__}"
    return owner.__name__


def test_every_traced_name_is_bound_right_after_import():
    # bench/spans.py wraps each (owner, attr) by reading vars(owner)[attr]
    # before any call: a name that a module gives only on first use,
    # or that moved to a module loaded later, breaks the tracer
    wanted = sorted({(_owner_name(owner), attr)
                     for owner, attr, _ in spans.SPANNED + spans.COUNTED})
    assert len(wanted) == len(spans.SPANNED + spans.COUNTED)
    missing = _run("\n".join([
        "import json, sys",
        "import classinv.classpoly",
        "missing = []",
        f"for owner, attr in {wanted!r}:",
        "    module, _, cls = owner.partition(':')",
        "    scope = sys.modules.get(module)",
        "    scope = getattr(scope, cls, None) if cls else scope",
        "    if scope is None or attr not in vars(scope):",
        "        missing.append([owner, attr])",
        "print(json.dumps(missing))",
    ]))
    assert missing == []

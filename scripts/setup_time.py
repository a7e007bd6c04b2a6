#!/usr/bin/env python3
"""Time the benchmark's cold start on one or more source trees.

The benchmark's ``setup_s`` times a fresh interpreter that imports
``classinv.classpoly`` and finishes ``compute_ramanujan(11)``
(``SETUP_CHILD`` of ``bench/run.py``).  This script runs that same
child ``--repeat`` times per source directory, alternating the
directories so that a drift of the host's speed meets each alike, with
PYTHONDONTWRITEBYTECODE=1 as on the benchmark host: every child
compiles the package from source.  A directory that holds a
``__pycache__`` under ``classinv/`` is refused, since its children
would read the cached bytecode instead and time much less (0.052
against 0.078 s in one measurement).

For each directory it prints the median and the quartiles of the wall
and reference seconds, and the ``classinv`` modules the child had
loaded when it finished.  Nothing is gated on the numbers.

Usage:
    python scripts/setup_time.py [--repeat N] SRC [SRC ...]

where each SRC is a directory holding the package ``classinv``, such
as the ``src`` of a checkout.
"""

import argparse
import ast
import os
import statistics
import subprocess
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def setup_child():
    """The text of ``SETUP_CHILD`` in ``bench/run.py``, read without
    running that file."""
    tree = ast.parse((_BENCH / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CHILD"])


CHILD = setup_child() + (
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('classinv'))))\n")
"""The benchmark's setup child, which prints its wall and reference
seconds and its polynomial, then one line of the classinv modules it
loaded."""


def cached(source):
    """The ``__pycache__`` directories under ``source/classinv``."""
    return sorted(str(path) for path in (Path(source) / "classinv").rglob("__pycache__"))


def run_child(source):
    """(wall seconds, reference seconds, modules loaded) of one child."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(source).resolve()), str(_BENCH)],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    timing, modules = done.stdout.strip().splitlines()[-2:]
    elapsed, reference, polynomial = timing.split(" ", 2)
    if polynomial != "x - 1":
        raise RuntimeError(f"compute_ramanujan(11) gave {polynomial!r}")
    return float(elapsed), float(reference), modules


def summary(samples):
    """Median and quartiles, in seconds, as one string."""
    low, median, high = statistics.quantiles(samples, n=4, method="inclusive")
    return f"median {median:.4f} s, quartiles {low:.4f} to {high:.4f} s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sources", nargs="+", help="directories holding classinv")
    parser.add_argument("--repeat", type=int, default=25,
                        help="children per directory (at least 2)")
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat must be at least 2")
    for source in args.sources:
        if not (Path(source) / "classinv" / "__init__.py").is_file():
            parser.error(f"{source} holds no package classinv")
        if cached(source):
            print(f"{source}: refused, bytecode caches would be timed: "
                  + " ".join(cached(source)), file=sys.stderr)
            return 2
    runs = {source: [] for source in args.sources}
    for _ in range(args.repeat):
        for source in args.sources:
            runs[source].append(run_child(source))
    for source, samples in runs.items():
        print(f"{source}: {len(samples)} children")
        print(f"  wall {summary([wall for wall, _, _ in samples])}")
        print(f"  reference {summary([ref for _, ref, _ in samples])}")
        for modules in sorted({modules for _, _, modules in samples}):
            print(f"  loaded {modules}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

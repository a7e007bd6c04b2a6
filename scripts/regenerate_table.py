#!/usr/bin/env python3
"""Recompute the minimal polynomial table with per-row diagnostics.

Prints one row per valid n with the class number, wall time, the
rounding residual of the worst coefficient, and the polynomial itself.
Useful for spotting precision drift after changes to the numerics.

Usage:
    python scripts/regenerate_table.py [--from N] [--to N] [--prec DIGITS]
"""

import argparse
import sys
import time

import mpmath

from classinv.classpoly import compute_ramanujan, is_squarefree
from classinv.etarep import is_valid_n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--from", dest="start", type=int, default=11)
    parser.add_argument("--to", dest="stop", type=int, default=995)
    parser.add_argument("--prec", type=int, default=None)
    args = parser.parse_args(argv)

    targets = [n for n in range(args.start, args.stop + 1) if is_valid_n(n)]
    if not targets:
        print("no n with n = 11 mod 24 in range", file=sys.stderr)
        return 1

    total = 0.0
    print(f"{'n':>5}  {'h':>3}  {'time':>7}  {'residual':>10}  polynomial")
    for n in targets:
        start = time.perf_counter()
        result = compute_ramanujan(n, args.prec)
        elapsed = time.perf_counter() - start
        total += elapsed
        flag = "" if is_squarefree(n) else "  [square factor]"
        print(
            f"{n:>5}  {result.class_number:>3}  {elapsed:>6.2f}s"
            f"  {mpmath.nstr(result.max_residual, 3):>10}"
            f"  {result.polynomial}{flag}"
        )
    print(f"\n{len(targets)} polynomials in {total:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time one group's sweep serially against its split over two processes.

An expansion of fewer than 80 values is one smallest-first sweep
(``classpoly._sweep``).  Above SPLIT_SWEEP_MIN_WORK the caller forms the
low coefficients of every step and the helper process the rest
(``classpoly._product`` of a shared root of one group), cut where the
work model puts it (``_sweep_cut``).  This script captures the sorted
factors that each case hands the root of its join tree, then times,
alternately in one process, ``_sweep`` against the split sweep on them,
whatever their work (the helper forked and warm), checking that both
give the same coefficients.  It prints, per case, the work (degree^2 times the
fractional bits, SPLIT_SWEEP_MIN_WORK's measure), whether the library
splits it, the median times and their ratio, then a scan of cut points
for the largest case.  The threshold belongs between the largest work
that does not gain and the smallest that does.

Cases are `pn:N[:DIGITS]` for P_N and `hilbert:D[:DIGITS]` for the
Hilbert polynomial of D, at the rung that rounds them (or at DIGITS).

Usage:
    python scripts/sweep_split.py [--case KIND:ARG[:DIGITS] ...] [--repeat R]
"""

import argparse
import os
import statistics
import sys
import time
from functools import partial

import classinv.classpoly as classpoly

CASES = ("pn:971", "pn:10019", "pn:10019:240", "pn:10019:480", "hilbert:-10019",
         "hilbert:-20051", "hilbert:-30011")
"""A table row (8 values at 120 digits), n = 10019 (16 values at 120,
then at 240 and 480 digits), and the three Hilbert discriminants of the
benchmark (16, 28 and 31 values at 462 to 885 digits): each one group."""


def capture(case: str):
    """The (factors, bits) of the last root ``_product`` of the case."""
    kind, arg, *digits = case.split(":")
    compute = {"pn": classpoly.compute_ramanujan, "hilbert": classpoly.compute_hilbert}[kind]
    original = classpoly._product
    seen = []

    def spy(factors, groups, first, stop, bits, shared=False):
        if shared:
            seen.append((factors, groups, bits))
        return original(factors, groups, first, stop, bits, shared)

    classpoly._product = spy
    try:
        compute(int(arg), *map(int, digits))
    finally:
        classpoly._product = original
    factors, groups, bits = seen[-1]
    if groups != 1:
        raise SystemExit(f"{case}: {groups} groups, not one sweep")
    return factors, bits


def timed(run):
    """Milliseconds of one ``run()``, and its result."""
    start = time.perf_counter()
    result = run()
    return 1000 * (time.perf_counter() - start), result


def split(factors, bits):
    """The sweep of the factors as the shared root of a one-group tree
    forms it: split with the helper once its work reaches
    SPLIT_SWEEP_MIN_WORK."""
    return classpoly._product(factors, 1, 0, 1, bits, shared=True)


def alternate(factors, bits, cuts, repeat: int):
    """Median ms of the serial sweep (key None) and of the sweep split at
    each cut, timed in turn for ``repeat`` rounds; every split must give
    the serial coefficients."""
    expected = classpoly._sweep(factors, bits)
    model = classpoly._sweep_cut
    times = {cut: [] for cut in [None, *cuts]}
    try:
        for _ in range(repeat):
            for cut, spent in times.items():
                if cut is None:
                    ms, got = timed(partial(classpoly._sweep, factors, bits))
                else:
                    classpoly._sweep_cut = lambda _, cut=cut: cut
                    ms, got = timed(partial(split, factors, bits))
                if got != expected:
                    raise SystemExit(f"the sweep cut at {cut} differs from the serial sweep")
                spent.append(ms)
    finally:
        classpoly._sweep_cut = model
    return {cut: statistics.median(spent) for cut, spent in times.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", help="KIND:ARG[:DIGITS] (repeatable)")
    parser.add_argument("--repeat", type=int, default=21, help="alternations per timing")
    args = parser.parse_args(argv)
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or (len(affinity(0)) if affinity else os.cpu_count()) < 2:
        print("fewer than two usable CPUs, or no os.fork: nothing is split")
    cases = [(case, *capture(case)) for case in args.case or CASES]
    threshold = classpoly.SPLIT_SWEEP_MIN_WORK
    print(f"SPLIT_SWEEP_MIN_WORK = {threshold}")
    print(f"{'case':<16} {'values':>6} {'degree':>6} {'bits':>5} {'work':>10} {'split':>5}"
          f" {'cut':>4} {'serial ms':>9} {'split ms':>8} {'ratio':>6}")
    rows = []
    try:
        # every case is split while timed; the fork of the helper is not
        classpoly.SPLIT_SWEEP_MIN_WORK = 0
        split(*cases[0][1:])
        for case, factors, bits in cases:
            degree = classpoly._degree(factors)
            work = degree * degree * bits
            rows.append((work, case, factors, bits))
            cut = classpoly._sweep_cut(degree)
            ms = alternate(factors, bits, [cut], args.repeat)
            print(f"{case:<16} {len(factors):>6} {degree:>6} {bits:>5} {work:>10}"
                  f" {'yes' if work >= threshold else 'no':>5} {cut:>4}"
                  f" {ms[None]:>9.2f} {ms[cut]:>8.2f} {ms[cut] / ms[None]:>6.3f}")
        _, case, factors, bits = max(rows)
        degree = classpoly._degree(factors)
        model = classpoly._sweep_cut(degree)
        cuts = sorted({max(1, round(degree * f / 20)) for f in range(2, 11)} | {model})
        print(f"\ncut scan, {case} (degree {degree}, the model's cut {model}),"
              f" each cut timed in turn with the serial sweep, {args.repeat} rounds")
        ms = alternate(factors, bits, cuts, args.repeat)
        print(f"serial {ms[None]:.2f} ms")
        print(f"{'cut':>4} {'cut/degree':>10} {'split ms':>8} {'ratio':>6}")
        for cut in cuts:
            print(f"{cut:>4} {cut / degree:>10.2f} {ms[cut]:>8.2f} {ms[cut] / ms[None]:>6.3f}")
    finally:
        classpoly.SPLIT_SWEEP_MIN_WORK = threshold
    return 0


if __name__ == "__main__":
    sys.exit(main())

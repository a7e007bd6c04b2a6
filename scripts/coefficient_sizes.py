#!/usr/bin/env python3
"""Compare coefficient growth: invariant polynomials versus Hilbert.

Both polynomials generate the same class field, but the invariant t_n
is a unit whose conjugates all sit near the unit circle, so its minimal
polynomial stays tiny while the Hilbert coefficients explode.  This
script prints the decimal size of the largest coefficient of each, per
discriminant, with the compression ratio.  Beside each size it prints
the a-priori estimate E of log10 prod max(1, |conjugate|), from which
the library picks its first precision rung, and the working digits that
rounded the polynomial; the gap between E and the measured size is the
slack of the estimate.

Usage:
    python scripts/coefficient_sizes.py [--to N]
"""

import argparse
import sys
import time

from classinv.classpoly import compute_hilbert, compute_ramanujan
from classinv.etarep import is_valid_n


def digit_count(polynomial):
    return max(len(str(abs(c))) for c in polynomial.coefficients)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--to", type=int, default=347,
                        help="largest n to include (Hilbert cost grows fast)")
    args = parser.parse_args(argv)

    targets = [n for n in range(11, args.to + 1) if is_valid_n(n)]
    print(f"{'n':>5}  {'h':>3}  {'invariant':>9}  {'E':>6}  {'prec':>4}"
          f"  {'hilbert':>8}  {'E':>6}  {'prec':>4}  ratio")
    start = time.perf_counter()
    for n in targets:
        small = compute_ramanujan(n)
        big = compute_hilbert(-n)
        a = digit_count(small.polynomial)
        b = digit_count(big.polynomial)
        print(f"{n:>5}  {small.class_number:>3}  {a:>9}  {small.size_estimate:>6.1f}"
              f"  {small.precision_digits:>4}  {b:>8}  {big.size_estimate:>6.1f}"
              f"  {big.precision_digits:>4}  {b / a:>5.1f}")
    print(f"\ndone in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

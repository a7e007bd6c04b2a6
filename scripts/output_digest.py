#!/usr/bin/env python3
"""One SHA-256 over the polynomials the command line prints.

The digest covers `pn-range --from 107 --to 2000`, `pn` for n = 10019,
100019 and 1000019, and `hilbert` for discriminants -107, -10019,
-20051 and -30011, all at their default precision.  For each case it
hashes the class number, the ascending coefficients and the working
precision that rounded them; it leaves out `max_residual`, which is
rounding noise below the working precision.  A change to the numeric
layers that keeps this digest keeps every coefficient and every rung
of the precision ladder.

Usage:
    python scripts/output_digest.py           # print the digest
    python scripts/output_digest.py --check   # exit 1 unless it equals RECORDED
"""

import argparse
import hashlib
import json
import sys

from classinv.classpoly import compute_hilbert, compute_ramanujan
from classinv.etarep import is_valid_n

RECORDED = "8639bba83b4d7a7b6d8d1001c6485daee53331892fa26582b2f3835598e02243"
"""The digest of the reference implementation, before the fixed-point kernels."""

PN_RANGE = (107, 2000)
PN = (10019, 100019, 1000019)
HILBERT = (-107, -10019, -20051, -30011)


def cases():
    """(label, result) for every case, in a fixed order."""
    start, stop = PN_RANGE
    for n in range(start, stop + 1):
        if is_valid_n(n):
            yield f"pn-range {n}", compute_ramanujan(n)
    for n in PN:
        yield f"pn {n}", compute_ramanujan(n)
    for disc in HILBERT:
        yield f"hilbert {disc}", compute_hilbert(disc)


def digest() -> str:
    sha = hashlib.sha256()
    for label, result in cases():
        line = json.dumps({
            "case": label,
            "class_number": result.class_number,
            "coefficients": [str(c) for c in result.polynomial.coefficients],
            "precision_digits": result.precision_digits,
        }, sort_keys=True)
        sha.update(line.encode("ascii") + b"\n")
    return sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded digest")
    args = parser.parse_args(argv)
    value = digest()
    print(value)
    if args.check and value != RECORDED:
        print(f"output digest differs from the recorded {RECORDED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

Four cases are pinned one by one (PINNED), `max_residual` included:
n = 10000019, whose rungs are evaluated and expanded on two processes
where two CPUs are usable; n = 2004659, whose 9 groups put 8 + 1 under
the root's join, the odd group carried to the top; D = -100019, whose
one join reads slots wider than Python's 4300-digit int <-> str limit;
and D = -30011, 31 factors at 885 digits in one group, whose one sweep
is split by coefficients over two processes where two CPUs are usable.
Their residuals are the serial ones bit for bit, so a floor moved in
the join tree, in a sweep, in their splits over two processes or in
that readback shows in `max_residual` even when no coefficient moves.

Usage:
    python scripts/output_digest.py           # print the digest
    python scripts/output_digest.py --check   # exit 1 unless it equals RECORDED
                                              # and every PINNED case matches
"""

import argparse
import hashlib
import json
import sys

import mpmath

from classinv.classpoly import compute_hilbert, compute_ramanujan
from classinv.etarep import is_valid_n

RECORDED = "8639bba83b4d7a7b6d8d1001c6485daee53331892fa26582b2f3835598e02243"
"""The digest of the reference implementation, before the fixed-point kernels."""

PINNED = {
    ("pn", 10000019): (
        1275, 960, "d8a06d5770617df203f87ada0d60f34b4152863d835e3e4dbbbade6fed5e6eef",
        "5.94185e-242"),
    ("pn", 2004659): (
        748, 480, "10a348698eaabac3314d05d83cc6d8101892d05379377eb766852341d3704e5f",
        "2.82433e-142"),
    ("hilbert", -100019): (
        193, 2557, "47c8fa76a4dae855ee41a43c3e921424104c751d3cb3e646a7acf8aaf78e0fd8",
        "2.39989e-31"),
    ("hilbert", -30011): (
        61, 885, "1a6d182197140f1d8d9642597857629ef8cc8015cf7f29b7585bbd45e9ce1b10",
        "3.48435e-28"),
}
"""(class number, working digits, SHA-256 of the comma-joined
coefficients, max_residual) of each pinned case, with the coefficients
and max_residual as `classinv <command> --format json` prints them."""

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


def pinned(command: str, arg: int) -> tuple:
    """The PINNED entry that ``classinv <command>`` gives for ``arg``."""
    result = (compute_ramanujan if command == "pn" else compute_hilbert)(arg)
    coefficients = ",".join(str(c) for c in result.polynomial.coefficients)
    return (result.class_number, result.precision_digits,
            hashlib.sha256(coefficients.encode("ascii")).hexdigest(),
            mpmath.nstr(result.max_residual, 6))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded digest and the pinned cases")
    args = parser.parse_args(argv)
    value = digest()
    print(value)
    if not args.check:
        return 0
    status = 0
    if value != RECORDED:
        print(f"output digest differs from the recorded {RECORDED}", file=sys.stderr)
        status = 1
    for (command, arg), want in PINNED.items():
        got = pinned(command, arg)
        if got != want:
            print(f"{command} {arg}: got {got}, want {want}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front-end for class invariant polynomials.

Subcommands: pn (one minimal polynomial), pn-range (all valid n in an
interval), hilbert (Hilbert class polynomial), check-invariance (exact
stabilizer check), selftest (cross-validation suites).  Output is text
or JSON; precision comes from --prec, then the CLASSINV_PREC
environment variable, then per-command defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import mpmath

from .classpoly import (
    PolynomialResult,
    PrecisionError,
    compute_hilbert,
    compute_ramanujan,
    is_squarefree,
)
from .etarep import invariance_check, is_valid_n
from .selftest import run_all

INVARIANCE_CLASSES = tuple(range(11, 288, 24))
"""One n = 11 (mod 24) in each of the 12 residue classes mod 288,
11, 35, ..., 275, covered by check-invariance."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classinv",
        description="Minimal polynomials of Ramanujan-type class invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("pn", help="minimal polynomial of t_n")
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--prec", type=int, default=None)
    pn.add_argument("--format", choices=("text", "json"), default="text")

    rng = sub.add_parser("pn-range", help="polynomials for all n in a range")
    rng.add_argument("--from", dest="start", type=int, required=True)
    rng.add_argument("--to", dest="stop", type=int, required=True)
    rng.add_argument("--prec", type=int, default=None)
    rng.add_argument("--format", choices=("text", "json"), default="text")

    hil = sub.add_parser("hilbert", help="Hilbert class polynomial")
    hil.add_argument("--disc", type=int, required=True)
    hil.add_argument("--prec", type=int, default=None)
    hil.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("check-invariance",
                   help="exact invariance under the stabilizer unit groups")
    sub.add_parser("selftest", help="run the cross-validation suites")
    return parser


def _resolve_prec(given: Optional[int]) -> Optional[int]:
    if given is not None:
        source, raw = "--prec", given
    else:
        source, raw = "CLASSINV_PREC", os.environ.get("CLASSINV_PREC")
        if raw is None or raw == "":
            return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"invalid {source} value: {raw!r}")
    if value < 1:
        raise ValueError(f"invalid {source} value: {raw!r} (must be at least 1 digit)")
    return value


def _result_payload(result: PolynomialResult) -> dict:
    return {
        "n": -result.discriminant,
        "discriminant": result.discriminant,
        "class_number": result.class_number,
        "coefficients": [str(c) for c in result.polynomial.coefficients],
        "precision_digits": result.precision_digits,
        "max_residual": mpmath.nstr(result.max_residual, 6),
    }


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _warn_not_squarefree(n: int) -> None:
    print(f"warning: {n} is not squarefree", file=sys.stderr)


def _cmd_pn(args: argparse.Namespace) -> int:
    prec = _resolve_prec(args.prec)
    if is_valid_n(args.n) and not is_squarefree(args.n):
        _warn_not_squarefree(args.n)
    result = compute_ramanujan(args.n, prec)
    if args.format == "json":
        _emit_json(_result_payload(result))
    else:
        print(str(result.polynomial))
    return 0


def _cmd_pn_range(args: argparse.Namespace) -> int:
    if args.start > args.stop:
        raise ValueError("range start exceeds range end")
    if args.start <= 0:
        raise ValueError(f"range start must be positive, got {args.start}")
    prec = _resolve_prec(args.prec)
    targets = [n for n in range(args.start, args.stop + 1) if is_valid_n(n)]
    results = []
    for n in targets:
        if not is_squarefree(n):
            _warn_not_squarefree(n)
        results.append(compute_ramanujan(n, prec))
    if args.format == "json":
        _emit_json([_result_payload(r) for r in results])
    else:
        for r in results:
            print(f"n={-r.discriminant}: {r.polynomial}")
    return 0


def _cmd_hilbert(args: argparse.Namespace) -> int:
    prec = _resolve_prec(args.prec)
    result = compute_hilbert(args.disc, prec)
    if args.format == "json":
        _emit_json(_result_payload(result))
    else:
        print(str(result.polynomial))
    return 0


def _cmd_check_invariance() -> int:
    all_ok = True
    for n in INVARIANCE_CLASSES:
        results = invariance_check(n)
        ok = all(r.invariant for r in results)
        all_ok = all_ok and ok
        print(f"check-invariance n={n}: {'PASS' if ok else 'FAIL'}")
    return 0 if all_ok else 1


def _cmd_selftest() -> int:
    results = run_all()
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name}: {status}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
        all_ok = all_ok and r.passed
    return 0 if all_ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pn":
            return _cmd_pn(args)
        if args.command == "pn-range":
            return _cmd_pn_range(args)
        if args.command == "hilbert":
            return _cmd_hilbert(args)
        if args.command == "check-invariance":
            return _cmd_check_invariance()
        if args.command == "selftest":
            return _cmd_selftest()
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

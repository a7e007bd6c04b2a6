"""Command-line front-end for class invariant polynomials.

Subcommands: pn (one minimal polynomial), pn-range (all valid n in an
interval), hilbert (Hilbert class polynomial), check-invariance (exact
stabilizer check), selftest (cross-validation suites).  The three
polynomial commands share one option set: --prec, then the CLASSINV_PREC
environment variable, then per-command defaults give the precision, and
--format picks text or canonical JSON for the one printer.  The two
check commands share one PASS/FAIL reporter; only selftest imports the
suites, when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, List, Optional, Tuple, Union

import mpmath

from .classpoly import (
    PolynomialResult,
    compute_hilbert,
    compute_ramanujan,
    is_squarefree,
)
from .etarep import invariance_check, is_valid_n
from .quadforms import check_enumerable

INVARIANCE_CLASSES = tuple(range(11, 288, 24))
"""One n = 11 (mod 24) in each of the 12 residue classes mod 288,
11, 35, ..., 275, covered by check-invariance."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classinv",
        description="Minimal polynomials of Ramanujan-type class invariants.",
    )
    # dest only names the subcommand in argparse's "required" error
    sub = parser.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("pn", help="minimal polynomial of t_n")
    pn.add_argument("--n", type=int, required=True)
    pn.set_defaults(handler=_cmd_pn)

    rng = sub.add_parser("pn-range", help="polynomials for all n in a range")
    rng.add_argument("--from", dest="start", type=int, required=True)
    rng.add_argument("--to", dest="stop", type=int, required=True)
    rng.set_defaults(handler=_cmd_pn_range)

    hil = sub.add_parser("hilbert", help="Hilbert class polynomial")
    hil.add_argument("--disc", type=int, required=True)
    hil.set_defaults(handler=_cmd_hilbert)

    # after each command's own options, so usage lines list those first
    for polynomial_command in (pn, rng, hil):
        polynomial_command.add_argument("--prec", type=int, default=None)
        polynomial_command.add_argument("--format", choices=("text", "json"),
                                        default="text")

    sub.add_parser(
        "check-invariance",
        help="exact invariance under the stabilizer unit groups",
    ).set_defaults(handler=_cmd_check_invariance)
    sub.add_parser(
        "selftest", help="run the cross-validation suites",
    ).set_defaults(handler=_cmd_selftest)
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


def _print_results(args: argparse.Namespace,
                   results: Union[PolynomialResult, List[PolynomialResult]]) -> int:
    """Print one result, or pn-range's list, as text or canonical JSON."""
    many = isinstance(results, list)
    if args.format == "json":
        payload = ([_result_payload(r) for r in results] if many
                   else _result_payload(results))
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif many:
        for r in results:
            print(f"n={-r.discriminant}: {r.polynomial}")
    else:
        print(results.polynomial)
    return 0


def _ramanujan(n: int, prec: Optional[int]) -> PolynomialResult:
    """compute_ramanujan, after a stderr warning for a valid n with a square
    factor.  A -n too large to enumerate is refused before the
    squarefree check, whose O(n^(1/3)) divisions would take hours there."""
    if is_valid_n(n):
        check_enumerable(-n)
        if not is_squarefree(n):
            print(f"warning: {n} is not squarefree", file=sys.stderr)
    return compute_ramanujan(n, prec)


def _report(checks: Iterable[Tuple[str, bool, str]]) -> int:
    """Print `name: PASS|FAIL (detail)` per check; exit code 1 if any failed."""
    all_ok = True
    for name, passed, detail in checks:
        line = f"{name}: {'PASS' if passed else 'FAIL'}"
        print(f"{line} ({detail})" if detail else line)
        all_ok = all_ok and passed
    return 0 if all_ok else 1


def _cmd_pn(args: argparse.Namespace) -> int:
    return _print_results(args, _ramanujan(args.n, _resolve_prec(args.prec)))


def _cmd_pn_range(args: argparse.Namespace) -> int:
    if args.start > args.stop:
        raise ValueError("range start exceeds range end")
    if args.start <= 0:
        raise ValueError(f"range start must be positive, got {args.start}")
    prec = _resolve_prec(args.prec)
    return _print_results(args, [_ramanujan(n, prec)
                                 for n in range(args.start, args.stop + 1)
                                 if is_valid_n(n)])


def _cmd_hilbert(args: argparse.Namespace) -> int:
    return _print_results(args, compute_hilbert(args.disc, _resolve_prec(args.prec)))


def _cmd_check_invariance(args: argparse.Namespace) -> int:
    return _report((f"check-invariance n={n}",
                    all(r.invariant for r in invariance_check(n)), "")
                   for n in INVARIANCE_CLASSES)


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_all

    return _report((r.name, r.passed, r.detail) for r in run_all())


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

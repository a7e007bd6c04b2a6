"""The four benchmark workloads, their fixed inputs and correctness gates.

Inputs never depend on the seed; the seed only permutes their order.
Each workload calls a public entry point through its module attribute
at call time, so a traced run sees the wrapped function.  A gate takes
one input, its result and the expected data for that input, and
returns a list of failure messages, empty when the result is right.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import mpmath

import classinv.classpoly as classpoly
import classinv.etarep as etarep
from classinv.quadforms import class_number

TABLE_NS = tuple(n for n in range(107, 996) if n % 24 == 11)
"""The 38 rows of the paper's table."""

LARGE_NS = (10019, 100019, 1000019)
"""Class numbers 30, 193 and 342; the last needs one precision retry."""

HILBERT_NS = (10019, 20051, 30011)
"""Class numbers 30, 55 and 61, evaluated through j at 462 to 885 digits."""

INVARIANCE_NS = tuple(range(11, 288, 24))
"""One n in each of the 12 classes n = 11 (mod 24) modulo 288."""


def coefficient_digest(coefficients: Sequence[int]) -> str:
    """SHA-256 of the ascending coefficients written as decimal integers."""
    text = ",".join(str(c) for c in coefficients)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def check_table(n: int, result, row: Tuple[int, ...]) -> List[str]:
    got = result.polynomial.descending()
    if got != tuple(row):
        return [f"row {got} differs from the golden table"]
    return []


def check_class_polynomial(n: int, result, reference: Dict[str, object]) -> List[str]:
    """Monic, of degree h(-n), with the coefficient digest stored for n."""
    poly = result.polynomial
    h = class_number(-n)
    errors = []
    if poly.leading_coefficient != 1:
        errors.append(f"leading coefficient {poly.leading_coefficient}")
    if not poly.degree == h == reference["class_number"]:
        errors.append(f"degree {poly.degree}, class number {h}, "
                      f"reference {reference['class_number']}")
    if coefficient_digest(poly.coefficients) != reference["sha256"]:
        errors.append("coefficient digest differs from the reference")
    return errors


def check_unit_polynomial(n: int, result, reference: Dict[str, object]) -> List[str]:
    """A class polynomial whose constant term is +-1 and which vanishes at
    t_n when evaluated at twice the working precision."""
    poly = result.polynomial
    errors = check_class_polynomial(n, result, reference)
    if abs(poly.constant_term) != 1:
        errors.append(f"constant term {poly.constant_term} is not a unit")
    digits = result.precision_digits
    value = classpoly.verify_polynomial(poly, n, 2 * digits)
    if not value < mpmath.mpf(10) ** -digits:
        errors.append(f"|P(t_n)| = {mpmath.nstr(value, 3)} at {2 * digits} digits")
    return errors


def check_invariance(n: int, results, _expected=None) -> List[str]:
    if not results:
        return ["no stabilizer generators checked"]
    return [f"generator {r.generator} mod {r.modulus} moves sqrt(3)*F_2"
            for r in results if not r.invariant]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Tuple[int, ...]
    compute: Callable[[int], object]
    items: Callable[[object], int]
    """Conjugates, j-values or generators in one result."""
    gate: Callable[[int, object, object], List[str]]
    """Takes n, the result and the expected data for n."""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table", TABLE_NS,
                 lambda n: classpoly.compute_ramanujan(n),
                 lambda r: r.class_number, check_table),
        Workload("large", LARGE_NS,
                 lambda n: classpoly.compute_ramanujan(n),
                 lambda r: r.class_number, check_unit_polynomial),
        Workload("hilbert", HILBERT_NS,
                 lambda n: classpoly.compute_hilbert(-n),
                 lambda r: r.class_number, check_class_polynomial),
        Workload("invariance", INVARIANCE_NS,
                 lambda n: etarep.invariance_check(n),
                 len, check_invariance),
    )
}


def load_expected(name: str, golden_path: Path, reference_path: Path) -> Dict[int, object]:
    """Expected data per input: a golden-table row or a stored reference."""
    if name == "table":
        spec = importlib.util.spec_from_file_location("golden_data", golden_path)
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
        return {n: golden.MAIN_TABLE[n] for n in TABLE_NS}
    if name in ("large", "hilbert"):
        stored = json.loads(reference_path.read_text())[name]
        return {n: stored[str(n)] for n in WORKLOADS[name].inputs}
    return {n: None for n in WORKLOADS[name].inputs}

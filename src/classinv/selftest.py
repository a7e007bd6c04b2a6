"""Cross-validation suites tying the exact matrices to independent data.

Each suite checks one layer of the pipeline against something it was
not derived from: word decomposition against direct matrix products
over all of SL2(Z/8) and SL2(Z/9), the generator matrices against
numeric eta evaluation, the Galois permutation matrices against exact
q-expansions, the integer monomial encoding of the hot path, whose T
and sigma_d follow from the eta quotients by one factor rule, against
the hand-stated dense cyclotomic matrices, and the exact action of
each mirrored form (a, -b, c) against sigma_-1, the complex conjugation
rule ``compute_ramanujan`` applies (``etarep.mirror_term``).
Every suite has one fixed configuration (the constants below), which
``classinv selftest`` and the test suite both run through ``run_all``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence

import mpmath

from .classpoly import _action_data
from .cyclotomic import GALOIS_EXPONENTS, CycNum
from .etarep import (
    MONOMIAL_S,
    MONOMIAL_T,
    conjugate_action,
    dual_action,
    full_action,
    mirror_term,
    monomial_action,
    monomial_dual_action,
    monomial_entry,
    monomial_sigma,
)
from .numeval import GUARD_DIGITS, eta, r_vector, r_value
from .oracle import dense_conjugate_action, rep_s, rep_sigma, rep_t, unit_vector
from .qseries import r_series
from .quadforms import QuadForm, is_ambiguous, reduced_forms
from .sl2words import (
    Mat2,
    S_WORD_MOD8,
    S_WORD_MOD9,
    T_STRETCH_MOD8,
    T_STRETCH_MOD9,
    decompose,
    lift_word,
    mat_s,
    mat_t,
    word_to_matrix,
)

CHECK_DIGITS = 120
"""Working precision of the numeric suites, before the guard digits."""

CHECK_POINTS = 20
"""Random evaluation points per numeric suite."""

TOLERANCE = mpmath.mpf(10) ** (20 - CHECK_DIGITS)
"""Residual budget of the numeric suites: 20 digits of headroom."""

SEED = 721131

SIGMA_SERIES_BOUND = 150
"""Truncation order for the exact q-expansion comparisons."""

ORACLE_SAMPLES = 24
"""Random GL2(Z/72) matrices in the monomial-oracle suite."""

MIRROR_RULE_NS = tuple(range(107, 996, 24))
"""The 38 n = 11 (mod 24) of the paper's table, 107 <= n <= 995."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _random_tau(rng: random.Random, low: float, high: float) -> mpmath.mpc:
    return mpmath.mpc(rng.uniform(-0.45, 0.45), rng.uniform(low, high))


def _row_sum(row: Sequence[CycNum], term: Callable[[int, CycNum], object]):
    """Sum of term(j, entry) over the nonzero entries of a matrix row:
    the row times a vector of series or of values."""
    return functools.reduce(operator.add, (term(j, e) for j, e in enumerate(row) if e))


def _numeric_result(name: str, worst: mpmath.mpf) -> CheckResult:
    return CheckResult(name, worst < TOLERANCE, f"worst residual {mpmath.nstr(worst, 3)}")


def check_word_reconstruction() -> CheckResult:
    """Decompose, rebuild and lift every element of SL2(Z/8) and SL2(Z/9).

    Each word must give back its matrix, with T exponents in [0, m),
    and its integer lift must reduce to the matrix mod m and to the
    identity mod the other factor of 72.
    """
    checked = failures = 0
    for modulus, other in ((8, 9), (9, 8)):
        for a, b, c, d in itertools.product(range(modulus), repeat=4):
            if (a * d - b * c) % modulus != 1:
                continue
            m = Mat2(a, b, c, d, modulus)
            word = decompose(m, modulus)
            lifted = word_to_matrix(lift_word(word, modulus))
            checked += 1
            failures += word_to_matrix(word, modulus) != m
            failures += any(gen == "T" and not 0 <= e < modulus for gen, e in word)
            failures += (lifted.to_mod(modulus) != m
                         or lifted.to_mod(other) != Mat2.identity(other))
    return CheckResult(
        "word-reconstruction",
        failures == 0,
        f"{checked} matrices, {failures} failures",
    )


def check_lift_congruences() -> CheckResult:
    """The four lifted generators have the right reductions mod 8 and mod 9."""
    s8 = word_to_matrix(S_WORD_MOD8)
    s9 = word_to_matrix(S_WORD_MOD9)
    t8 = mat_t(T_STRETCH_MOD8)
    t9 = mat_t(T_STRETCH_MOD9)
    ok = (
        s8.to_mod(8) == mat_s(8)
        and s8.to_mod(9) == Mat2.identity(9)
        and s9.to_mod(9) == mat_s(9)
        and s9.to_mod(8) == Mat2.identity(8)
        and t8.to_mod(8) == mat_t(1, 8)
        and t8.to_mod(9) == Mat2.identity(9)
        and t9.to_mod(9) == mat_t(1, 9)
        and t9.to_mod(8) == Mat2.identity(8)
    )
    return CheckResult("lift-congruences", ok)


def check_eta_functional_equations() -> CheckResult:
    """eta(tau+1) and eta(-1/tau) against their closed-form factors."""
    rng = random.Random(SEED + 1)
    worst = mpmath.mpf(0)
    with mpmath.workdps(CHECK_DIGITS + GUARD_DIGITS):
        for _ in range(CHECK_POINTS):
            tau = _random_tau(rng, 0.9, 2.2)
            base = eta(tau, CHECK_DIGITS)
            shift = abs(eta(tau + 1, CHECK_DIGITS)
                        - mpmath.expjpi(mpmath.mpf(1) / 12) * base)
            flip = abs(eta(-1 / tau, CHECK_DIGITS) - mpmath.sqrt(-1j * tau) * base)
            worst = max(worst, shift, flip)
    return _numeric_result("eta-functional-equations", worst)


def check_rep_numeric() -> CheckResult:
    """The T and S matrices reproduce actual eta-quotient transformation."""
    rng = random.Random(SEED + 2)
    worst = mpmath.mpf(0)
    matrices = (rep_t(), rep_s())
    with mpmath.workdps(CHECK_DIGITS + GUARD_DIGITS):
        for _ in range(CHECK_POINTS):
            tau = _random_tau(rng, 0.9, 2.2)
            here = r_vector(tau, CHECK_DIGITS)
            moved = r_vector(tau + 1, CHECK_DIGITS) + r_vector(-1 / tau, CHECK_DIGITS)
            via = [_row_sum(row, lambda j, e: e.embed(CHECK_DIGITS) * here[j])
                   for matrix in matrices for row in matrix.rows]
            for lhs, rhs in zip(moved, via):
                worst = max(worst, abs(lhs - rhs))
    return _numeric_result("rep-numeric-consistency", worst)


def check_sigma_series_exact() -> CheckResult:
    """Exact q-expansion identities for every Galois matrix and for T.

    For each d coprime to 72, applying z -> z^d to the coefficients of
    expansion i must equal the matrix combination of the expansions;
    the same comparison validates the T matrix through u -> z*u.
    """
    failures = []
    series = [r_series(i, SIGMA_SERIES_BOUND) for i in range(6)]
    cases = [(f"d={d}", rep_sigma(d), lambda s, d=d: s.galois(d)) for d in GALOIS_EXPONENTS]
    cases.append(("T", rep_t(), lambda s: s.twist(1)))
    for label, matrix, transform in cases:
        for i, row in enumerate(matrix.rows):
            rhs = _row_sum(row, lambda j, e: series[j].scale(e))
            if not transform(series[i]).agrees_with(rhs):
                failures.append(f"{label} row {i}")
    return CheckResult(
        "sigma-series-exact",
        not failures,
        "all identities hold" if not failures else "; ".join(failures),
    )


def check_sigma_numeric() -> CheckResult:
    """Galois-twisted expansions against direct eta products, numerically.

    Far enough up the imaginary axis the truncated expansion of the
    twisted function is accurate to well below the tolerance, so it can
    be compared with the matrix combination of eta products evaluated
    without any series.
    """
    rng = random.Random(SEED + 3)
    worst = mpmath.mpf(0)
    with mpmath.workdps(CHECK_DIGITS + GUARD_DIGITS):
        for _ in range(CHECK_POINTS):
            tau = _random_tau(rng, 20.0, 24.0)
            d = GALOIS_EXPONENTS[rng.randrange(len(GALOIS_EXPONENTS))]
            i = rng.randrange(6)
            lhs = r_series(i, SIGMA_SERIES_BOUND).galois(d).eval_numeric(tau, CHECK_DIGITS)
            rhs = _row_sum(rep_sigma(d).rows[i], lambda j, e: (
                e.embed(CHECK_DIGITS) * r_value(j, tau, CHECK_DIGITS)))
            worst = max(worst, abs(lhs - rhs))
    return _numeric_result("sigma-numeric-consistency", worst)


def check_monomial_oracle() -> CheckResult:
    """The integer encoding against the dense cyclotomic matrices.

    S, and T and every sigma_d from the factor rule, are compared entry
    for entry with the hand-stated rep_s, rep_t and rep_sigma; then,
    for seeded random GL2(Z/72) matrices, the integer action against
    full_action, and the conjugate and dual actions on each scaled
    basis vector against their dense forms.
    """
    failures = []
    pairs = [("S", MONOMIAL_S, rep_s()), ("T", MONOMIAL_T, rep_t())]
    pairs += [(f"sigma_{d}", monomial_sigma(d), rep_sigma(d)) for d in GALOIS_EXPONENTS]
    for name, monomial, dense in pairs:
        if monomial.dense() != dense:
            failures.append(name)
    rng = random.Random(SEED + 4)
    checked = 0
    while checked < ORACLE_SAMPLES:
        m = Mat2(*(rng.randrange(72) for _ in range(4)), 72)
        if math.gcd(m.det, 72) != 1:
            continue
        checked += 1
        action, det = monomial_action(m)
        rep, dense_det = full_action(m)
        ok = det == dense_det and action.dense() == rep
        for index in range(6):
            term = (index, rng.randrange(72), rng.randint(-1, 1))
            vec = unit_vector(index, monomial_entry(*term[1:]))
            for integer, dense in ((conjugate_action, dense_conjugate_action),
                                   (monomial_dual_action, dual_action)):
                i, k, e = integer(action, det, term)
                ok = ok and unit_vector(i, monomial_entry(k, e)) == dense(rep, det, vec)
        if not ok:
            failures.append(str(m))
    return CheckResult(
        "monomial-oracle",
        not failures,
        f"S, T, {len(GALOIS_EXPONENTS)} sigma_d and {ORACLE_SAMPLES} GL2(Z/72) matrices"
        if not failures else "; ".join(failures),
    )


def check_mirror_rule(ns: Sequence[int] = MIRROR_RULE_NS) -> CheckResult:
    """Every mirrored pair of reduced forms against ``etarep.mirror_term``,
    the rule ``compute_ramanujan`` applies in place of a mirror's action.

    For each n the forms with b < 0 must be exactly the mirrors
    (a, -b, c) of the forms with b > 0 that are not ambiguous, and the
    exact conjugate term of each mirror must be the rule applied to the
    term of its partner.  The detail prints the rule, sigma_-1's columns
    perm and powers c: the mirror of (i, k, e) is (perm[i], c[i] - k, e).
    """
    perm, c, _ = zip(*monomial_sigma(-1).rows)
    failures = []
    pairs = 0
    for n in ns:
        forms = reduced_forms(-n)
        negative = {f for f in forms if f.b < 0}
        mirrors = {QuadForm(f.a, -f.b, f.c) for f in forms
                   if f.b > 0 and not is_ambiguous(f)}
        if negative != mirrors:
            failures.append(f"n={n} forms")
        for mirror in sorted(mirrors & negative):
            partner = _action_data(QuadForm(mirror.a, -mirror.b, mirror.c))
            pairs += 1
            if _action_data(mirror) != mirror_term(partner):
                failures.append(f"n={n} {mirror}")
    return CheckResult(
        "mirror-rule",
        not failures,
        f"{pairs} pairs for {len(ns)} n, perm {perm}, c {c}"
        if not failures else "; ".join(failures),
    )


def run_all() -> List[CheckResult]:
    return [
        check_word_reconstruction(),
        check_lift_congruences(),
        check_eta_functional_equations(),
        check_rep_numeric(),
        check_sigma_series_exact(),
        check_sigma_numeric(),
        check_monomial_oracle(),
        check_mirror_rule(),
    ]

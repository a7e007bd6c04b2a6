"""Cross-validation suites tying the exact matrices to independent data.

Each suite checks one layer of the pipeline against something it was
not derived from: word decomposition against direct matrix products,
the generator matrices against numeric eta evaluation, the Galois
permutation matrices against exact q-expansions, the integer
monomial encoding of the hot path against the dense cyclotomic
matrices, and the exact action of each mirrored form (a, -b, c)
against the complex conjugation rule derived from the eta quotients.
The command-line front-end runs all suites; the test suite asserts
them individually.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import mpmath

from .cyclotomic import GALOIS_EXPONENTS
from .etarep import (
    MONOMIAL_S,
    MONOMIAL_T,
    SQRT3_F2,
    RepMatrix,
    Term,
    conjugate_action,
    dense_conjugate_action,
    dual_action,
    form_action,
    full_action,
    monomial_action,
    monomial_dual_action,
    monomial_entry,
    monomial_sigma,
    rep_s,
    rep_sigma,
    rep_t,
    unit_vector,
)
from .numeval import ETA_QUOTIENTS, eta, r_vector, r_value
from .qseries import r_series
from .quadforms import QuadForm, reduced_forms
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

SEED = 721131

SIGMA_SERIES_BOUND = 150
"""Truncation order for the exact q-expansion comparisons."""

MIRROR_RULE_NS = tuple(range(107, 996, 24))
"""The 38 n = 11 (mod 24) of the paper's table, 107 <= n <= 995."""


def _tolerance(dps: int) -> mpmath.mpf:
    """Residual budget at a given working precision: 1e-100 at 120 digits,
    scaled by the same 20-digit headroom elsewhere."""
    return mpmath.mpf(10) ** (20 - dps)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _random_tau(rng: random.Random, low: float, high: float) -> mpmath.mpc:
    return mpmath.mpc(rng.uniform(-0.45, 0.45), rng.uniform(low, high))


def _apply_numeric(matrix: RepMatrix, values: Tuple[mpmath.mpc, ...],
                   dps: int) -> Tuple[mpmath.mpc, ...]:
    out = []
    for row in matrix.rows:
        acc = mpmath.mpc(0)
        for entry, v in zip(row, values):
            if entry:
                acc += entry.embed(dps) * v
        out.append(acc)
    return tuple(out)


def check_word_reconstruction(samples: int = 500) -> CheckResult:
    """Decompose and rebuild: all of SL2(Z/8), sampled SL2(Z/9), with lifts."""
    failures = 0
    checked = 0
    mod8: List[Mat2] = []
    for a in range(8):
        for b in range(8):
            for c in range(8):
                for d in range(8):
                    if (a * d - b * c) % 8 == 1:
                        mod8.append(Mat2(a, b, c, d, 8))
    for m in mod8:
        word = decompose(m, 8)
        checked += 1
        if word_to_matrix(word, 8) != m:
            failures += 1
        if any(gen == "T" and not 0 <= e < 8 for gen, e in word):
            failures += 1
    rng = random.Random(SEED)
    mod9: List[Mat2] = []
    while len(mod9) < samples:
        a, b, c, d = (rng.randrange(9) for _ in range(4))
        if (a * d - b * c) % 9 == 1:
            mod9.append(Mat2(a, b, c, d, 9))
    for m in mod9:
        word = decompose(m, 9)
        checked += 1
        if word_to_matrix(word, 9) != m:
            failures += 1
    # spot-check the integer lifts on a thin slice of both sets
    for m in mod8[:: len(mod8) // 40] + mod9[::25]:
        modulus = m.mod
        other = 9 if modulus == 8 else 8
        lifted = word_to_matrix(lift_word(decompose(m, modulus), modulus))
        checked += 1
        if lifted.to_mod(modulus) != m or lifted.to_mod(other) != Mat2.identity(other):
            failures += 1
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


def check_eta_functional_equations(points: int = 20,
                                   dps: int = CHECK_DIGITS) -> CheckResult:
    """eta(tau+1) and eta(-1/tau) against their closed-form factors."""
    rng = random.Random(SEED + 1)
    worst = mpmath.mpf(0)
    with mpmath.workdps(dps + 10):
        for _ in range(points):
            tau = _random_tau(rng, 0.9, 2.2)
            base = eta(tau, dps)
            shift = abs(eta(tau + 1, dps) - mpmath.expjpi(mpmath.mpf(1) / 12) * base)
            flip = abs(eta(-1 / tau, dps) - mpmath.sqrt(-1j * tau) * base)
            worst = max(worst, shift, flip)
    return CheckResult(
        "eta-functional-equations",
        worst < _tolerance(dps),
        f"worst residual {mpmath.nstr(worst, 3)}",
    )


def check_rep_numeric(points: int = 20, dps: int = CHECK_DIGITS) -> CheckResult:
    """The T and S matrices reproduce actual eta-quotient transformation."""
    rng = random.Random(SEED + 2)
    worst = mpmath.mpf(0)
    a_t, a_s = rep_t(), rep_s()
    with mpmath.workdps(dps + 10):
        for _ in range(points):
            tau = _random_tau(rng, 0.9, 2.2)
            here = r_vector(tau, dps)
            shifted = r_vector(tau + 1, dps)
            flipped = r_vector(-1 / tau, dps)
            via_t = _apply_numeric(a_t, here, dps)
            via_s = _apply_numeric(a_s, here, dps)
            for lhs, rhs in zip(shifted + flipped, via_t + via_s):
                worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        "rep-numeric-consistency",
        worst < _tolerance(dps),
        f"worst residual {mpmath.nstr(worst, 3)}",
    )


def check_sigma_series_exact(bound: int = SIGMA_SERIES_BOUND) -> CheckResult:
    """Exact q-expansion identities for every Galois matrix and for T.

    For each d coprime to 72, applying z -> z^d to the coefficients of
    expansion i must equal the matrix combination of the expansions;
    the same comparison validates the T matrix through u -> z*u.
    """
    failures = []
    series = [r_series(i, bound) for i in range(6)]
    for d in GALOIS_EXPONENTS:
        matrix = rep_sigma(d)
        for i in range(6):
            lhs = series[i].galois(d)
            entries = [(j, e) for j, e in enumerate(matrix.rows[i]) if e]
            rhs = series[entries[0][0]].scale(entries[0][1])
            for j, e in entries[1:]:
                rhs = rhs + series[j].scale(e)
            if not lhs.agrees_with(rhs):
                failures.append(f"d={d} row {i}")
    t_matrix = rep_t()
    for i in range(6):
        lhs = series[i].twist(1)
        entries = [(j, e) for j, e in enumerate(t_matrix.rows[i]) if e]
        rhs = series[entries[0][0]].scale(entries[0][1])
        for j, e in entries[1:]:
            rhs = rhs + series[j].scale(e)
        if not lhs.agrees_with(rhs):
            failures.append(f"T row {i}")
    return CheckResult(
        "sigma-series-exact",
        not failures,
        "all identities hold" if not failures else "; ".join(failures),
    )


def check_sigma_numeric(points: int = 20, dps: int = CHECK_DIGITS,
                        bound: int = SIGMA_SERIES_BOUND) -> CheckResult:
    """Galois-twisted expansions against direct eta products, numerically.

    Far enough up the imaginary axis the truncated expansion of the
    twisted function is accurate to well below the tolerance, so it can
    be compared with the matrix combination of eta products evaluated
    without any series.
    """
    rng = random.Random(SEED + 3)
    worst = mpmath.mpf(0)
    with mpmath.workdps(dps + 10):
        for _ in range(points):
            tau = _random_tau(rng, 20.0, 24.0)
            d = GALOIS_EXPONENTS[rng.randrange(len(GALOIS_EXPONENTS))]
            i = rng.randrange(6)
            matrix = rep_sigma(d)
            lhs = r_series(i, bound).galois(d).eval_numeric(tau, dps)
            rhs = mpmath.mpc(0)
            for j, e in enumerate(matrix.rows[i]):
                if e:
                    rhs += e.embed(dps) * r_value(j, tau, dps)
            worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        "sigma-numeric-consistency",
        worst < _tolerance(dps),
        f"worst residual {mpmath.nstr(worst, 3)}",
    )


def check_monomial_oracle(samples: int = 24) -> CheckResult:
    """The integer encoding against the dense cyclotomic matrices.

    S, T and every sigma_d are compared entry for entry with rep_s,
    rep_t and rep_sigma; then, for seeded random GL2(Z/72) matrices, the
    integer action against full_action, and the conjugate and dual
    actions on each scaled basis vector against their dense forms.
    """
    failures = []
    pairs = [("S", MONOMIAL_S, rep_s()), ("T", MONOMIAL_T, rep_t())]
    pairs += [(f"sigma_{d}", monomial_sigma(d), rep_sigma(d)) for d in GALOIS_EXPONENTS]
    for name, monomial, dense in pairs:
        if monomial.dense() != dense:
            failures.append(name)
    rng = random.Random(SEED + 4)
    checked = 0
    while checked < samples:
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
        f"S, T, {len(GALOIS_EXPONENTS)} sigma_d and {samples} GL2(Z/72) matrices"
        if not failures else "; ".join(failures),
    )


def mirror_rule() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The exact rule for the conjugate of a mirrored form, derived from
    ``ETA_QUOTIENTS``.

    eta has real q-coefficients and q^(1/24) = exp(pi i tau / 12), so
    eta(-conj(tau)) = conj(eta(tau)), and likewise for eta(3 tau).  For
    a factor eta((tau + j)/3), (-conj(tau) + j)/3 = -conj((tau + j')/3)
    + m with j' = (3 - j) mod 3 and m = (j + j')/3, and
    eta(x + m) = zeta_24^m eta(x), so that factor at -conj(tau) is
    z^(3m) conj(eta((tau + j')/3)), z = zeta_72.  Hence
    F_i(-conj(tau)) = z^(d_i) conj(F_s(i)(tau)) for a permutation s.
    The root of the mirror (a, -b, c) of a form is -conj(tau), so if
    the conjugate of the form is z^k sqrt(3)^e F_i(tau), the one of
    its mirror, the complex conjugate, is
    z^(c_i - k) sqrt(3)^e F_perm(i)(-conj(tau)), with perm the inverse
    of s and c_i = -d_perm(i) mod 72.  Returns (perm, c).
    """
    d, s = [], []
    for factors in ETA_QUOTIENTS:
        mirrored, m = [], 0
        for scale, shift in factors:
            if scale == 3:
                mirrored.append((scale, shift))
            else:
                partner = (3 - shift) % 3
                mirrored.append((scale, partner))
                m += (shift + partner) // 3
        # a quotient is the same function whichever factor comes first
        s.append(next(i for i, row in enumerate(ETA_QUOTIENTS)
                      if sorted(row) == sorted(mirrored)))
        d.append(3 * m)
    perm = [0] * len(s)
    for i, j in enumerate(s):
        perm[j] = i
    return tuple(perm), tuple(-d[perm[i]] % 72 for i in range(len(perm)))


def _conjugate_term(form: QuadForm) -> Term:
    return conjugate_action(*form_action(form), SQRT3_F2)


def _is_ambiguous(form: QuadForm) -> bool:
    return form.b == 0 or form.b == form.a or form.a == form.c


def check_mirror_rule(ns: Sequence[int] = MIRROR_RULE_NS) -> CheckResult:
    """Every mirrored pair of reduced forms against ``mirror_rule``.

    For each n the forms with b < 0 must be exactly the mirrors
    (a, -b, c) of the forms with b > 0 that are not ambiguous, and the
    exact conjugate term of each mirror must be the rule applied to the
    term of its partner.
    """
    perm, c = mirror_rule()
    failures = []
    pairs = 0
    for n in ns:
        forms = reduced_forms(-n)
        negative = {f for f in forms if f.b < 0}
        mirrors = {QuadForm(f.a, -f.b, f.c) for f in forms
                   if f.b > 0 and not _is_ambiguous(f)}
        if negative != mirrors:
            failures.append(f"n={n} forms")
        for mirror in sorted(mirrors & negative):
            index, k, e = _conjugate_term(QuadForm(mirror.a, -mirror.b, mirror.c))
            pairs += 1
            if _conjugate_term(mirror) != (perm[index], (c[index] - k) % 72, e):
                failures.append(f"n={n} {mirror}")
    return CheckResult(
        "mirror-rule",
        not failures,
        f"{pairs} pairs for {len(ns)} n, perm {perm}, c {c}"
        if not failures else "; ".join(failures),
    )


def run_all(points: int = 20, dps: int = CHECK_DIGITS) -> List[CheckResult]:
    return [
        check_word_reconstruction(),
        check_lift_congruences(),
        check_eta_functional_equations(points, dps),
        check_rep_numeric(points, dps),
        check_sigma_series_exact(),
        check_sigma_numeric(points, dps),
        check_monomial_oracle(),
        check_mirror_rule(),
    ]

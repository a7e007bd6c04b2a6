"""Integer minimal polynomials of class invariants.

The minimal polynomial of the invariant t_n is assembled as the product
of (t - conjugate) over the reduced forms of discriminant -n.  Each
conjugate is an exact root of unity times sqrt(3) times one of the six
eta quotients evaluated at the root of its form, so the only numeric
steps are the eta evaluations and the final rounding of the expanded
coefficients to integers.  The same expansion drives Hilbert class
polynomials from j-values, which serve as an independent cross-check of
class numbers and precision handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import mpmath

from .cyclotomic import CycNum
from .etarep import (
    SQRT3_F2,
    Monomial,
    RepMatrix,
    Term,
    conjugate_action,
    form_action,
    form_matrix_mod72,
    full_action,
    monomial_entry,
)
from .numeval import GUARD_DIGITS, j_invariant, r_value, ramanujan_value
from .quadforms import QuadForm, form_root, reduced_forms

DEFAULT_DIGITS = 120
"""Working precision for invariant polynomials unless overridden."""

RESIDUAL_TOLERANCE = mpmath.mpf("1e-10")
"""Largest acceptable distance from an expanded coefficient to its integer."""

MAX_RETRIES = 3
"""Number of precision doublings attempted before giving up."""

BAD_RESIDUE_MESSAGE = "n must be ≡ 11 mod 24"


class PrecisionError(ArithmeticError):
    """Raised when coefficients refuse to round to integers."""

    def __init__(self, message: str, residual) -> None:
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class IntPolynomial:
    """A polynomial with integer coefficients, stored constant-term first."""

    coefficients: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @staticmethod
    def from_descending(coeffs: Sequence[int]) -> "IntPolynomial":
        return IntPolynomial(tuple(reversed(tuple(coeffs))))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def constant_term(self) -> int:
        return self.coefficients[0]

    @property
    def leading_coefficient(self) -> int:
        return self.coefficients[-1]

    def descending(self) -> Tuple[int, ...]:
        return tuple(reversed(self.coefficients))

    def evaluate(self, x):
        """Horner evaluation; works for ints, fractions, or mpmath values."""
        total = 0 * x
        for c in self.descending():
            total = total * x + c
        return total

    def __str__(self) -> str:
        if self.degree == 0:
            return str(self.constant_term)
        pieces: List[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            if power == self.degree:
                head = "-" if c < 0 else ""
                body = "" if abs(c) == 1 else str(abs(c))
            else:
                head = " - " if c < 0 else " + "
                body = "" if abs(c) == 1 and power > 0 else str(abs(c))
            if power == 0:
                term = str(abs(c))
            elif power == 1:
                term = f"{body}x"
            else:
                term = f"{body}x^{power}"
            pieces.append(head + term)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


@dataclass(frozen=True)
class ConjugateRecord:
    """One conjugate of the invariant: its form, action data, and value.

    The conjugate is scalar = z^k * sqrt(3)^e, z = exp(2*pi*i/72), times
    the eta quotient F_index at the form's root; (index, k, e) is where
    the integer action with determinant det sends sqrt(3) * F_2.
    """

    form: QuadForm
    det: int
    action: Monomial
    index: int
    k: int
    e: int
    scalar: CycNum
    value: mpmath.mpc

    @cached_property
    def rep(self) -> RepMatrix:
        """The dense substitution matrix, recomputed by the exact oracle
        (``full_action`` on the form's GL2(Z/72) matrix) on first use."""
        return full_action(form_matrix_mod72(self.form))[0]


@dataclass(frozen=True)
class PolynomialResult:
    """A rounded class polynomial with the numeric evidence behind it."""

    discriminant: int
    class_number: int
    polynomial: IntPolynomial
    precision_digits: int
    max_residual: mpmath.mpf
    conjugates: Tuple[ConjugateRecord, ...] = ()


def is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _check_digits(dps: int) -> int:
    if dps < 1:
        raise ValueError(f"precision must be at least 1 digit, got {dps}")
    return dps


def _action_data(form: QuadForm) -> Tuple[Monomial, int, Term]:
    """The form's integer action, its determinant, and the term
    (index, k, e) of the conjugate of sqrt(3) * F_2."""
    action, det = form_action(form)
    return action, det, conjugate_action(action, det, SQRT3_F2)


def _conjugate_number(form: QuadForm, term: Term, digits: int) -> mpmath.mpc:
    """z^k * sqrt(3)^e * F_index at the form's root."""
    index, k, e = term
    with mpmath.workdps(digits + GUARD_DIGITS):
        scale = mpmath.expjpi(mpmath.mpf(k) / 36) * mpmath.sqrt(3) ** e
        return scale * r_value(index, form_root(form, digits + GUARD_DIGITS), digits)


def _record(form: QuadForm, data: Tuple[Monomial, int, Term],
            value: mpmath.mpc) -> ConjugateRecord:
    action, det, (index, k, e) = data
    return ConjugateRecord(form=form, det=det, action=action, index=index, k=k,
                           e=e, scalar=monomial_entry(k, e), value=value)


def conjugate_value(form: QuadForm, dps: Optional[int] = None) -> ConjugateRecord:
    """The conjugate of sqrt(3) * F_2 attached to a form class.

    The conjugate action of the form's GL2(Z/72) matrix moves the
    coefficient vector of sqrt(3) * F_2 to a single scaled basis vector;
    the conjugate is that exact scalar times the corresponding eta
    quotient at the form's root.
    """
    digits = _check_digits(dps) if dps is not None else mpmath.mp.dps
    data = _action_data(form)
    return _record(form, data, _conjugate_number(form, data[2], digits))


def _expand_and_round(values: Sequence[mpmath.mpc],
                      digits: int) -> Tuple[Tuple[int, ...], mpmath.mpf]:
    """Expand prod(t - v) and round to integers, reporting the worst error."""
    with mpmath.workdps(digits):
        coeffs: List[mpmath.mpc] = [mpmath.mpc(1)]
        for v in values:
            nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] -= c * v
                nxt[i + 1] += c
            coeffs = nxt
        rounded: List[int] = []
        residual = mpmath.mpf(0)
        for c in coeffs:
            target = int(mpmath.nint(mpmath.re(c)))
            residual = max(residual,
                           abs(mpmath.re(c) - target), abs(mpmath.im(c)))
            rounded.append(target)
        return tuple(rounded), residual


def _round_with_retries(
    evaluate: Callable[[int], Sequence[mpmath.mpc]], digits: int,
) -> Tuple[Tuple[int, ...], mpmath.mpf, int, Sequence[mpmath.mpc]]:
    """Round the expanded product of the values ``evaluate(digits)``.

    Digits double on each rounding failure, up to MAX_RETRIES times,
    before PrecisionError is raised.  Returns the rounded coefficients,
    the residual, the digits used and the values at those digits.
    """
    residual = None
    for _ in range(MAX_RETRIES + 1):
        values = evaluate(digits)
        rounded, residual = _expand_and_round(values, digits)
        if residual < RESIDUAL_TOLERANCE:
            return rounded, residual, digits, values
        digits *= 2
    raise PrecisionError(
        f"coefficients failed to round to integers (residual {mpmath.nstr(residual)})",
        residual,
    )


def compute_ramanujan(n: int, dps: Optional[int] = None) -> PolynomialResult:
    """Minimal polynomial of t_n over the rationals, with retry on precision.

    n must be positive and congruent to 11 mod 24.  Non-squarefree n is
    accepted (the caller may warn); precision doubles on rounding
    failure up to MAX_RETRIES times before PrecisionError is raised.
    The exact actions are computed once; only the evaluations repeat.
    """
    if n <= 0 or n % 24 != 11:
        raise ValueError(BAD_RESIDUE_MESSAGE)
    digits = _check_digits(dps) if dps is not None else DEFAULT_DIGITS
    forms = reduced_forms(-n)
    actions = [_action_data(f) for f in forms]

    def evaluate(digits: int) -> List[mpmath.mpc]:
        return [_conjugate_number(f, data[2], digits)
                for f, data in zip(forms, actions)]

    rounded, residual, digits, values = _round_with_retries(evaluate, digits)
    return PolynomialResult(
        discriminant=-n,
        class_number=len(forms),
        polynomial=IntPolynomial(rounded),
        precision_digits=digits,
        max_residual=residual,
        conjugates=tuple(_record(*row) for row in zip(forms, actions, values)),
    )


def hilbert_default_digits(discriminant: int) -> int:
    """Precision heuristic from the coefficient growth of j-values."""
    forms = reduced_forms(discriminant)
    bits = math.pi * math.sqrt(-discriminant) / math.log(10)
    return int(math.ceil(bits * sum(1.0 / f.a for f in forms))) + 20


def compute_hilbert(discriminant: int, dps: Optional[int] = None) -> PolynomialResult:
    """Hilbert class polynomial of a negative discriminant."""
    if discriminant >= 0 or discriminant % 4 not in (0, 1):
        raise ValueError("not a negative discriminant")
    forms = reduced_forms(discriminant)
    digits = (_check_digits(dps) if dps is not None
              else hilbert_default_digits(discriminant))

    def evaluate(digits: int) -> List[mpmath.mpc]:
        return [j_invariant(form_root(f, digits + GUARD_DIGITS), digits) for f in forms]

    rounded, residual, digits, _ = _round_with_retries(evaluate, digits)
    return PolynomialResult(
        discriminant=discriminant,
        class_number=len(forms),
        polynomial=IntPolynomial(rounded),
        precision_digits=digits,
        max_residual=residual,
    )


def verify_polynomial(polynomial: IntPolynomial, n: int,
                      dps: Optional[int] = None) -> mpmath.mpf:
    """Absolute value of the polynomial at t_n; small iff it annihilates t_n."""
    digits = _check_digits(dps) if dps is not None else DEFAULT_DIGITS
    with mpmath.workdps(digits + GUARD_DIGITS):
        return abs(polynomial.evaluate(ramanujan_value(n, digits)))

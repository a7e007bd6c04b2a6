"""Integer minimal polynomials of class invariants.

The minimal polynomial of the invariant t_n is assembled as the product
of (t - conjugate) over the reduced forms of discriminant -n.  Each
conjugate is an exact root of unity times sqrt(3) times one of the six
eta quotients evaluated at the root of its form, so the only numeric
steps are the eta evaluations and the final rounding of the expanded
coefficients to integers.

t_n is real, so its minimal polynomial has real coefficients, and
complex conjugation acts on the class group as inversion: the root of
the mirror (a, -b, c) of a reduced form (a, b, c) is -conj(tau), and
its conjugate is the complex conjugate of the one of (a, b, c).  Only
the forms with b >= 0 are evaluated, about h/2 of them, and only they
get an exact action (``form_action``).  ``reduced_forms`` lists each
form with b < 0 right after its mirror, so it takes its term
(index, k, e) from the form before it, by the rule derived from the eta
quotients (``etarep.mirror_term``), and the conjugate of that form's
value; the ambiguous forms (``quadforms.is_ambiguous``: b = 0, b = a or
a = c), which are their own mirrors, give real values.  The records
of the conjugates are plain data; nothing here touches the dense
oracle (``RepMatrix``, ``full_action``).  Each conjugate is formed on
integer pairs: the eta quotient, an exact binary fraction from
``numeval.r_value``, is read as a scaled pair and multiplied by
z^k sqrt(3)^e as a fixed-point constant (``numeval.times_scalar``).
The expansion runs over the reals on plain integers: each value is a
fixed-point pair with as many fractional bits as the working digits, a
real value enters as the linear factor t - v and a mirrored pair as the
real quadratic t^2 - 2 Re(v) t + |v|^2.  The factors, sorted by size,
are dealt round-robin into one group per 40 values (one group below
80); each group is swept smallest first, and the groups' products are
joined pairwise, each join one Kronecker product in base 10: both
polynomials are packed into decimal slots of one exact ``decimal``
number each, multiplied once by libmpdec, whose number-theoretic
transform is much faster than int's Karatsuba on operands of hundreds
of thousands of bits, and read back as integers.  The rounding and its
residual are exact integer operations.
The same expansion drives Hilbert class polynomials from j-values,
which serve as an independent cross-check of class numbers and
precision handling.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import mpmath
from mpmath.libmp import dps_to_prec, mpf_neg

from .cyclotomic import CycNum
from .etarep import (
    BAD_RESIDUE_MESSAGE,
    SQRT3_F2,
    Term,
    conjugate_action,
    form_action,
    is_valid_n,
    mirror_term,
    monomial_entry,
)
from .numeval import (
    ETA_QUOTIENTS,
    GUARD_DIGITS,
    check_digits,
    check_integer,
    from_gaussian,
    j_invariant,
    leading_exponent,
    r_value,
    ramanujan_value,
    resolve_digits,
    times_scalar,
    to_gaussian,
)
from .quadforms import (
    QuadForm,
    check_discriminant,
    form_root,
    is_ambiguous,
    reduced_forms,
)

DEFAULT_DIGITS = 120
"""Working precision for invariant polynomials unless overridden."""

RESIDUAL_TOLERANCE = mpmath.mpf("1e-10")
"""Largest acceptable distance from an expanded coefficient to its integer."""

EXPANSION_GUARD_BITS = 8
"""Fractional bits of the fixed-point expansion beyond the requested digits."""

GROUP_SIZE = 40
"""The expansion sweeps m values in max(1, m // GROUP_SIZE) groups, whose
products are then joined (``_expand_and_round``): below 80 values there
is one group, a plain smallest-first sweep."""

MAX_RETRIES = 3
"""Number of precision doublings after the first evaluated rung before
giving up; rungs skipped unevaluated do not count."""

SKIP_MARGIN_DIGITS = 10
"""A rung of r digits is skipped, unevaluated, while r + SKIP_MARGIN_DIGITS
is at most the a-priori coefficient size E (in decimal digits): its
residual would be near 10^(E - r) >= 10^10, far above the tolerance.
On the 82 invariant polynomials of ``scripts/output_digest.py``,
log10(residual) + digits, the size the expansion reached, lies within
-2.7 to +3.2 digits of E."""

class PrecisionError(ArithmeticError):
    """Raised when coefficients refuse to round to integers."""

    def __init__(self, message: str, residual) -> None:
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class IntPolynomial:
    """A polynomial with integer coefficients, stored constant-term first.

    Any sequence of coefficients is stored as a tuple, so equal
    polynomials compare and hash equal.  A coefficient that is not an
    integer (a float, a Fraction, a string or a bool) raises ValueError.
    """

    coefficients: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        for power, c in enumerate(self.coefficients):
            check_integer(c, f"coefficient of x^{power}")
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
    """One conjugate of the invariant: its form, its term and its value.

    The conjugate is scalar = z^k * sqrt(3)^e, z = exp(2*pi*i/72), times
    the eta quotient F_index at the form's root; (index, k, e) is where
    the form's integer action (``etarep.form_action``) sends
    sqrt(3) * F_2.  A form with b < 0 takes its term from its mirror's
    by ``etarep.mirror_term``, and its value is the complex conjugate of
    its mirror's.
    """

    form: QuadForm
    index: int
    k: int
    e: int
    scalar: CycNum
    value: mpmath.mpc


@dataclass(frozen=True)
class PolynomialResult:
    """A rounded class polynomial with the numeric evidence behind it."""

    discriminant: int
    class_number: int
    polynomial: IntPolynomial
    precision_digits: int
    max_residual: mpmath.mpf
    size_estimate: float
    """E, the a-priori log10 of prod max(1, |value|), which picked the
    first rung evaluated."""
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


def _action_data(form: QuadForm) -> Term:
    """The term (index, k, e) of the conjugate of sqrt(3) * F_2, from the
    form's exact integer action and its determinant."""
    return conjugate_action(*form_action(form), SQRT3_F2)


_LEADING_EXPONENTS = tuple(float(leading_exponent(index))
                          for index in range(len(ETA_QUOTIENTS)))
"""``leading_exponent`` of each quotient, as floats, taken once."""


def _ramanujan_size(n: int, forms: Sequence[QuadForm],
                    terms: Sequence[Term]) -> float:
    """E = sum of max(0, log10 |t^sigma|) over the conjugates, from
    |z^k sqrt(3)^e F_index| ~ 3^(e/2) |q|^leading_exponent(index) and
    1/|q| = exp(pi sqrt(n) / a) at the root of the form (a, b, c)."""
    bits = math.pi * math.sqrt(n) / math.log(10)
    return sum(max(0.0, e * math.log10(3) / 2
                   - _LEADING_EXPONENTS[index] * bits / f.a)
               for f, (index, _, e) in zip(forms, terms))


Pair = Tuple[int, int]
"""A Gaussian fixed-point pair at the expansion's bits (``_expansion_bits``)."""


def _expansion_bits(digits: int) -> int:
    """Fractional bits of the fixed-point expansion at ``digits``."""
    return math.ceil(digits * math.log2(10)) + EXPANSION_GUARD_BITS


def _conjugate_number(form: QuadForm, term: Term,
                      digits: int) -> Tuple[Pair, mpmath.mpc]:
    """z^k * sqrt(3)^e * F_index at the form's root: its pair at the
    expansion's bits and its exact value.

    The product is a scaled pair at the working precision's width
    (``numeval.times_scalar``), so the value keeps its full relative
    precision; the pair, a shift of it, is off by a unit more at the
    expansion's bits.
    """
    index, k, e = term
    width = dps_to_prec(digits + GUARD_DIGITS)
    vr, vi, s = times_scalar(
        r_value(index, form_root(form, digits + GUARD_DIGITS), digits), k, e, width)
    shift = width + s - _expansion_bits(digits)
    pair = (vr >> shift, vi >> shift) if shift >= 0 else (vr << -shift, vi << -shift)
    return pair, from_gaussian(vr, vi, width + s)


def _record(form: QuadForm, term: Term, value: mpmath.mpc) -> ConjugateRecord:
    index, k, e = term
    return ConjugateRecord(form=form, index=index, k=k, e=e,
                           scalar=monomial_entry(k, e), value=value)


def conjugate_value(form: QuadForm, dps: Optional[int] = None) -> ConjugateRecord:
    """The conjugate of sqrt(3) * F_2 attached to a form class.

    The conjugate action of the form's GL2(Z/72) matrix moves the
    coefficient vector of sqrt(3) * F_2 to a single scaled basis vector;
    the conjugate is that exact scalar times the corresponding eta
    quotient at the form's root.  The form must be primitive and
    positive definite, of discriminant -n with n = 11 mod 24; any other
    raises ValueError.
    """
    if not is_valid_n(-form.discriminant):
        raise ValueError(BAD_RESIDUE_MESSAGE)
    if not (form.is_primitive() and form.is_positive_definite()):
        raise ValueError(f"form {form} is not primitive and positive definite")
    digits = resolve_digits(dps)
    term = _action_data(form)
    return _record(form, term, _conjugate_number(form, term, digits)[1])


T = TypeVar("T")


def _with_mirrors(forms: Sequence[QuadForm], own: Sequence[T],
                  mirror: Callable[[T], T]) -> List[T]:
    """The data of every form of ``reduced_forms`` from ``own``, those of
    its forms with b >= 0 in list order: a form with b < 0 takes
    ``mirror`` of the data of the form just before it, its mirror
    (a, -b, c)."""
    data: List[T] = []
    rest = iter(own)
    for f in forms:
        data.append(next(rest) if f.b >= 0 else mirror(data[-1]))
    return data


def _sweep(factors: Sequence[Tuple[int, int, Optional[int]]], bits: int) -> List[int]:
    """The ascending fixed-point coefficients of the monic product of the
    factors (size, s, p), t + s when p is None and t^2 + s t + p
    otherwise, multiplied in one at a time in the order given.

    Each step floors once per coefficient.  With sigma = s 2^-bits,
    pi = p 2^-bits, a step turns an error of eps units (of 2^-bits) into
    under (1 + |sigma| + |pi|) eps + |P| + 1 units, |P| the largest
    coefficient so far (p itself is floored); so m factors are off by
    under 2 m M units, M = prod(1 + |sigma| + |pi|)."""
    coeffs = [1 << bits]
    for _, s, p in factors:
        if p is None:
            coeffs = [a + ((s * b) >> bits)
                      for a, b in zip([0] + coeffs, coeffs + [0])]
        else:
            coeffs = [a + ((s * b + p * c) >> bits)
                      for a, b, c in zip([0, 0] + coeffs, [0] + coeffs + [0],
                                         coeffs + [0, 0])]
    return coeffs


def _str_digits_limit() -> int:
    """Python's limit on the digits of an int <-> str conversion, 0 for
    none (builds before 3.10.7, or the limit switched off)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _join(a: Sequence[int], b: Sequence[int], bits: int) -> List[int]:
    """The product of two fixed-point polynomials, by one Kronecker product
    in base 10, multiplied by libmpdec's number-theoretic transform.

    Each polynomial is packed as the exact decimal sum of its signed
    coefficients times 10^(w i), w digits wide enough for every
    coefficient of the exact product, under min(len) max|a| max|b|, to
    lie strictly inside +-10^w / 2.  The packing adds neighbours
    pairwise, so it is linear in the digits up to a log factor.  The two
    packed numbers are multiplied once, plus 10^(w count) for the count
    coefficients of the product, in a private context of maximal
    precision that traps any inexact result.  The low w count digits of
    that positive number are read back in w-digit slots from the lowest:
    a slot read as u, plus the carry from the slot below, is the
    coefficient when under 10^w / 2 and the coefficient plus 10^w,
    carrying 1, otherwise.  Each coefficient is then shifted right by
    bits.  A slot wider than Python's int <-> str limit
    (``_str_digits_limit``) is read in pieces of at most that many
    digits.

    Every coefficient is an exact sum of products floored once, so it is
    off by under 1 unit from the product of a and b.  If a and b are off
    by eps_a and eps_b units, with coefficient sums |a|_1 and |b|_1 in
    value, the join is off by under |a|_1 eps_b + |b|_1 eps_a + 1 units,
    plus min(len) eps_a eps_b 2^-bits: to first order what sweeping b's
    factors into a would give, so joined groups keep the 2 m M bound of
    ``_sweep`` plus a unit per join.
    """
    size = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    # 30103 / 100000 exceeds log10(2), so 10^width > 2^size
    width = size * 30103 // 100000 + 1
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])

    def pack(poly: Sequence[int]) -> decimal.Decimal:
        # Decimal(x) has exponent 0, and so has every sum with it at the low
        # end: str() of the sum below gives plain digits
        parts = [decimal.Decimal(x) for x in poly]
        shift = width
        while len(parts) > 1:
            parts = [context.add(parts[i], context.scaleb(parts[i + 1], shift))
                     if i + 1 < len(parts) else parts[i]
                     for i in range(0, len(parts), 2)]
            shift *= 2
        return parts[0]

    count = len(a) + len(b) - 1
    # the product lies within +-10^(w count) / 2, so adding 10^(w count)
    # makes it positive, of at least w count digits, and keeps its low
    # w count digits: the string needs no sign and no padding
    digits = str(context.fma(pack(a), pack(b), context.scaleb(1, width * count)))
    piece = _str_digits_limit() or width
    head = width % piece or piece
    scale = 10 ** piece
    slot = 10 ** width
    half = slot >> 1
    coeffs = []
    carry = 0
    for end in range(len(digits), len(digits) - width * count, -width):
        # the slot's digits, in pieces within the int <-> str limit
        start = end - width + head
        c = int(digits[end - width:start])
        for i in range(start, end, piece):
            c = c * scale + int(digits[i:i + piece])
        c += carry
        carry = c >= half
        if carry:
            c -= slot
        coeffs.append(c >> bits)
    return coeffs


def _expand_and_round(values: Sequence[Pair], paired: Sequence[bool],
                      digits: int) -> Tuple[Tuple[int, ...], mpmath.mpf]:
    """Expand prod(t - v) over the reals and round to integers, reporting
    the worst error.

    Each value is a Gaussian fixed-point pair with
    ``_expansion_bits(digits)`` fractional bits, as many as ``digits``
    decimal digits, plus a few.  ``paired[i]`` says that ``values[i]``
    stands for itself and its complex conjugate, and contributes
    t^2 - 2 Re(v) t + |v|^2; any other value is real and contributes
    t - Re(v).  The factors, sorted by size, are dealt round-robin into
    max(1, m // GROUP_SIZE) groups for m values; each group is swept
    smallest first (``_sweep``), so the integers stay short for as long
    as possible, and the groups' products are joined pairwise
    (``_join``).  The residual is the largest distance of a coefficient
    from its nearest integer or of a real value's imaginary part from 0.
    """
    bits = _expansion_bits(digits)
    # (size, s, p): the factor t + s when p is None, else t^2 + s t + p
    factors = []
    drift = 0
    for (vr, vi), pair in zip(values, paired):
        size = max(abs(vr), abs(vi)).bit_length()
        if pair:
            factors.append((size, -2 * vr, (vr * vr + vi * vi) >> bits))
        else:
            drift = max(drift, abs(vi))
            factors.append((size, -vr, None))
    factors.sort(key=lambda factor: factor[0])
    groups = max(1, len(factors) // GROUP_SIZE)
    # ascending coefficients of the monic product of each group
    polys = [_sweep(factors[g::groups], bits) for g in range(groups)]
    while len(polys) > 1:
        polys = [_join(*polys[i:i + 2], bits) if i + 1 < len(polys) else polys[i]
                 for i in range(0, len(polys), 2)]
    coeffs = polys[0]
    half = 1 << (bits - 1)
    rounded = tuple((a + half) >> bits for a in coeffs)
    residual = max(drift, max(abs(a - (r << bits)) for a, r in zip(coeffs, rounded)))
    return rounded, from_gaussian(residual, 0, bits).real


def _round_with_retries(
    evaluate: Callable[[int], Tuple[Sequence[Pair], Sequence[mpmath.mpc]]],
    paired: Sequence[bool], digits: int, size: float,
) -> Tuple[Tuple[int, ...], mpmath.mpf, int, Sequence[mpmath.mpc]]:
    """Round the expanded product of the values ``evaluate(digits)``,
    each standing for a mirrored pair where ``paired`` says so;
    ``evaluate`` returns their pairs at ``_expansion_bits(digits)`` and
    the values themselves.

    The first rung evaluated is the first of digits * 2^k, k >= 0, that
    the a-priori size estimate ``size`` does not rule out
    (SKIP_MARGIN_DIGITS), however far up the ladder it lies; the rungs
    below it are skipped unevaluated.  Digits then double on each
    rounding failure, up to MAX_RETRIES times, before PrecisionError is
    raised.  Returns the rounded coefficients, the residual, the digits
    used and the values at those digits.
    """
    while digits + SKIP_MARGIN_DIGITS <= size:
        digits *= 2
    for _ in range(MAX_RETRIES + 1):
        pairs, values = evaluate(digits)
        rounded, residual = _expand_and_round(pairs, paired, digits)
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
    accepted (the caller may warn); the first precision rung is the one
    the a-priori size estimate allows, and precision doubles on rounding
    failure up to MAX_RETRIES times before PrecisionError is raised.
    The exact actions are computed once, for the forms with b >= 0 only:
    each form with b < 0 takes its term from its mirror's, the form just
    before it (``etarep.mirror_term``).  Only the evaluations, of the
    forms with b >= 0, repeat.  A rounded polynomial that is not monic or whose
    constant term is not +-1 cannot be the minimal polynomial of a unit,
    and raises PrecisionError as well.
    """
    if not is_valid_n(n):
        raise ValueError(BAD_RESIDUE_MESSAGE)
    digits = check_digits(dps) if dps is not None else DEFAULT_DIGITS
    forms = reduced_forms(-n)
    evaluated = [f for f in forms if f.b >= 0]
    paired = [not is_ambiguous(f) for f in evaluated]
    own = [_action_data(f) for f in evaluated]
    terms = _with_mirrors(forms, own, mirror_term)
    size = _ramanujan_size(n, forms, terms)

    def evaluate(digits: int) -> Tuple[Sequence[Pair], Sequence[mpmath.mpc]]:
        return tuple(zip(*(_conjugate_number(f, term, digits)
                           for f, term in zip(evaluated, own))))

    rounded, residual, digits, values = _round_with_retries(
        evaluate, paired, digits, size)
    # t_n is a unit, so its minimal polynomial is monic with constant term +-1
    if rounded[-1] != 1:
        raise PrecisionError(
            f"rounded polynomial is not monic (leading coefficient {rounded[-1]})",
            residual)
    if abs(rounded[0]) != 1:
        raise PrecisionError(
            f"rounded constant term {rounded[0]} is not a unit (must be ±1)",
            residual)
    return PolynomialResult(
        discriminant=-n,
        class_number=len(forms),
        polynomial=IntPolynomial(rounded),
        precision_digits=digits,
        max_residual=residual,
        size_estimate=size,
        conjugates=tuple(_record(*row) for row in
                         zip(forms, terms, _with_mirrors(forms, values, _conjugate))),
    )


def _conjugate(value: mpmath.mpc) -> mpmath.mpc:
    """The complex conjugate, negated exactly rather than rounded to the
    ambient precision."""
    re, im = value._mpc_
    return mpmath.mp.make_mpc((re, mpf_neg(im)))


def _hilbert_size(discriminant: int, forms: Sequence[QuadForm]) -> float:
    """E = sum of log10 |j| over the class group (the reduced forms of
    the discriminant), from |j| ~ 1/|q| = exp(pi sqrt(-D) / a)."""
    bits = math.pi * math.sqrt(-discriminant) / math.log(10)
    return bits * sum(1.0 / f.a for f in forms)


def _hilbert_digits(size: float) -> int:
    """The default precision for a Hilbert polynomial of size E."""
    return int(math.ceil(size)) + 20


def hilbert_default_digits(discriminant: int) -> int:
    """Precision heuristic from the coefficient growth of j-values."""
    return _hilbert_digits(_hilbert_size(discriminant, reduced_forms(discriminant)))


def compute_hilbert(discriminant: int, dps: Optional[int] = None) -> PolynomialResult:
    """Hilbert class polynomial of a negative discriminant.

    j(-conj(tau)) is the complex conjugate of j(tau), so, as for the
    invariants, only the forms with b >= 0 are evaluated.
    """
    discriminant = check_discriminant(discriminant)
    forms = reduced_forms(discriminant)
    size = _hilbert_size(discriminant, forms)
    digits = check_digits(dps) if dps is not None else _hilbert_digits(size)
    evaluated = [f for f in forms if f.b >= 0]
    paired = [not is_ambiguous(f) for f in evaluated]

    def evaluate(digits: int) -> Tuple[Sequence[Pair], Sequence[mpmath.mpc]]:
        values = [j_invariant(form_root(f, digits + GUARD_DIGITS), digits)
                  for f in evaluated]
        bits = _expansion_bits(digits)
        return [to_gaussian(v, bits) for v in values], values

    rounded, residual, digits, _ = _round_with_retries(evaluate, paired, digits, size)
    return PolynomialResult(
        discriminant=discriminant,
        class_number=len(forms),
        polynomial=IntPolynomial(rounded),
        precision_digits=digits,
        max_residual=residual,
        size_estimate=size,
    )


def verify_polynomial(polynomial: IntPolynomial, n: int,
                      dps: Optional[int] = None) -> mpmath.mpf:
    """Absolute value of the polynomial at t_n; small iff it annihilates t_n."""
    digits = check_digits(dps) if dps is not None else DEFAULT_DIGITS
    with mpmath.workdps(digits + GUARD_DIGITS):
        return abs(polynomial.evaluate(ramanujan_value(n, digits)))

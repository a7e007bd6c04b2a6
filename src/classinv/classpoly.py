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
its conjugate is the complex conjugate of the one of (a, b, c).  A
form is the unit of work: only the forms with b >= 0 are evaluated,
about h/2 of them, each with its exact action (``form_action``), in
the process that evaluates it (``_conjugate_number``).  ``reduced_forms``
lists each form with b < 0 right after its mirror, so it takes its term
(index, k, e) from the form before it, by z -> z^-1 on the
coefficients (``etarep.mirror_term``), and the conjugate of that form's
value (``_mirror``); the ambiguous forms (``quadforms.is_ambiguous``:
b = 0, b = a or a = c), which are their own mirrors, give real values.
The size estimate that picks the first precision rung needs no action:
a form's conjugate is one of the large quotients F_3 to F_5 exactly
when 3 divides a (``_ramanujan_size``).  The records of the conjugates
are plain data; nothing here touches the dense oracle (``RepMatrix``,
``full_action``).  Each conjugate is an exact binary fraction from
``numeval``: the eta quotient (``r_value``) times z^k sqrt(3)^e, formed
on numeval's scaled pairs (``times_scalar``).  One loop for both
polynomials (``_round_with_retries``) evaluates the forms with b >= 0,
one row (a, b, c) each, pairs each that is not ambiguous and reads
every value into the expansion's fixed point (``to_gaussian``); the
evaluation of a rung may be shared with a helper process
(``_evaluate_all``), bit for bit as on one process.
The expansion runs over the reals on plain integers: each value is a
fixed-point pair with as many fractional bits as the working digits, a
real value enters as the linear factor t - v and a mirrored pair as the
real quadratic t^2 - 2 Re(v) t + |v|^2.  The factors, sorted by size,
are dealt round-robin, once, into one group per 40 values (one group
below 80).  A node of the join tree is its list of groups, plain data:
each group, of factors (s, p), is swept smallest first, and the
groups' products are joined up a binary tree (``_product``, one
recursion for any node), each join one Kronecker product in base 10:
both polynomials are packed into decimal slots of one exact
``decimal`` number each, multiplied once by libmpdec, whose
number-theoretic transform is much faster than int's Karatsuba on
operands of hundreds of thousands of bits, and read back as integers.
The root's two children may be formed by two processes, the helper
sent its child as it stands, bit for bit as on one; so may a root of
one group, whose sweep the two processes split by coefficients, the
helper taking the upper ones: coefficient i of a step reads only i,
i - 1 and i - 2 of the step before, so the caller streams the two just
below the cut to the helper before every step.  ``_product`` forms both
splits.
The second process is one long-lived helper (``classinv.helper``),
forked by the first call that shares work and killed and reaped when
the interpreter exits; each shared rung sends it a task over a pipe
(``_shared``), and any failure falls back to one process.  A
computation that shares nothing never imports the helper's module.
The rounding and its residual are exact integer operations.  The same
expansion drives Hilbert class polynomials from j-values, which serve
as an independent cross-check of class numbers and precision handling.
"""

from __future__ import annotations

import decimal
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import mpmath
from mpmath.libmp import MPZ, mpf_neg

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

SPLIT_SWEEP_MIN_WORK = 1_000_000
"""A one-group expansion's sweep is split by coefficients over two
processes (``_product``) only when its degree squared times the
expansion's fractional bits reaches this.  Timed per sweep on a 2-core
host, serial against split (``scripts/sweep_split.py``, medians of 61
alternations in one process, two runs), the split lost at 91,575 (n =
971 at 120 digits: 0.12 -> 0.19 and 0.21 ms) and at 366,300 (n = 10019
at 120 digits: 0.42 -> 0.50 and 0.49 ms), which stay serial; it gained
little from 373,086 to 725,400 (D = -3011: 0.65 -> 0.59 and 0.62 ms;
n = 10019 at 240 digits: 0.95 -> 0.81 and 0.90 -> 0.87 ms), and won in
every run from 1,083,600 (n = 10019 at 360 digits: 1.78 -> 1.27 and
1.72 -> 1.37 ms) up to the Hilbert polynomial of D = -10019
(1,388,700: 2.33 -> 2.19 and 3.18 -> 2.41 ms).  In a run of 41
alternations, D = -20051 (7,925,500) went from 19.3 to 15.0 ms and
D = -30011 (10,969,508) from 28.3 to 22.1 ms.  The same script scans
the cut of D = -30011 (degree 61), each cut timed in turn with the
serial sweep: split over serial read 0.87 at a cut of 0.10 degree,
0.75 at 0.20, 0.67 at the model's 0.30 (``_sweep_cut``), 0.64 at 0.34
to 0.39 and 0.71 at 0.44 to 0.49.  Cuts from 0.30 to 0.37 are level
within noise on all three Hilbert sweeps (split over serial 0.68 to
0.79, 41 alternations), and end to end a 3/8 cut gained nothing: in
two runs of 10 alternating pairs of the ``hilbert`` benchmark against
the model's cut, its ``wall_ref_s`` read +2.6% and +0.7% (lower in 2
and 4 pairs) and its ``latency_p50_ref_s`` +3.0% and 0.0% (lower in 2
and 5): the model's cut stays."""

FORK_MIN_WORK = 360
"""A rung's values are evaluated on two processes (``_evaluate_all``)
only when it has two evaluated forms or more and their number times the
digits reaches this: three forms at 120 digits.  Sharing a rung costs
the helper's pipe round trip (``_shared``), not a fork.  Timed per rung
on a 2-core host, serial against shared (medians of 41 alternations in
one process), two forms at 120 digits broke even (n = 107:
0.442 -> 0.441 ms) and stay serial; three forms at 120 won (n = 131:
0.653 -> 0.498 ms; n = 275: 0.740 -> 0.524 ms), as did two forms at 240
(n = 107: 0.864 -> 0.677 ms) and every larger rung of the table (n = 971,
eight forms: 2.78 -> 1.71 ms)."""


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
    its mirror's.  ``scalar`` is ``etarep.monomial_entry(k, e)``; the
    records of one ``compute_ramanujan`` result with equal (k, e) share
    one immutable ``CycNum``.
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
    """Whether no square above 1 divides n (False for n <= 0), exactly, in
    O(n^(1/3)) divisions.

    Each d from 2 is divided once out of the cofactor m, while d^3 <= m;
    a second division by d means d^2 | n.  The m left has no prime
    factor below d, and d^3 > m, so it has at most two prime factors:
    it is squarefree unless it is the square of a prime.
    """
    if n <= 0:
        return False
    m, d = n, 2
    while d * d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return False
        d += 1
    return m == 1 or math.isqrt(m) ** 2 != m


def _action_data(form: QuadForm) -> Term:
    """The term (index, k, e) of the conjugate of sqrt(3) * F_2, from the
    form's exact integer action and its determinant."""
    return conjugate_action(*form_action(form), SQRT3_F2)


_SIZE_CLASSES = tuple((e * math.log10(3) / 2, float(leading_exponent(index)))
                      for index, e in ((3, 0), (2, 1), (2, 1)))
"""(e log10(3) / 2, leading_exponent(index)) of the term (index, k, e) of
the conjugate of a form (a, b, c), by a mod 3, taken once: its index
may be any of its block's, whose leading exponents are equal
(``_ramanujan_size``)."""


def _ramanujan_size(n: int, forms: Sequence[QuadForm]) -> float:
    """E = sum of max(0, log10 |t^sigma|) over the conjugates, from
    |z^k sqrt(3)^e F_index| ~ 3^(e/2) |q|^leading_exponent(index) and
    1/|q| = exp(pi sqrt(n) / a) at the root of the form (a, b, c).

    The forms alone fix the two: the conjugate of a form with 3 | a is
    one of F_3 to F_5 (leading exponent -1/18) with e = 0, that of any
    other form one of F_0 to F_2 (1/18) with e = 1, as for sqrt(3) * F_2
    itself.  The image of every mod-8 factor fixes row 2.  The mod-9
    factor of a form with 3 not dividing a is upper triangular, and its
    image keeps row 2 in F_0 to F_2 and its e.  That of a form with
    3 | a has a unit lower-left entry and top-left over lower-left
    x = (-b - 1)/2 mod 3 (minus a, when 3 | c), not 1 as 3 does not
    divide b; its image moves row 2 into F_3 to F_5 and lowers e by
    one.  Every sigma_d keeps both blocks."""
    bits = math.pi * math.sqrt(n) / math.log(10)
    return sum(max(0.0, scale - leading * bits / f.a)
               for f in forms for scale, leading in [_SIZE_CLASSES[f.a % 3]])


def _expansion_bits(digits: int) -> int:
    """Fractional bits of the fixed-point expansion at ``digits``."""
    return math.ceil(digits * math.log2(10)) + EXPANSION_GUARD_BITS


def _conjugate_number(a: int, b: int, c: int,
                      digits: int) -> Tuple[int, int, int, mpmath.mpc]:
    """The term (index, k, e) of the form (a, b, c) (``_action_data``) and
    its conjugate z^k * sqrt(3)^e * F_index at the form's root, an exact
    binary fraction with the full relative precision of ``digits``
    (``numeval.times_scalar``).  It takes plain ints, so that the helper
    can evaluate it too (``_evaluate_all``)."""
    form = QuadForm(a, b, c)
    index, k, e = _action_data(form)
    root = form_root(form, digits + GUARD_DIGITS)
    return index, k, e, times_scalar(r_value(index, root, digits), k, e, digits)


def _j_number(a: int, b: int, c: int, digits: int) -> Tuple[mpmath.mpc]:
    """(j,) at the root of the form (a, b, c), exact
    (``numeval.j_invariant``), from plain ints like ``_conjugate_number``."""
    return (j_invariant(form_root(QuadForm(a, b, c), digits + GUARD_DIGITS), digits),)


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
    index, k, e, value = _conjugate_number(form.a, form.b, form.c, resolve_digits(dps))
    return ConjugateRecord(form, index, k, e, monomial_entry(k, e), value)


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


def _conjugate(value: mpmath.mpc) -> mpmath.mpc:
    """The complex conjugate, negated exactly rather than rounded to the
    ambient precision."""
    re, im = value._mpc_
    return mpmath.mp.make_mpc((re, mpf_neg(im)))


def _mirror(data: Tuple[int, int, int, mpmath.mpc]) -> Tuple[int, int, int, mpmath.mpc]:
    """The (index, k, e, value) of the mirror of a form from the form's
    own: the term by ``etarep.mirror_term``, the value's conjugate."""
    return (*mirror_term(data[:3]), _conjugate(data[3]))


Factor = Tuple[int, Optional[int]]
"""A factor (s, p) of the expansion, in units of 2^-bits: t + s when p is
None, else t^2 + s t + p."""


def _sweep(factors: Sequence[Factor], bits: int,
           low: int = 0, high: Optional[int] = None,
           below: Optional[Iterator[Tuple[int, int]]] = None,
           send: Optional[Callable[[Tuple[int, int]], None]] = None) -> List[int]:
    """The ascending fixed-point coefficients of the monic product of the
    factors (``Factor``), multiplied in one at a time in the order given.

    Each step floors once per coefficient.  With sigma = s 2^-bits,
    pi = p 2^-bits, a step turns an error of eps units (of 2^-bits) into
    under (1 + |sigma| + |pi|) eps + |P| + 1 units, |P| the largest
    coefficient so far (p itself is floored); so m factors are off by
    under 2 m M units, M = prod(1 + |sigma| + |pi|).

    With ``high``, only the coefficients ``low`` to ``high - 1`` of every
    step are formed, those above the degree so far as zeros; without it,
    every coefficient, and ``low`` is 0.  Coefficient i of a step reads
    only i, i - 1 and i - 2 of the step before, so a window is the serial
    sweep restricted to it, bit for bit, given the two coefficients below
    it: ``below`` yields them, (c[low - 2], c[low - 1]) of the product so
    far, before every step (zeros when None, as for low = 0), and
    ``send`` is handed the window's top two, (c[high - 2], c[high - 1]),
    before every step: what ``below`` must yield to the window that
    starts at ``high``.  The split sweep of ``_product`` is two windows:
    the caller's, whose ``send`` streams the pairs to the helper
    (``_shared``), and the helper's, whose ``below`` reads them."""
    if high is None:
        coeffs, grow = [1 << bits], [0]
    else:
        # a window keeps its width: zip stops at its top coefficient
        coeffs, grow = ([1 << bits] + [0] * high)[low:high], []
    for s, p in factors:
        c2, c1 = (0, 0) if below is None else next(below)
        if send is not None:
            send(tuple(([c2, c1] + coeffs)[-2:]))
        if p is None:
            coeffs = [a + ((s * b) >> bits)
                      for a, b in zip([c1] + coeffs, coeffs + grow)]
        else:
            coeffs = [a + ((s * b + p * c) >> bits)
                      for a, b, c in zip([c2, c1] + coeffs, [c1] + coeffs + grow,
                                         coeffs + grow + grow)]
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


def _product(groups: Sequence[Sequence[Factor]], bits: int,
             shared: bool = False) -> List[int]:
    """The ascending fixed-point coefficients of the monic product of the
    factors of ``groups``: one node of the expansion's join tree, which
    is its list of groups.

    A node of one group is that group swept in its order (``_sweep``).
    A wider node of w groups is the ``_join`` of its two children, the
    first 2^(ceil(log2 w) - 1) groups and the rest; the first child is a
    power of two of groups, so the tree joins neighbours pairwise, level
    by level, an odd one out carried up a level.  With ``shared``, which
    only the root is given, the helper forms the second child
    (``_shared``), sent as it stands, while this process forms the
    first.  A shared root of one group of degree d is one sweep, split
    by coefficients once d^2 bits reaches SPLIT_SWEEP_MIN_WORK: this
    process forms the coefficients below the cut (``_sweep_cut``) of
    every step and streams their top two to the helper before each step,
    and the helper forms the rest and sends them back once, at the end.
    Shared or not, every join and every sweep step has the serial
    inputs, so the coefficients are the serial ones bit for bit; when
    ``_shared`` gives None, the serial node is formed.  Timed per
    expansion on a 2-core host, serial against shared (medians of 21
    alternations in one process), sharing won at the smallest tree, 80
    values at 120 digits in two groups (7.12 -> 5.66 ms), at n = 100019
    (97 values at 120 digits: 8.95 -> 6.39 ms) and at n = 1000019 (172
    values at 240 digits, four groups: 51.6 -> 37.6 ms), so every tree of
    two groups or more is shared.
    """
    if len(groups) == 1:
        group = groups[0]
        degree = _degree(group)
        shares = None
        if shared and degree * degree * bits >= SPLIT_SWEEP_MIN_WORK:
            cut = _sweep_cut(degree)
            shares = _shared(partial(_sweep, group, bits, 0, cut, None), "_sweep",
                             group, bits, cut, degree + 1, stream=True)
        return _sweep(group, bits) if shares is None else shares[0] + shares[1]
    cut = 1 << (len(groups) - 1).bit_length() >> 1
    left = partial(_product, groups[:cut], bits)
    shares = _shared(left, "_product", groups[cut:], bits) if shared else None
    return _join(*(shares or (left(), _product(groups[cut:], bits))), bits)


def _degree(factors: Sequence[Factor]) -> int:
    """The degree of the product of the factors."""
    return sum(1 if p is None else 2 for _, p in factors)


def _sweep_cut(degree: int) -> int:
    """Where ``_product`` cuts the coefficients of a product of the
    given degree, from a work model of equal cost per coefficient-step:
    the helper's coefficients, from the cut up, form a triangle of steps
    that holds half of the whole sweep's when the cut is degree
    (1 - 1/sqrt(2)), about 0.29 degree."""
    return degree - math.isqrt(degree * degree // 2)


def _expand_and_round(values: Sequence[Tuple[int, int]], paired: Sequence[bool],
                      digits: int) -> Tuple[Tuple[int, ...], mpmath.mpf]:
    """Expand prod(t - v) over the reals and round to integers, reporting
    the worst error.

    Each value is a Gaussian fixed-point pair with
    ``_expansion_bits(digits)`` fractional bits, as many as ``digits``
    decimal digits, plus a few.  ``paired[i]`` says that ``values[i]``
    stands for itself and its complex conjugate, and contributes
    t^2 - 2 Re(v) t + |v|^2; any other value is real and contributes
    t - Re(v).  The factors, sorted by size, are dealt round-robin into
    g = max(1, m // GROUP_SIZE) groups for m values, here and only here:
    that list of groups is the root of the join tree (``_product``, whose
    two children are formed by two processes when there are two groups
    or more; one group's sweep is split by coefficients over two
    processes when it is large enough).  Each group is swept smallest
    first, so the integers stay short for as long as possible.  The
    residual is the largest distance of a coefficient from its nearest
    integer or of a real value's imaginary part from 0.
    """
    bits = _expansion_bits(digits)
    # (size, s, p) until the sort, then the Factor (s, p)
    factors = []
    drift = 0
    for (vr, vi), pair in zip(values, paired):
        size = max(abs(vr), abs(vi)).bit_length()
        if pair:
            factors.append((size, -2 * vr, (vr * vr + vi * vi) >> bits))
        else:
            drift = max(drift, abs(vi))
            factors.append((size, -vr, None))
    factors = [(s, p) for _, s, p in sorted(factors, key=lambda factor: factor[0])]
    count = max(1, len(factors) // GROUP_SIZE)
    coeffs = _product([factors[g::count] for g in range(count)], bits, shared=True)
    half = 1 << (bits - 1)
    rounded = tuple((a + half) >> bits for a in coeffs)
    residual = max(drift, max(abs(a - (r << bits)) for a, r in zip(coeffs, rounded)))
    return rounded, from_gaussian(residual, 0, bits).real


def _shared(own: Callable[..., T], task: str, *args,
            stream: bool = False) -> Optional[Tuple[T, object]]:
    """``(own(), f(*args))``, f being the function of this module named
    ``task``, run by the helper process while this process runs
    ``own()``; or None for the caller to run its one-process path
    instead.

    None comes back, with nothing run, unless ``os.fork`` exists, no
    other thread runs and at least two CPUs are usable by this process.
    Only a call that passes these guards imports ``classinv.helper``,
    whose ``share`` runs the task: see there for the helper's life, the
    ``stream`` tasks and the failures that give None.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    affinity = getattr(os, "sched_getaffinity", None)
    if (len(affinity(0)) if affinity else os.cpu_count() or 1) < 2:
        return None
    from . import helper
    return helper.share(own, task, *args, stream=stream)


def _values(evaluate: str, rows: Sequence[Tuple[int, ...]], digits: int) -> List[tuple]:
    """``[f(*row, digits) for row in rows]``, f being the function of this
    module named ``evaluate``: tuples of ints that end with the value."""
    value = globals()[evaluate]
    return [value(*row, digits) for row in rows]


def _sent_values(evaluate: str, rows: Sequence[Tuple[int, ...]], digits: int) -> list:
    """The helper's share of ``_evaluate_all``: each of ``_values`` with
    its value as its ``_mpc_`` parts, (sign, man, exp, bc) with man as a
    plain int."""
    return [(*data, tuple((sign, int(man), exp, bc) for sign, man, exp, bc in value._mpc_))
            for *data, value in _values(evaluate, rows, digits)]


def _evaluate_all(evaluate: str, rows: Sequence[Tuple[int, ...]],
                  digits: int) -> List[tuple]:
    """``_values(evaluate, rows, digits)``, bit for bit.

    With two rows or more, whose number times the digits reaches
    FORK_MIN_WORK, the helper evaluates ``rows[1::2]`` (``_shared`` of
    ``_sent_values``) while this process evaluates ``rows[0::2]``.  When
    ``_shared`` gives None, a failing evaluation included, the serial
    loop runs, so the values and any exception raised are the serial
    ones.
    """
    shares = None
    if len(rows) > 1 and len(rows) * digits >= FORK_MIN_WORK:
        shares = _shared(partial(_values, evaluate, rows[0::2], digits),
                         "_sent_values", evaluate, rows[1::2], digits)
    if shares is None:
        return _values(evaluate, rows, digits)
    own, parts = shares
    values = [None] * len(rows)
    values[0::2] = own
    values[1::2] = [(*data, mpmath.mp.make_mpc(tuple((sign, MPZ(man), exp, bc)
                                                     for sign, man, exp, bc in value)))
                    for *data, value in parts]
    return values


def _round_with_retries(
    forms: Sequence[QuadForm], evaluate: str, digits: int, size: float,
) -> Tuple[Tuple[int, ...], mpmath.mpf, int, List[tuple]]:
    """Round the expanded product of t - v over the values v of the
    reduced forms ``forms``.

    Only the forms (a, b, c) with b >= 0 are evaluated, each as the
    exact f(a, b, c, digits), f being the function of this module named
    ``evaluate`` (``_evaluate_all``), a tuple that ends with the value;
    each that is not ambiguous (``quadforms.is_ambiguous``) stands for
    itself and its mirror, whose value is its conjugate.  The values are
    read into fixed point at ``_expansion_bits(digits)`` for
    ``_expand_and_round``.

    The first rung evaluated is the first of digits * 2^k, k >= 0, that
    the a-priori size estimate ``size`` does not rule out
    (SKIP_MARGIN_DIGITS), however far up the ladder it lies; the rungs
    below it are skipped unevaluated.  Digits then double on each
    rounding failure, up to MAX_RETRIES times, before PrecisionError is
    raised.  Returns the rounded coefficients, the residual, the digits
    used and the tuples evaluated at those digits, of the forms with
    b >= 0 in list order.
    """
    own = [f for f in forms if f.b >= 0]
    rows = [(f.a, f.b, f.c) for f in own]
    paired = [not is_ambiguous(f) for f in own]
    while digits + SKIP_MARGIN_DIGITS <= size:
        digits *= 2
    for _ in range(MAX_RETRIES + 1):
        values = _evaluate_all(evaluate, rows, digits)
        bits = _expansion_bits(digits)
        rounded, residual = _expand_and_round(
            [to_gaussian(v[-1], bits) for v in values], paired, digits)
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
    Each form with b >= 0 is evaluated with its exact action
    (``_conjugate_number``), in the process that evaluates it, once per
    rung; each form with b < 0 takes its term from its mirror's, the
    form just before it (``etarep.mirror_term``), and the conjugate of
    its mirror's value once the polynomial has rounded (``_mirror``).
    A rounded polynomial that is not monic or whose
    constant term is not +-1 cannot be the minimal polynomial of a unit,
    and raises PrecisionError as well.  The exact scalars of the records
    (``monomial_entry``) are built once the polynomial has rounded, one
    per distinct (k, e) of this call and shared by the records with that
    (k, e): n = 1000019 has 342 conjugates and 36 distinct (k, e).
    """
    if not is_valid_n(n):
        raise ValueError(BAD_RESIDUE_MESSAGE)
    digits = check_digits(dps) if dps is not None else DEFAULT_DIGITS
    forms = reduced_forms(-n)
    size = _ramanujan_size(n, forms)
    rounded, residual, digits, own = _round_with_retries(
        forms, "_conjugate_number", digits, size)
    # t_n is a unit, so its minimal polynomial is monic with constant term +-1
    if rounded[-1] != 1:
        raise PrecisionError(
            f"rounded polynomial is not monic (leading coefficient {rounded[-1]})",
            residual)
    if abs(rounded[0]) != 1:
        raise PrecisionError(
            f"rounded constant term {rounded[0]} is not a unit (must be ±1)",
            residual)
    conjugates = _with_mirrors(forms, own, _mirror)
    # built per call, not memoised across calls: a memo would make a
    # repeated n look cheaper than any one call, and leave a warm call
    # with no CycNum product for the tracer to count
    scalars = {ke: monomial_entry(*ke) for ke in {(k, e) for _, k, e, _ in conjugates}}
    return PolynomialResult(
        discriminant=-n,
        class_number=len(forms),
        polynomial=IntPolynomial(rounded),
        precision_digits=digits,
        max_residual=residual,
        size_estimate=size,
        conjugates=tuple(ConjugateRecord(f, index, k, e, scalars[k, e], v)
                         for f, (index, k, e, v) in zip(forms, conjugates)),
    )


def _hilbert_size(discriminant: int, forms: Sequence[QuadForm]) -> float:
    """E = sum of log10 |j| over the class group (the reduced forms of
    the discriminant), from |j| ~ 1/|q| = exp(pi sqrt(-D) / a)."""
    bits = math.pi * math.sqrt(-discriminant) / math.log(10)
    return bits * sum(1.0 / f.a for f in forms)


def compute_hilbert(discriminant: int, dps: Optional[int] = None) -> PolynomialResult:
    """Hilbert class polynomial of a negative discriminant.

    j(-conj(tau)) is the complex conjugate of j(tau), so, as for the
    invariants, only the forms with b >= 0 are evaluated.
    """
    discriminant = check_discriminant(discriminant)
    forms = reduced_forms(discriminant)
    size = _hilbert_size(discriminant, forms)
    # by default, 20 digits above the size E
    digits = check_digits(dps) if dps is not None else math.ceil(size) + 20
    rounded, residual, digits, _ = _round_with_retries(forms, "_j_number", digits, size)
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

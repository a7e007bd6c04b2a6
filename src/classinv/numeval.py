"""Arbitrary-precision evaluation of eta products and class invariants.

All functions take an optional integer digit count (at least 1) and
work to that precision plus a fixed guard margin.  The Dedekind eta
function is summed with the pentagonal number theorem, so the series is
sparse: the number of terms needed grows with the square root of the
target digits.  No term is a fresh power of q: each power the sum takes
is the product of two powers made before it, along an addition sequence
over the pentagonal exponents k(3k -+ 1)/2 that is built once per term
count and cached (``_addition_sequence``, after Enge, Hart and
Johansson, Short addition sequences for theta functions, 2018).  17
terms take 46 products and 29 take 75.  The series runs in
Gaussian fixed point: a complex number z is the integer pair
(floor(Re z 2^B), floor(Im z 2^B)) (``to_gaussian``,
``from_gaussian``), so each product is three integer multiplications
and two shifts (the imaginary part is (ar + ai)(br + bi) - ar br - ai bi;
a square takes two) instead of mpmath's floating-point object
arithmetic.  The term count is worked out in machine floats.

Numbers whose size varies, such as the prefactor r = q^(1/24), which
can be as small as 10^-170 at the CM points met here, or a quotient as
large as 10^75, are scaled pairs: (zr, zi, s) stands for
(zr + i zi) 2^-(B + s), a Gaussian fixed-point number times a power of
two, so they keep their full relative precision on plain integers
(``_scaled``, ``_scaled_mul``).  eta splits r as 2^-s r_s with
|r_s| in [1/4, 1), forms q = r_s^24 2^(-24 s) by products and a shift,
and returns the exact binary fraction r_s S(q) 2^-s.  No scaled pair
leaves this module: ``times_scalar`` too returns an exact binary
fraction, which ``classpoly`` reads into fixed point (``to_gaussian``).

Klein's j is the eta quotient (1 + 256 h)^3 / h with
h = (eta(2 tau) / eta(tau))^24, which is Weber's
j = (f2^24 + 16)^3 / f2^24, so it needs two eta series and no
Eisenstein series.  It does not call eta: the series of eta(2 tau) is
S(q^2), whose exponents are twice the pentagonal ones, so one addition
sequence over both sets of exponents (``_pentagonal``) sums both, 40
and 28 terms in 133 products, and every step after j's one exponential
is integer arithmetic on Gaussian fixed point.  j scales r by a power
of two, so that q, which it divides by, keeps its full relative
precision however far up the half-plane tau lies.

Each quotient has one formula and costs one complex exponential.
``_expjpi`` is mpmath's exp(pi i z) written out step by step, bit for
bit, so that its phase, cos and sin of pi Re z, can come from a table
across calls (``_cos_sin_pi``) while its modulus exp(-pi Im z) is
taken on every call.  At a form's root tau = (-b + i sqrt(n)) / (2a)
the phase of w is exp(-pi i b / (72 a)), fixed by (a, b) and the
precision: the paper's 177 table conjugates need 29 phases.  A
factor of ``ETA_QUOTIENTS`` is a pair (a, j) standing for
eta((a tau + j)/3): eta(3 tau) is (9, 0), eta(tau) is (3, 0) and
eta((tau + j)/3) is (1, j).  With w = exp(pi i tau / 36) and Q = w^24,
one identity covers them all:

    eta((a tau + j)/3) = w^a zeta_72^j S(zeta_3^j Q^a).

The three (1, j) multiply to zeta_24 eta(tau)^4 / eta(3 tau), so
F_3, F_4, F_5 are zeta_24 / F_1, zeta_24 / F_2, zeta_24 / F_0
(``reciprocal_partner``), and ``r_value`` evaluates every index as
eta(3 tau) eta((tau + j)/3) / eta(tau)^2 for one j, inverted for
F_3..F_5: one slow series, S(q') with q' = zeta_3^j Q, and the fast
one of eta(3 tau).  As q'^3 = Q^3, the slow factor forms q' from its
root w zeta_72^j, as eta forms q from r, and one addition sequence
over p and 3 p sums S(q') and S(Q^3) together (``_pentagonal`` with
scale 3, as j takes scale 2): 29 and 17 terms in 94 products.
eta(3 tau), the cheapest series, is an eta call handed r = w^9.  Each
eta value is one scaled product of its prefactor and its series; the
quotient of the eta values is one more scaled product and a division.
After the exponential no step of a quotient rounds in mpmath.
``r_vector`` is ``r_value`` for each of the six indices, bit for bit,
at six exponentials and six slow series.  The exact roots zeta_72^k and
sqrt(3)^e come from tables, per precision (``zeta72``, ``sqrt_power``)
and, as fixed-point pairs, per width (``fixed_scalar``).

A series whose larger part is below 10^-GUARD_DIGITS, as near the real
axis where |eta| falls as exp(-pi / (12 Im tau)), would keep fewer
digits than asked for, and is refused with a ValueError naming Im tau;
a quotient names the Im tau it was passed, not that of the factor's
point.  The refusal reads the sum itself: near a cusp a/c with c > 1,
off the imaginary axis, |eta| falls only as exp(-pi / (12 c^2 Im tau)),
so a bound from Im tau alone would refuse sums that keep their digits.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import mpmath
from mpmath.libmp import (
    dps_to_prec,
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpc_div_mpf,
    mpc_mul_int,
    mpf_add,
    mpf_cos_sin_pi,
    mpf_exp,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_sign,
    round_nearest,
    to_fixed,
)

GUARD_DIGITS = 10
"""Extra working digits carried by every routine."""

MAX_SERIES_TERMS = 10**5
"""The most terms an eta series may plan (``_series_plan``).  Every point
the library evaluates needs about 50 or fewer.  The addition sequence of
a series (``_addition_sequence``) makes about 3.5 powers of q per term
and holds them all, some 350,000 at this bound; a point whose Im tau is
nearer 0 is refused."""

MAX_J_IM_TAU = 10**6
"""The largest Im tau at which ``j_invariant`` evaluates.  j is returned
exactly, and |j| is about exp(2 pi Im tau), so its value holds about
9 Im tau bits: 1.1 MB at this bound, where Im tau = 10^9 would take
1 GB.  A reduced form's root has Im tau at most sqrt(|D|)/2, so every
discriminant with |D| up to 4 10^12 is inside it; a larger Im tau is
refused, and ``quadforms.reduced_forms`` refuses a larger |D| before
enumerating its forms."""


def check_integer(value, name: str) -> int:
    """The value as an int; a ValueError naming it if it is not an integer.

    Any integral type is accepted; floats, strings and bools are not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_digits(dps: int) -> int:
    """Reject a precision that is not an integer of at least one digit."""
    dps = check_integer(dps, "precision")
    if dps < 1:
        raise ValueError(f"precision must be at least 1 digit, got {dps}")
    return dps


def resolve_digits(dps: Optional[int]) -> int:
    """The requested digits, checked, or the ambient precision for None.

    Every routine with an optional ``dps`` reads it through here.
    """
    return check_digits(dps) if dps is not None else mpmath.mp.dps


def _to_tau(tau) -> mpmath.mpc:
    value = mpmath.mpmathify(tau)
    if not isinstance(value, mpmath.mpc) or mpf_sign(value._mpc_[1]) <= 0:
        raise ValueError("not in upper half-plane")
    return value


def to_gaussian(z, bits: int) -> Tuple[int, int]:
    """The Gaussian fixed-point pair (floor(Re z 2^bits), floor(Im z 2^bits))."""
    value = mpmath.mpmathify(z)
    if not mpmath.isfinite(value):
        raise ValueError(f"cannot convert {value} to fixed point")
    if isinstance(value, mpmath.mpc):
        re, im = value._mpc_
        return to_fixed(re, bits), to_fixed(im, bits)
    return to_fixed(value._mpf_, bits), 0


def from_gaussian(re: int, im: int, bits: int) -> mpmath.mpc:
    """The complex number (re + i im) / 2^bits, held exactly."""
    return mpmath.mp.make_mpc((from_man_exp(re, -bits), from_man_exp(im, -bits)))


Scaled = Tuple[int, int, int]
"""A scaled pair (zr, zi, s): the complex number (zr + i zi) 2^-(bits + s)
for the fixed-point bits in use."""


def _binary_scale(z: mpmath.mpc) -> int:
    """The s that puts the larger part of z 2^s in [1/4, 1/2), for z != 0;
    then |z 2^s| lies in [1/4, 1/sqrt(2))."""
    return -1 - max(exp + bc for _, man, exp, bc in z._mpc_ if man)


def _scaled(z: mpmath.mpc, bits: int) -> Scaled:
    """z as a scaled pair with s = ``_binary_scale(z)``, each part floored.

    The larger part is at least 2^(bits - 2), so the floors cost under
    sqrt(2) 2^(2 - bits) < 6 units of z's modulus: 6 units relative.
    The pair is exact when z is a binary fraction with at most
    bits + s fractional bits, as every value made by ``from_gaussian``
    at those bits is.
    """
    s = _binary_scale(z)
    re, im = z._mpc_
    return to_fixed(re, bits + s), to_fixed(im, bits + s), s


def zeta72(k: int) -> mpmath.mpc:
    """zeta_72^k = exp(pi*i*k/36) at the working precision, for 0 <= k < 72.

    The roots come from a table keyed by (k, working precision) and
    filled by expjpi(k/36) itself, so they are bit-identical to a fresh
    evaluation.
    """
    return _zeta72(k, mpmath.mp.prec)


@lru_cache(maxsize=72 * 8)
def _zeta72(k: int, prec: int) -> mpmath.mpc:
    if not 0 <= k < 72:
        raise ValueError(f"exponent {k} is not reduced mod 72")
    with mpmath.workprec(prec):
        return mpmath.expjpi(mpmath.mpf(k) / 36)


def _expjpi(z: mpmath.mpc, prec: int) -> mpmath.mpc:
    """exp(pi i z) at ``prec`` bits, bit for bit ``mpmath.expjpi(z)`` at
    that precision: mpmath 1.3.0's ``mpc_expjpi`` with round-to-nearest,
    step by step, its working precisions, roundings and branches kept.

    The modulus exp(-pi Im z) is taken on every call; the phase, cos and
    sin of pi Re z, comes from ``_cos_sin_pi`` when Im z is not 0.  At a form's root
    tau = (-b + i sqrt(n)) / (2a) the point tau/36 has modulus
    exp(-pi sqrt(n) / (72 a)), which moves with n, but phase
    exp(-pi i b / (72 a)), a root of unity fixed by (a, b) and the
    precision, so phases repeat across n where moduli do not.
    """
    re, im = z._mpc_
    if im == fzero:
        return mpmath.mp.make_mpc(mpf_cos_sin_pi(re, prec, round_nearest))
    _, man, exp, bc = im
    wp = prec + 10
    if man:
        wp += max(0, exp + bc)
    im = mpf_neg(mpf_mul(mpf_pi(wp), im, wp))
    if re == fzero:
        return mpmath.mp.make_mpc((mpf_exp(im, prec, round_nearest), fzero))
    ey = mpf_exp(im, prec + 10)
    c, s = _cos_sin_pi(re, prec + 10)
    return mpmath.mp.make_mpc((mpf_mul(ey, c, prec, round_nearest),
                               mpf_mul(ey, s, prec, round_nearest)))


@lru_cache(maxsize=64)
def _cos_sin_pi(x: tuple, prec: int) -> Tuple[tuple, tuple]:
    """(cos pi x, sin pi x) for the exact mpf x, as ``mpf_cos_sin_pi``
    gives them at ``prec`` bits, rounded down.

    A table across calls, like ``zeta72``, keyed by the exact x and the
    precision.  Each process has its own: when a rung is shared with
    ``classpoly``'s helper process, the caller looks up the phases of
    the forms it evaluates and the helper those of the others, and the
    helper's table lasts, like the caller's, until the interpreter
    exits (a helper forked anew starts from the caller's table at its
    fork).  The bound of 64 is chosen:
    - it holds the 29 phases of the paper's 38-row table (177 forms),
      so one pass over the table on one CPU computes each once; on two,
      the caller computes 22 in its 100 lookups and the helper 17 in its
      77, and later passes compute none in either;
    - it does not hold the 140 or more distinct phases that one pass
      over n = 10019, 100019 and 1000019 looks up in either process, so
      computing those n again finds no more phases than computing them
      once does: a benchmark that repeats its inputs sees only the
      sharing that a single run has;
    - the 38 that one Hilbert pass over the same class groups looks up
      in the caller, and the 37 in the helper, do fit, so Hilbert
      passes after the first read them from both tables (run serially
      it looks up 75, which do not).
    """
    return mpf_cos_sin_pi(x, prec)


@lru_cache(maxsize=256)
def sqrt_power(m: int, e: int, prec: int) -> mpmath.mpf:
    """sqrt(m)^e at ``prec`` bits, for integers m > 0 and e.

    Kept per (m, e, prec), like ``zeta72``: the roots of one
    discriminant's forms share sqrt(|D|), and the conjugate scalars
    share sqrt(3)^e (``fixed_scalar``).
    """
    with mpmath.workprec(prec):
        return mpmath.sqrt(m) ** e


@lru_cache(maxsize=1024)
def fixed_scalar(k: int, e: int, bits: int) -> Tuple[int, int]:
    """zeta_72^k * sqrt(3)^e as a Gaussian fixed-point pair at ``bits``,
    each part floored from a product taken 8 bits wider: off by under
    1.01 units per part.  Kept per (k, e, bits), for 0 <= k < 72."""
    with mpmath.workprec(bits + 8):
        return to_gaussian(_zeta72(k, bits + 8) * sqrt_power(3, e, bits + 8), bits)


def times_scalar(value: mpmath.mpc, k: int, e: int, digits: int) -> mpmath.mpc:
    """zeta_72^k * sqrt(3)^e * value, an exact binary fraction formed on
    a scaled pair at the bits of digits + GUARD_DIGITS.

    In units of 2^-bits relative: the value, read as a scaled pair, is
    off by under 6 units; the constant by under 1.01 units per part, so
    by 1.5 units as |zeta_72^k sqrt(3)^e| >= 1 for e >= 0; the product,
    of modulus at least 2^(bits - 2), floors once, under 6 units more.
    So the result is off by the value's own error plus under 14 units.
    """
    bits = dps_to_prec(digits + GUARD_DIGITS)
    vr, vi, s = _scaled(value, bits)
    return from_gaussian(*_mul(vr, vi, *fixed_scalar(k, e, bits), bits), bits + s)


def _mul(ar: int, ai: int, br: int, bi: int, bits: int) -> Tuple[int, int]:
    """Product of two Gaussian fixed-point numbers with the same bits.

    Three integer multiplications, not four: the imaginary part
    ar bi + ai br is (ar + ai)(br + bi) - ar br - ai bi, exactly.
    """
    rr = ar * br
    ii = ai * bi
    return (rr - ii) >> bits, ((ar + ai) * (br + bi) - rr - ii) >> bits


def _sq(ar: int, ai: int, bits: int) -> Tuple[int, int]:
    """Square of a Gaussian fixed-point number in two integer
    multiplications, (ar + ai)(ar - ai) and 2 ar ai: the same integers
    as ``_mul(ar, ai, ar, ai, bits)``, bit for bit."""
    return ((ar + ai) * (ar - ai)) >> bits, (ar * ai << 1) >> bits


def _div(ar: int, ai: int, br: int, bi: int, bits: int) -> Tuple[int, int]:
    """Quotient a / b = a conj(b) / |b|^2 of two Gaussian fixed-point
    numbers, each part floored: off by less than one unit per part."""
    rr = ar * br
    ii = ai * bi
    norm = br * br + bi * bi
    return (((rr + ii) << bits) // norm,
            (((ar + ai) * (br - bi) - rr + ii) << bits) // norm)


def _scaled_mul(a: Scaled, b: Scaled, bits: int) -> Scaled:
    """Product of two scaled pairs, taken exactly and then floored to a
    larger part in [2^(bits - 1), 2^bits): the floor costs under
    sqrt(2) 2^(1 - bits) < 3 units relative.  Each factor's larger part
    must be at least 2^(bits - 3) or so, as every scaled pair's here is,
    so that the shift is to the right."""
    ar, ai, sa = a
    br, bi, sb = b
    rr = ar * br
    ii = ai * bi
    pr, pi = rr - ii, (ar + ai) * (br + bi) - rr - ii
    drop = max(abs(pr), abs(pi)).bit_length() - bits
    return pr >> drop, pi >> drop, sa + sb + bits - drop


def _power24(ar: int, ai: int, bits: int) -> Tuple[int, int]:
    """a^24 as a^16 a^8: four squarings and one product."""
    a2r, a2i = _sq(ar, ai, bits)
    a4r, a4i = _sq(a2r, a2i, bits)
    a8r, a8i = _sq(a4r, a4i, bits)
    a16r, a16i = _sq(a8r, a8i, bits)
    return _mul(a16r, a16i, a8r, a8i, bits)


class _Refused(ValueError):
    """A series refused at a point: the message names its Im tau and the
    ``reason``, which a caller whose series run at other points than the
    one it was passed restates for its own (``r_value``)."""

    def __init__(self, im_tau, reason: str):
        named = mpmath.nstr(mpmath.mpf(im_tau), 6)
        super().__init__(f"eta at Im tau = {named} {reason}")
        self.reason = reason


def _series_plan(im_tau, digits: int) -> Tuple[float, int, int]:
    """log10 |q| at a tau with Im tau = ``im_tau`` as a machine float, the
    cutoff -(digits + GUARD_DIGITS) at which the pentagonal sum stops,
    and the fixed-point bits it runs at (those of the working precision
    of digits + GUARD_DIGITS, plus a margin).  Only the term count and
    the stopping test read the float.  An Im tau that is 0 as a float,
    or that needs more than MAX_SERIES_TERMS terms, raises ValueError
    naming ``im_tau`` as given."""
    log_qabs = -2 * math.pi * float(im_tau) / math.log(10)
    cutoff = -(digits + GUARD_DIGITS)
    # the sum takes about sqrt(2 cutoff / (3 log10 |q|)) terms; bound that
    # before forming it, which overflows as log10 |q| reaches 0
    if not log_qabs or 2 * cutoff / log_qabs > 3 * MAX_SERIES_TERMS ** 2:
        raise _Refused(im_tau, f"would need more than {MAX_SERIES_TERMS} terms: "
                               "Im tau is too close to 0")
    terms = math.isqrt(int(2 * cutoff / log_qabs) // 3 + 1) + 2
    # Each product floors once: q^a q^b, from powers off by e_a and e_b
    # units, is off by at most e_a |q|^b + e_b |q|^a + 1 units per part,
    # so along the addition sequence of ``_pentagonal`` q^e is off by at
    # most e (d + 1) units when q is off by d: O(k^2) units for the
    # exponents, under 2 k^2, of k terms, which 2 bitlen(terms) bits
    # cover.  A walk shared with S(q^scale) takes that sum's exponents
    # too; its stopping rule keeps the largest under scale times S(q)'s
    # (1.6 times from 5 terms on), 2 bits more at most.  (At |q| <= 1/4,
    # as at every point the library evaluates, the factors |q|^b keep
    # q^e within 2 + d e |q|^(e - 1) units and each sum within 4k + 2d.)
    # q = r^24 takes five products of numbers of modulus at most 1, each
    # of which at most adds the errors it is given and floors one more
    # unit per part: from r off by sqrt(2) units, r^2, r^4, r^8, r^16 are
    # off by 3, 7, 15, 31 times that and q = r^16 r^8 by
    # 47 sqrt(2) < 2^7 units, so 8 bits cover it.  r^24 also magnifies
    # the relative error of r 24-fold (of w, 216-fold for eta(3 tau)):
    # about 8 bits, well inside the guard digits
    return (log_qabs, cutoff,
            dps_to_prec(digits + GUARD_DIGITS) + 2 * terms.bit_length() + 8)


def _term_count(log_qabs: float, cutoff: int, scale: int) -> int:
    """The first k >= 1 with |q|^(scale low) < 10^cutoff, low = k(3k - 1)/2,
    where log10 |q| is ``log_qabs``: the last k the pentagonal sum of
    q^scale takes."""
    k = 1
    while scale * (k * (3 * k - 1) // 2) * log_qabs >= cutoff:
        k += 1
    return k


def _signed_exponents(terms: int, scale: int) -> Tuple[List[int], List[int]]:
    """The exponents scale k(3k - 1)/2 and scale k(3k + 1)/2 for
    k = 1, ..., terms, split by the sign (-1)^k: (plus, minus)."""
    plus: List[int] = []
    minus: List[int] = []
    for k in range(1, terms + 1):
        low = k * (3 * k - 1) // 2
        (minus if k % 2 else plus).extend((scale * low, scale * (low + k)))
    return plus, minus


_WINDOW = 16
"""How many of the first and of the last exponents made so far
``_addition_sequence`` tries as the first factor of the next power."""

MAX_CACHED_TERMS = 1000
"""The most terms of S(q) whose plan ``_pentagonal`` keeps in the cache
of ``_addition_sequence``; a larger plan is built for its one call.  The
workloads plan under 100 terms; a plan makes about 3.5 powers per term,
and only points near the real axis plan thousands."""


class _Plan(NamedTuple):
    """An addition sequence from q: power 0 is q^1, and step i makes
    power i + 1, q^exponents[i + 1], as the product of the powers at its
    two indices (a square when they are equal).  ``once`` and ``scaled``
    are each (plus, minus), the indices of the powers that the sums
    S(q) and S(q^scale) add and subtract."""

    exponents: Tuple[int, ...]
    steps: Tuple[Tuple[int, int], ...]
    once: Tuple[Tuple[int, ...], Tuple[int, ...]]
    scaled: Tuple[Tuple[int, ...], Tuple[int, ...]]


@lru_cache(maxsize=64)
def _addition_sequence(terms: int, scaled_terms: int, scale: int) -> _Plan:
    """The plan of ``_pentagonal`` for S(q) to ``terms`` values of k and
    S(q^scale) to ``scaled_terms`` (none for 0): one sequence over the
    union of the exponents p of the first sum and scale p of the second,
    after Enge, Hart and Johansson, Short addition sequences for theta
    functions (J. Integer Seq. 21, 2018).

    Each exponent t, in increasing order, is made as a + (t - a) for a
    among the ``_WINDOW`` first and ``_WINDOW`` last exponents made (the
    smallest, and the latest targets and their differences) with t - a
    made too: a search of O(1) lookups per exponent, not of every made
    pair, so the plan takes time linear in its length.  Failing that,
    t - a for the last exponent a made below t is made first, by the
    same rule, and t takes two products or more.
    """
    plus, minus = _signed_exponents(terms, 1)
    plus_scaled, minus_scaled = _signed_exponents(scaled_terms, scale)
    index = {1: 0}
    exponents = [1]
    steps = []
    for target in sorted(set(plus + minus + plus_scaled + minus_scaled) - {1}):
        window = exponents[-_WINDOW:] + exponents[:_WINDOW]
        chain = []
        t = target
        while True:
            for a in window:
                if t - a in index:
                    break
            else:
                # no a in the window has t - a made: make t - a first,
                # by the same rule, for the last exponent a made below t
                a = next(a for a in reversed(exponents) if a < t)
            chain.append((a, t))
            if t - a in index:
                break
            t -= a
        for a, t in reversed(chain):
            steps.append((index[a], index[t - a]))
            index[t] = len(exponents)
            exponents.append(t)
    signs = tuple(tuple(index[e] for e in group)
                  for group in (plus, minus, plus_scaled, minus_scaled))
    return _Plan(tuple(exponents), tuple(steps), signs[:2], signs[2:])


def _pentagonal(qr: int, qi: int, bits: int, log_qabs: float, cutoff: int,
                scale: int = 0
                ) -> Tuple[Tuple[int, int], Optional[Tuple[int, int]]]:
    """S(q) = 1 + sum_k (-1)^k (q^low + q^(low + k)), low = k(3k - 1)/2,
    the pentagonal sum with eta(tau) = q^(1/24) S(q), on Gaussian fixed
    point.  It stops after the first k with |q|^low < 10^cutoff, where
    log10 |q| is ``log_qabs``.

    Returns S(q) and, when ``scale`` is set, S(q^scale), else None.  j
    takes S(q^2) and the quotients S(q^3): S(q^scale) sums
    q^(scale low) and q^(scale low + scale k), and stops by the same rule
    at scale low.  Every power either sum takes is the product of two
    powers made before it, along one addition sequence over the
    exponents of both (``_addition_sequence``), built once per term
    counts and scale and cached when S(q) has at most
    ``MAX_CACHED_TERMS`` terms.

    Each sum is off by under 10^cutoff (``_series_plan``), absolute.  A
    sum whose larger part is below 10^-GUARD_DIGITS would keep fewer
    than -cutoff - GUARD_DIGITS digits relative, the digits asked for,
    so it raises ValueError naming the Im tau of q.
    """
    terms = _term_count(log_qabs, cutoff, 1)
    scaled_terms = _term_count(log_qabs, cutoff, scale) if scale else 0
    build = (_addition_sequence if terms <= MAX_CACHED_TERMS
             else _addition_sequence.__wrapped__)
    plan = build(terms, scaled_terms, scale)
    re, im = [qr], [qi]
    for a, b in plan.steps:
        pr, pi = (_sq(re[a], im[a], bits) if a == b
                  else _mul(re[a], im[a], re[b], im[b], bits))
        re.append(pr)
        im.append(pi)

    def total(plus, minus):
        sr = (1 << bits) + sum(re[i] for i in plus) - sum(re[i] for i in minus)
        si = sum(im[i] for i in plus) - sum(im[i] for i in minus)
        if max(abs(sr), abs(si)) < (1 << bits) // 10 ** GUARD_DIGITS:
            raise _Refused(-log_qabs * math.log(10) / (2 * math.pi), "has no "
                           f"digits left: its series is below 10^-{GUARD_DIGITS}")
        return sr, si

    return total(*plan.once), (total(*plan.scaled) if scale else None)


def _check_r(r) -> mpmath.mpc:
    """r as an mpc (a real r taken as r + 0i); a ValueError naming it
    unless 0 < |r| < 1, as every q^(1/24) with Im tau > 0 is.  The test
    is exact."""
    value = mpmath.mpmathify(r)
    if not isinstance(value, mpmath.mpc):
        value = mpmath.mp.make_mpc((value._mpf_, fzero))
    re, im = value._mpc_
    # (sign, man, exp, bc) is man 2^exp with man < 2^bc: two nonzero
    # finite parts below 1/2 put |r| in (0, 1/sqrt(2)) at once
    if re[1] and im[1] and re[2] + re[3] < 0 and im[2] + im[3] < 0:
        return value
    norm = mpf_add(mpf_mul(re, re), mpf_mul(im, im))
    if not mpf_lt(fzero, norm) or not mpf_lt(norm, fone):
        raise ValueError(f"r = q^(1/24) must have 0 < |r| < 1, got {r!r}")
    return value


def eta(tau, dps: Optional[int] = None,
        r: Optional[mpmath.mpc] = None) -> mpmath.mpc:
    """Dedekind eta, e(tau) = q^(1/24) * prod(1 - q^n) with q = exp(2*pi*i*tau).

    ``r`` is q^(1/24) = exp(pi*i*tau/12), when the caller has it
    already; otherwise eta computes it (``_expjpi``, its phase from the
    table).  Either way q = r^24 comes from fixed-point products, so
    eta makes at most one exponential.
    The result is an exact binary fraction, the same whatever the
    ambient precision; with ``r`` given, tau is read only for the term
    count.  A given ``r`` of 0 or of modulus at least 1 cannot be
    q^(1/24) for any tau in the upper half-plane, and raises ValueError.
    """
    digits = resolve_digits(dps)
    t = _to_tau(tau)
    log_qabs, cutoff, bits = _series_plan(t.imag, digits)
    if r is None:
        with mpmath.workprec(bits):
            r = _expjpi(t / 12, bits)
    else:
        r = _check_r(r)
    # r = 2^-s r_s with |r_s| in [1/4, 1) (s = 0 when |r| is near 1, as
    # |r| < 1 in the upper half-plane), so q = q_s 2^(-24 s) with
    # q_s = r_s^24, a right shift, and eta = 2^-s r_s S(q).  In units
    # u = 2^-bits: r_s is floored, off by under sqrt(2) u (6 u relative;
    # about a unit more when eta takes the exponential itself); q_s by
    # under 2^7 u (``_series_plan``) and q, shifted, by a unit more; S(q)
    # by those plus the O(k^2) units of its k terms.  The last product
    # floors once more, and |r_s| >= 1/4, |S(q)| > 1/2 at every tau met
    # here (|q| < 0.17), so eta is off by under twice S(q)'s error plus
    # 18 u, relative: a bit beyond S(q)'s, inside the guard digits
    s = max(0, _binary_scale(r))
    re, im = r._mpc_
    rr, ri = to_fixed(re, bits + s), to_fixed(im, bits + s)
    qr, qi = _power24(rr, ri, bits)
    (sr, si), _ = _pentagonal(qr >> 24 * s, qi >> 24 * s, bits, log_qabs, cutoff)
    return from_gaussian(*_mul(rr, ri, sr, si, bits), bits + s)


EtaFactor = Tuple[int, int]
"""(a, j) is eta((a tau + j)/3): (9, 0) is eta(3 tau), (3, 0) is eta(tau)
and (1, j) is eta((tau + j)/3).  With w = exp(pi i tau / 36) and
Q = w^24, every factor is w^a zeta_72^j S(zeta_3^j Q^a), S the
pentagonal sum: a is the power of w it starts at.  The identity holds
for any integer j, as eta(x + 1) = zeta_24 eta(x)."""

ETA_QUOTIENTS: Tuple[Tuple[EtaFactor, EtaFactor], ...] = (
    ((9, 0), (1, 0)),
    ((9, 0), (1, 1)),
    ((9, 0), (1, 2)),
    ((1, 0), (1, 2)),
    ((1, 0), (1, 1)),
    ((1, 2), (1, 1)),
)
"""The six level-72 eta quotients F_0, ..., F_5: F_i is the product of
the two factors in row i divided by eta(tau)^2.  The numeric
evaluation here, the exact expansions in ``qseries`` and the action in
``etarep`` all index the quotients by this table."""


def leading_exponent(index: int) -> Fraction:
    """The power of q = exp(2*pi*i*tau) that leads the q-expansion of F_index.

    The factor (a, j) starts at w^a = q^(a/72), so F_index starts at
    q^((a_1 + a_2 - 6)/72), the denominator eta(tau)^2 starting at w^6:
    +1/18 for indices 0-2 and -1/18 for 3-5.  |F_index(tau)| is then
    close to exp(-2 pi leading_exponent(index) Im tau) when Im tau is
    large.
    """
    (a1, _), (a2, _) = ETA_QUOTIENTS[index]
    return Fraction(a1 + a2 - 6, 72)


def reciprocal_partner(index: int) -> int:
    """The quotient whose two factors are the two of the four eta
    factors missing from F_index's row of ``ETA_QUOTIENTS``.

    The three eta((tau + j)/3) multiply to zeta_24 eta(tau)^4 / eta(3 tau),
    since prod_j (1 - zeta_3^(jm) Q^m) is 1 - Q^(3m), or (1 - Q^m)^3 when
    3 | m.  So F_index * F_partner = zeta_72^3.
    """
    rest = set().union(*ETA_QUOTIENTS) - set(ETA_QUOTIENTS[index])
    return next(i for i, row in enumerate(ETA_QUOTIENTS) if set(row) == rest)


_SLOW_FACTORS: Tuple[Tuple[int, bool], ...] = tuple(
    (next(j for a, j in ETA_QUOTIENTS[row] if a == 1), row != index)
    for index, row in enumerate(
        i if (9, 0) in factors else reciprocal_partner(i)
        for i, factors in enumerate(ETA_QUOTIENTS)))
"""For each index, the (j, inverted) that ``r_value`` evaluates: F_index
is eta(3 tau) eta((tau + j)/3) / eta(tau)^2 when it has the factor
(9, 0), eta(3 tau), else zeta_72^3 over its ``reciprocal_partner``,
which has it."""


def r_value(index: int, tau, dps: Optional[int] = None) -> mpmath.mpc:
    """One of the six eta quotients at tau, as an exact binary fraction.

    Each index has one formula (``_SLOW_FACTORS``): F_index is
    eta(3 tau) eta((tau + j)/3) / eta(tau)^2, or zeta_72^3 over such a
    quotient, its ``reciprocal_partner``, when F_index lacks the factor
    eta(3 tau).  Im(3 tau) is nine times Im((tau + j)/3), so eta(3 tau)
    needs a third of the terms, and one slow series is summed per point.

    One exponential w = exp(pi*i*tau/36) (``_expjpi``, its phase
    exp(-pi*i*b/(72*a)) at a form's root read from the table) feeds
    every eta factor: with Q = w^24, the factor (a, j),
    eta((a tau + j)/3), is w^a zeta_72^j S(zeta_3^j Q^a)
    (``EtaFactor``).  The slow factor (1, j) sums S(q') with
    q' = zeta_3^j Q, and as q'^3 = Q^3 its walk
    sums S(Q^3), that of eta(tau), too (``_pentagonal`` with scale 3);
    eta(3 tau), the cheapest series, is an eta call handed w^9.  Every
    step after the exponential runs on scaled pairs, so the result does
    not depend on the ambient precision.  A series refused at
    (tau + j)/3 or 3 tau is refused naming Im tau of the point passed.
    """
    digits = resolve_digits(dps)
    index = check_integer(index, "index")
    if not 0 <= index < len(ETA_QUOTIENTS):
        raise ValueError("index out of range")
    shift, inverted = _SLOW_FACTORS[index]
    t = _to_tau(tau)
    # Error, in units u = 2^-bits relative:
    # - w, for tau as given, is off by under 2^-8 (1 + pi |tau| / 36) u
    #   (the exponential and tau/36 are taken 8 bits wider), under 1 u
    #   for |tau| < 2900, and by 6 more once floored (``_scaled``): 7 u.
    # - Each scaled product adds its factors' errors and 3 u: w^3 is off
    #   by under 27 u, w^9 by 87 u, a root w zeta_72^j by 12 u (the
    #   constant's floor costs 1.5 u).
    # - A root off by d moves its prefactor by d and S(q') by about
    #   24 d |q' S'(q') / S(q')|, under 7 d at |q'| < 0.17.  The first
    #   slow root also moves S(Q^3), Q^3 = root^72, by about
    #   72 d |Q^3 S'(Q^3) / S(Q^3)| < d/2 (|Q^3| < 0.005), and w^3 moves
    #   eta(tau) by 27 u: under 2^8 u over the three eta values, the
    #   denominator counted twice.
    # - The root is a scaled pair (rr, ri, s) with s >= 0, as |w| < 1,
    #   and q' = (rr + i ri)^24 2^(-24 s) is formed as eta forms q: off
    #   by under 2^7 u + 1 absolute.  (For s > 0 the pair's modulus may
    #   reach sqrt(2) and its 24th power 2^12, with errors as many times
    #   larger; the shift by 24 s >= 24 divides them away.)
    # - S(q') and S(Q^3) come from one walk at this width, whose powers
    #   are off by the e (d + 1) units that ``_series_plan`` states for a
    #   shared walk, over the exponents of both sums.  As |S| > 1/2 at
    #   |q'| < 0.17, each sum is off by under twice its absolute error,
    #   relative, and each eta value by that plus the 3 u of its one
    #   prefactor product.  eta(3 tau) is off by its own error (see
    #   ``eta``) and its readback by at most 6 u more.
    # - The two products, the division (each part off by under a unit,
    #   with |numerator / denominator| > 2^-1.5: 4 u) and, inverted, the
    #   product with zeta_72^3 (3 u) add under 2^4 u.
    # So F is off by its series' errors plus under 2^9 u: 9 bits, inside
    # the 2 bitlen(terms) + 8 by which ``bits`` exceeds the working
    # precision and the guard digits beyond it.
    try:
        # the slow factor eta((tau + j)/3) takes the most terms, and so the
        # widest fixed point; the whole quotient runs at its width
        log_qabs, cutoff, bits = _series_plan(float(t.imag) / 3, digits)
        # tau/36 and 3 tau by the libmp calls that mpmath's operators make
        # at bits + 8; eta reads the point of eta(3 tau) only for its term
        # count
        w = _expjpi(mpmath.mp.make_mpc(
            mpc_div_mpf(t._mpc_, from_int(36), bits + 8, round_nearest)), bits + 8)
        point = mpmath.mp.make_mpc(mpc_mul_int(t._mpc_, 3, bits + 8, round_nearest))
        w1 = _scaled(w, bits)
        w3 = _scaled_mul(_scaled_mul(w1, w1, bits), w1, bits)
        root = rr, ri, s = _scaled_mul(w1, (*fixed_scalar(shift, 0, bits), 0), bits)
        qr, qi = _power24(rr, ri, bits)
        series, cubed = _pentagonal(qr >> 24 * s, qi >> 24 * s, bits,
                                    log_qabs, cutoff, scale=3)
        slow = _scaled_mul(root, (*series, 0), bits)
        d = _scaled_mul(w3, (*cubed, 0), bits)
        rr, ri, s = _scaled_mul(_scaled_mul(w3, w3, bits), w3, bits)
        fast = _scaled(eta(point, digits, r=from_gaussian(rr, ri, bits + s)), bits)
    except _Refused as refused:
        raise _Refused(t.imag, refused.reason) from None
    dr, di, ds = _scaled_mul(d, d, bits)
    nr, ni, ns = _scaled_mul(fast, slow, bits)
    if inverted:
        qr, qi = _mul(*_div(dr, di, nr, ni, bits), *fixed_scalar(3, 0, bits), bits)
        s = ds - ns
    else:
        qr, qi = _div(nr, ni, dr, di, bits)
        s = ns - ds
    return from_gaussian(qr, qi, bits + s)


def r_vector(tau, dps: Optional[int] = None) -> Tuple[mpmath.mpc, ...]:
    """All six eta quotients at tau: ``r_value`` for each index, bit for
    bit, at six exponentials and six slow series."""
    return tuple(r_value(index, tau, dps) for index in range(len(ETA_QUOTIENTS)))


def ramanujan_value(n: int, dps: Optional[int] = None) -> mpmath.mpf:
    """The class invariant t_n, a real number in (0, 1) for n > 3.

    Evaluated as sqrt(3) times the index-2 quotient at (-1 + sqrt(-n))/2,
    which agrees with the defining product in exp(-pi*sqrt(n)).  An n
    that is not a positive integer raises ValueError.
    """
    n = check_integer(n, "n")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    digits = resolve_digits(dps)
    with mpmath.workdps(digits + GUARD_DIGITS):
        tau = (mpmath.mpc(-1, 0) + mpmath.sqrt(mpmath.mpf(n)) * 1j) / 2
        value = mpmath.sqrt(3) * r_value(2, tau, digits)
        return mpmath.re(value)


def j_invariant(tau, dps: Optional[int] = None) -> mpmath.mpc:
    """Klein's j = (1 + 256 h)^3 / h with h = (eta(2 tau) / eta(tau))^24.

    With q = exp(2 pi i tau) and S the pentagonal sum, h = q X with
    X = (S(q^2) / S(q))^24, and j = 1/h + 768 + 196608 h + 16777216 h^2.
    One complex exponential, r = exp(pi i tau / 12) (``_expjpi``, its
    phase from the table), feeds it all; the rest is integer arithmetic
    on Gaussian fixed point.  An Im tau above MAX_J_IM_TAU raises
    ValueError before either runs.
    """
    digits = resolve_digits(dps)
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        im_tau = float(t.imag)
        if not im_tau <= MAX_J_IM_TAU:
            raise ValueError(f"Im tau = {mpmath.nstr(t.imag)} is too large for j: "
                             f"it is above {MAX_J_IM_TAU}")
        log_qabs, cutoff, bits = _series_plan(t.imag, digits)
        bits += 32
        # |r| = 2^-x with x = pi Im tau / (12 ln 2), so r_s = r 2^s with
        # s = floor(x) lies in (1/2, 1] and q_s = r_s^24 = q 2^(24 s) in
        # (2^-24, 1]: fixed point keeps q_s to full relative precision,
        # however small q is.  The exponential is taken at the fixed-point
        # width, and 2^(24 s) is carried as a binary exponent
        s = math.floor(math.pi * im_tau / (12 * math.log(2)))
        shift = 24 * s
        with mpmath.workprec(bits + 8):
            r = _expjpi(t / 12, bits + 8)
        qsr, qsi = _power24(*to_gaussian(r, bits + s), bits)
        once, twice = _pentagonal(qsr >> shift, qsi >> shift, bits, log_qabs,
                                  cutoff, scale=2)
        xr, xi = _power24(*_div(*twice, *once, bits), bits)
        # p = q_s X = h 2^(24 s)
        p_r, p_i = _mul(qsr, qsi, xr, xi, bits)
        inv_r, inv_i = _div(1 << bits, 0, p_r, p_i, bits)
        hr, hi = p_r >> shift, p_i >> shift
        h2r, h2i = _sq(hr, hi, bits)
        # Error, in units u = 2^-bits, for Im tau >= sqrt(3)/2 as at every
        # reduced form's root (|q| < 0.005, so S(q) and S(q^2) lie within
        # 0.01 of 1 and |X - 1| < 0.2):
        # - r, taken at bits + 8, is floored with |r_s| > 1/2: under 3u
        #   relative.  Each product floors once; the last of q_s, at a
        #   modulus down to 2^-24, costs up to 2^24.5 u relative, so q_s
        #   is off by under 2^25 u relative and q, floored once more, by
        #   under 2^25 u |q| + 2u < 2^18 u absolute.
        # - S(q) and S(q^2) are off by 2^18 u plus the O(k^2) units of
        #   their k terms (covered by _series_plan's bits), the quotient
        #   by a unit more, and X by under 27 times that plus 2^6 units:
        #   2^23 u relative.
        # - p = q_s X floors once more at a modulus down to 2^-25, so
        #   1/h = 2^(24 s) / p and h = p 2^(-24 s) are off by under
        #   2^27 u relative; 1/p, of modulus above 1/2, floors once more.
        # The terms in h and h^2 stay under 2^11 in modulus, so j is off by
        # under (|j| + 2^13) 2^27 u: the 32 bits above eta's keep j to the
        # working precision, as eta is
        return from_gaussian(
            (inv_r << shift) + (768 << bits) + 196608 * hr + (h2r << 24),
            (inv_i << shift) + 196608 * hi + (h2i << 24), bits)

"""Arbitrary-precision evaluation of eta products and class invariants.

All functions take an optional integer digit count (at least 1) and
work to that precision plus a fixed guard margin.  The Dedekind eta
function is summed with the pentagonal number theorem, so the series is
sparse: the number of terms needed grows with the square root of the
target digits.  No term is a fresh power of q: the k-th pair of
pentagonal powers q^(k(3k-1)/2), q^(k(3k+1)/2) comes from the previous
pair by multiplication.  The series runs in Gaussian fixed point: a
complex number z is the integer pair (floor(Re z 2^B), floor(Im z 2^B))
(``to_gaussian``, ``from_gaussian``), so each product is three integer
multiplications and two shifts (the imaginary part is
(ar + ai)(br + bi) - ar br - ai bi; a square takes two) instead of
mpmath's floating-point object arithmetic.  The term count is worked
out in machine floats.

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
S(q^2), whose powers are the squares of those of q, so one pass of the
pentagonal kernel (``_pentagonal``) sums both, and every step after
j's one exponential is integer arithmetic on Gaussian fixed point.  j
scales r by a power of two, so that q, which it divides by, keeps its
full relative precision however far up the half-plane tau lies.

Each evaluation point costs one complex exponential.  eta takes r from
the caller when the caller has it: the quotients compute one
w = exp(pi i tau / 36) and hand eta(3 tau) w^9, eta((tau + j)/3)
w * zeta_72^j and eta(tau) w^3, all formed on scaled pairs; the
quotient of the eta values is one more scaled product and a division.
After the exponential no step of a quotient rounds in mpmath.  The
exact roots zeta_72^k and sqrt(3)^e come from tables, per precision
(``zeta72``, ``sqrt_power``) and, as fixed-point pairs, per width
(``fixed_scalar``).

The three eta((tau + j)/3) multiply to zeta_24 eta(tau)^4 / eta(3 tau),
so F_3, F_4, F_5 are zeta_24 / F_1, zeta_24 / F_2, zeta_24 / F_0
(``reciprocal_partner``).  ``r_value`` evaluates them that way: each
quotient then sums one slow eta((tau + j)/3) series and the fast
eta(3 tau) one, instead of two slow ones.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import mpmath
from mpmath.libmp import (
    dps_to_prec,
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_sign,
    round_nearest,
    to_fixed,
)

GUARD_DIGITS = 10
"""Extra working digits carried by every routine."""

MAX_SERIES_TERMS = 10**6
"""The most terms an eta series may plan (``_series_plan``).  Every point
the library evaluates needs about 50 or fewer; a point whose Im tau is
near 0 would need millions, at microseconds each, and is refused."""


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


def _series_plan(im_tau: float, digits: int) -> Tuple[float, int, int]:
    """log10 |q| at a tau with Im tau = ``im_tau`` as a machine float, the
    cutoff -(digits + GUARD_DIGITS) at which the pentagonal sum stops,
    and the fixed-point bits it runs at (those of the working precision
    of digits + GUARD_DIGITS, plus a margin).  Only the term count and
    the stopping test read the float.  An Im tau that is 0 as a float,
    or that needs more than MAX_SERIES_TERMS terms, raises ValueError."""
    log_qabs = -2 * math.pi * im_tau / math.log(10)
    cutoff = -(digits + GUARD_DIGITS)
    # the sum takes about sqrt(2 cutoff / (3 log10 |q|)) terms; bound that
    # before forming it, which overflows as log10 |q| reaches 0
    if not log_qabs or 2 * cutoff / log_qabs > 3 * MAX_SERIES_TERMS ** 2:
        raise ValueError(f"eta at Im tau = {im_tau!r} would need more than "
                         f"{MAX_SERIES_TERMS} terms: Im tau is too close to 0")
    terms = math.isqrt(int(2 * cutoff / log_qabs) // 3 + 1) + 2
    # k terms, each off by a few units per product taken, leave the sum
    # off by O(k^2) units.  q = r^24 takes five products of numbers of
    # modulus at most 1, each of which at most adds the errors it is
    # given and floors one more unit per part: from r off by sqrt(2)
    # units, r^2, r^4, r^8, r^16 are off by 3, 7, 15, 31 times that and
    # q = r^16 r^8 by 47 sqrt(2) < 2^7 units, so 8 bits cover it.  r^24
    # also magnifies the relative error of r 24-fold (of w, 216-fold for
    # eta(3 tau)): about 8 bits, well inside the guard digits
    return (log_qabs, cutoff,
            dps_to_prec(digits + GUARD_DIGITS) + 2 * terms.bit_length() + 8)


def _pentagonal(qr: int, qi: int, bits: int, log_qabs: float, cutoff: int,
                squared: bool = False
                ) -> Tuple[Tuple[int, int], Optional[Tuple[int, int]]]:
    """S(q) = 1 + sum_k (-1)^k (q^low + q^(low + k)), low = k(3k - 1)/2,
    the pentagonal sum with eta(tau) = q^(1/24) S(q), on Gaussian fixed
    point.  It stops after the first k with |q|^low < 10^cutoff, where
    log10 |q| is ``log_qabs``.

    Returns S(q) and, when ``squared``, S(q^2) from the same pass, else
    None.  j needs both: the powers of q^2 are the squares of those of
    q, (q^2)^low = (q^low)^2 and (q^2)^k = (q^k)^2, and that sum stops
    by the same rule at 2 low.
    """
    q3r, q3i = _mul(*_sq(qr, qi, bits), qr, qi, bits)
    # low(k+1) = low(k) + 3k + 1, so q^low, q^k and q^(3k+1) step by products
    low_r, low_i, k_r, k_i = qr, qi, qr, qi
    step_r, step_i = _mul(q3r, q3i, qr, qi, bits)
    one = 1 << bits
    total_r, total_i = one, 0
    twice_r, twice_i = one, 0
    more_twice = squared
    k, low = 1, 1
    while True:
        # q^low (1 + q^k) as q^low + q^low q^k: the same integers as
        # _mul(q^low, 1 + q^k), as 2^bits divides q^low 2^bits, from two
        # short factors instead of a short and a full-width one
        prod_r, prod_i = _mul(low_r, low_i, k_r, k_i, bits)
        term_r, term_i = low_r + prod_r, low_i + prod_i
        if k % 2:
            total_r, total_i = total_r - term_r, total_i - term_i
        else:
            total_r, total_i = total_r + term_r, total_i + term_i
        if more_twice:
            l2r, l2i = _sq(low_r, low_i, bits)
            prod_r, prod_i = _mul(l2r, l2i, *_sq(k_r, k_i, bits), bits)
            if k % 2:
                twice_r, twice_i = twice_r - l2r - prod_r, twice_i - l2i - prod_i
            else:
                twice_r, twice_i = twice_r + l2r + prod_r, twice_i + l2i + prod_i
            more_twice = 2 * low * log_qabs >= cutoff
        if low * log_qabs < cutoff:
            break
        low += 3 * k + 1
        k += 1
        low_r, low_i = _mul(low_r, low_i, step_r, step_i, bits)
        k_r, k_i = _mul(k_r, k_i, qr, qi, bits)
        step_r, step_i = _mul(step_r, step_i, q3r, q3i, bits)
    return (total_r, total_i), ((twice_r, twice_i) if squared else None)


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
    already; otherwise eta computes it.  Either way q = r^24 comes
    from fixed-point products, so eta makes at most one exponential.
    The result is an exact binary fraction, the same whatever the
    ambient precision; with ``r`` given, tau is read only for the term
    count.  A given ``r`` of 0 or of modulus at least 1 cannot be
    q^(1/24) for any tau in the upper half-plane, and raises ValueError.
    """
    digits = resolve_digits(dps)
    t = _to_tau(tau)
    log_qabs, cutoff, bits = _series_plan(float(t.imag), digits)
    if r is None:
        with mpmath.workprec(bits):
            r = mpmath.expjpi(t / 12)
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
"""(3, 0) is eta(3*tau); (1, j) is eta(tau/3 + j/3)."""

ETA_QUOTIENTS: Tuple[Tuple[EtaFactor, EtaFactor], ...] = (
    ((3, 0), (1, 0)),
    ((3, 0), (1, 1)),
    ((3, 0), (1, 2)),
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

    eta(m tau + c) starts at q^(m/24), so F_index starts at the sum of
    m/24 over its two factors minus 2/24: +1/18 for indices 0-2 and
    -1/18 for 3-5.  |F_index(tau)| is then close to
    exp(-2 pi leading_exponent(index) Im tau) when Im tau is large.
    """
    return (sum(Fraction(3) if scale == 3 else Fraction(1, 3)
                for scale, _ in ETA_QUOTIENTS[index]) - 2) / 24


def reciprocal_partner(index: int) -> int:
    """The quotient whose two factors are the two of the four eta
    factors missing from F_index's row of ``ETA_QUOTIENTS``.

    The three eta((tau + j)/3) multiply to zeta_24 eta(tau)^4 / eta(3 tau),
    since prod_j (1 - zeta_3^(jm) Q^m) is 1 - Q^(3m), or (1 - Q^m)^3 when
    3 | m.  So F_index * F_partner = zeta_72^3.
    """
    rest = set().union(*ETA_QUOTIENTS) - set(ETA_QUOTIENTS[index])
    return next(i for i, row in enumerate(ETA_QUOTIENTS) if set(row) == rest)


_EVALUATED_ROWS: Tuple[Tuple[int, bool], ...] = tuple(
    (index, False) if (3, 0) in row else (reciprocal_partner(index), True)
    for index, row in enumerate(ETA_QUOTIENTS))
"""For each index, the row of ``ETA_QUOTIENTS`` that ``r_value``
evaluates and whether it inverts it: F_index itself when it has the
factor eta(3 tau), else zeta_72^3 over its ``reciprocal_partner``."""


def _factor_point(t: mpmath.mpc, factor: EtaFactor, prec: int) -> mpmath.mpc:
    """The point 3 tau or (tau + j)/3 of an eta factor, each part rounded
    to ``prec`` bits; eta reads it only for its term count."""
    scale, shift = factor
    re, im = t._mpc_
    if scale == 3:
        return mpmath.mp.make_mpc((mpf_mul_int(re, 3, prec, round_nearest),
                                   mpf_mul_int(im, 3, prec, round_nearest)))
    three = from_int(3)
    return mpmath.mp.make_mpc((
        mpf_div(mpf_add(re, from_int(shift), prec, round_nearest), three, prec,
                round_nearest),
        mpf_div(im, three, prec, round_nearest)))


def _eta_scaled(point, digits: int, root: Scaled, bits: int) -> Scaled:
    """eta at ``point`` with q^(1/24) the scaled pair ``root``, handed to
    eta exactly and read back as a scaled pair."""
    rr, ri, s = root
    return _scaled(eta(point, digits, r=from_gaussian(rr, ri, bits + s)), bits)


def _quotients(tau, digits: int,
               rows: Sequence[Tuple[int, bool]]) -> List[mpmath.mpc]:
    """For each (row, inverted) of ``rows``, the quotient of that row of
    ``ETA_QUOTIENTS`` at tau, or zeta_72^3 over it when ``inverted``, as
    an exact binary fraction.

    One exponential w = exp(pi*i*tau/36) feeds every eta factor: the
    q^(1/24) handed to eta is w^3 for eta(tau), w^9 for eta(3 tau) and
    w * zeta_72^j for eta((tau + j)/3).  Every step after it runs on
    scaled pairs, so the result does not depend on the ambient precision.
    """
    t = _to_tau(tau)
    # the slow factors eta((tau + j)/3) take the most terms, and so the
    # widest fixed point; the whole quotient runs at their width
    bits = _series_plan(float(t.imag) / 3, digits)[2]
    factors = sorted({f for row, _ in rows for f in ETA_QUOTIENTS[row]})
    with mpmath.workprec(bits + 8):
        w = mpmath.expjpi(t / 36)
    points = [_factor_point(t, factor, bits + 8) for factor in factors]
    # Error, in units u = 2^-bits relative:
    # - w, for tau as given, is off by under 2^-8 (1 + pi |tau| / 36) u
    #   (the exponential and tau/36 are taken 8 bits wider), under 1 u
    #   for |tau| < 2900, and by 6 more once floored (``_scaled``): 7 u.
    # - Each scaled product adds its factors' errors and 3 u: w^3 is off
    #   by under 27 u, w^9 by 87 u, w zeta_72^j by 12 u (the root's floor
    #   costs 1.5 u).
    # - A root off by d moves eta's prefactor by d and S(q) by about
    #   24 d |q S'(q) / S(q)|, under 7 d at |q| < 0.17: under 2^8 u over
    #   the three eta values, the denominator counted twice.  Each eta
    #   value is off by its own error besides (see ``eta``), and its
    #   readback by at most 6 u more (none when eta ran at ``bits``).
    # - The two products, the division (each part off by under a unit,
    #   with |numerator / denominator| > 2^-1.5: 4 u) and, inverted, the
    #   product with zeta_72^3 (3 u) add under 2^4 u.
    # So F is off by its eta values' errors plus under 2^9 u: 9 bits,
    # inside the 2 bitlen(terms) + 8 by which ``bits`` exceeds the
    # working precision and the guard digits beyond it.
    w1 = _scaled(w, bits)
    w3 = _scaled_mul(_scaled_mul(w1, w1, bits), w1, bits)
    values = {}
    for (scale, shift), point in zip(factors, points):
        if scale == 3:
            root = _scaled_mul(_scaled_mul(w3, w3, bits), w3, bits)
        else:
            root = _scaled_mul(w1, (*fixed_scalar(shift, 0, bits), 0), bits)
        values[scale, shift] = _eta_scaled(point, digits, root, bits)
    d = _eta_scaled(t, digits, w3, bits)
    dr, di, ds = _scaled_mul(d, d, bits)
    results = []
    for row, inverted in rows:
        nr, ni, ns = _scaled_mul(*(values[f] for f in ETA_QUOTIENTS[row]), bits)
        if inverted:
            qr, qi = _mul(*_div(dr, di, nr, ni, bits), *fixed_scalar(3, 0, bits), bits)
            s = ds - ns
        else:
            qr, qi = _div(nr, ni, dr, di, bits)
            s = ns - ds
        results.append(from_gaussian(qr, qi, bits + s))
    return results


def r_vector(tau, dps: Optional[int] = None) -> Tuple[mpmath.mpc, ...]:
    """All six eta quotients at tau, sharing the eta evaluations."""
    digits = resolve_digits(dps)
    rows = [(row, False) for row in range(len(ETA_QUOTIENTS))]
    return tuple(_quotients(tau, digits, rows))


def r_value(index: int, tau, dps: Optional[int] = None) -> mpmath.mpc:
    """One of the six eta quotients at tau, as an exact binary fraction.

    A quotient without the factor eta(3 tau) is zeta_72^3 over its
    ``reciprocal_partner``, which has it: Im(3 tau) is nine times
    Im((tau + j)/3), so eta(3 tau) needs a third of the terms, and only
    one slow eta((tau + j)/3) series is summed per point.
    """
    digits = resolve_digits(dps)
    index = check_integer(index, "index")
    if not 0 <= index < len(ETA_QUOTIENTS):
        raise ValueError("index out of range")
    return _quotients(tau, digits, [_EVALUATED_ROWS[index]])[0]


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
    One complex exponential, r = exp(pi i tau / 12), feeds it all; the
    rest is integer arithmetic on Gaussian fixed point.
    """
    digits = resolve_digits(dps)
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        im_tau = float(t.imag)
        if math.isinf(im_tau):
            raise ValueError(f"Im tau = {mpmath.nstr(t.imag)} is too large for j: "
                             "it is infinite as a float")
        log_qabs, cutoff, bits = _series_plan(im_tau, digits)
        bits += 32
        # |r| = 2^-x with x = pi Im tau / (12 ln 2), so r_s = r 2^s with
        # s = floor(x) lies in (1/2, 1] and q_s = r_s^24 = q 2^(24 s) in
        # (2^-24, 1]: fixed point keeps q_s to full relative precision,
        # however small q is.  The exponential is taken at the fixed-point
        # width, and 2^(24 s) is carried as a binary exponent
        s = math.floor(math.pi * im_tau / (12 * math.log(2)))
        shift = 24 * s
        with mpmath.workprec(bits + 8):
            r = mpmath.expjpi(t / 12)
        qsr, qsi = _power24(*to_gaussian(r, bits + s), bits)
        once, twice = _pentagonal(qsr >> shift, qsi >> shift, bits, log_qabs,
                                  cutoff, squared=True)
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

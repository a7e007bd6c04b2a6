"""Arbitrary-precision evaluation of eta, the six quotients, t_n and j.

The eta oracle is a direct truncated product computed here with plain
mpmath, independent of the library's pentagonal-number series.  The j
oracle is the Eisenstein series E4(q)^3 / eta^24 over that product,
independent of the library's eta quotient (1 + 256 h)^3 / h.
"""

import functools
import math
import random
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classinv.numeval as numeval
from classinv.numeval import (
    ETA_QUOTIENTS,
    GUARD_DIGITS,
    eta,
    from_gaussian,
    j_invariant,
    r_value,
    r_vector,
    ramanujan_value,
    to_gaussian,
    zeta72,
)
from classinv.classpoly import IntPolynomial
from classinv.cyclotomic import CycNum
from classinv.qseries import eta_series
from classinv.quadforms import QuadForm, form_root, reduced_forms

from golden_data import HILBERT_107, SMALL_TABLE, T35_PREFIX, T107_PREFIX


def _decay(tau):
    """Decimal digits gained per power of q = exp(2 pi i tau)."""
    return 2 * mpmath.pi * mpmath.im(tau) / mpmath.log(10)


def _eta_product_oracle(tau, dps, factors=None):
    """q^(1/24) * prod_{n<=factors} (1 - q^n), directly.

    By default the product stops where q^n drops below 10^-(dps + 15).
    """
    with mpmath.workdps(dps + 15):
        if factors is None:
            factors = int((dps + 15) / _decay(tau)) + 2
        q = mpmath.expjpi(2 * tau)
        acc = mpmath.expjpi(tau / 12)
        q_n = mpmath.mpc(1)
        for _ in range(factors):
            q_n *= q
            acc *= 1 - q_n
        return acc


def _sigma3(k):
    total = 0
    for d in range(1, math.isqrt(k) + 1):
        if k % d == 0:
            total += d ** 3
            e = k // d
            if e != d:
                total += e ** 3
    return total


def _j_eisenstein_oracle(tau, dps):
    """Klein's j as E4(q)^3 / eta(tau)^24, E4 = 1 + 240 sum sigma3(k) q^k.

    The terms run 30 digits past the target, since 240 * sigma3(k) <
    240 k^4 stays below 10^30 for every k < 10^6.
    """
    with mpmath.workdps(dps + 15):
        q = mpmath.expjpi(2 * tau)
        e4 = mpmath.mpc(1)
        q_k = mpmath.mpc(1)
        for k in range(1, int((dps + 45) / _decay(tau)) + 2):
            q_k *= q
            e4 += 240 * _sigma3(k) * q_k
        return e4 ** 3 / _eta_product_oracle(tau, dps) ** 24


def _widest_root(discriminant, dps):
    """Root of a reduced form with the largest a, the smallest Im tau."""
    return form_root(max(reduced_forms(discriminant), key=lambda f: f.a), dps + 15)


def test_gaussian_fixed_point_small_cases():
    assert to_gaussian(mpmath.mpf("-2.5"), 4) == (-40, 0)
    assert to_gaussian(3, 0) == (3, 0)
    assert to_gaussian(2.75 - 1.25j, 2) == (11, -5)
    # floor, not truncation: -307.2 -> -308, 716.8 -> 716
    assert to_gaussian(mpmath.mpc("-0.3", "0.7"), 10) == (-308, 716)
    assert to_gaussian(mpmath.mpc("2.7", "-1.2"), 0) == (2, -2)
    assert from_gaussian(-308, 716, 10) == mpmath.mpc(-308, 716) / 1024
    assert from_gaussian(11, -5, 0) == mpmath.mpc(11, -5)
    for bad in (mpmath.inf, mpmath.mpc(0, mpmath.nan)):
        with pytest.raises(ValueError, match="fixed point"):
            to_gaussian(bad, 10)


@pytest.mark.parametrize("bits", [1, 7, 64, 700])
def test_gaussian_fixed_point_round_trip(bits):
    # from_gaussian(to_gaussian(z)) lies within one unit 2^-bits below z
    # in each part, exactly, whatever the signs
    rng = random.Random(bits)
    with mpmath.workdps(250):
        ulp = mpmath.mpf(2) ** -bits
        for _ in range(20):
            z = mpmath.mpc(rng.uniform(-5, 5), rng.uniform(-5, 5)) * mpmath.pi
            back = from_gaussian(*to_gaussian(z, bits), bits)
            for part in (mpmath.re, mpmath.im):
                assert 0 <= part(z) - part(back) < ulp
        x = -mpmath.e
        assert 0 <= x - from_gaussian(*to_gaussian(x, bits), bits).real < ulp


def test_gaussian_fixed_point_at_tiny_moduli():
    # |q^(1/24)| reaches 10^-170 at the roots met here: with 2^-800
    # (about 10^-241) the pair keeps 70 digits of it; with 2^-500 (about
    # 10^-151) only its signs survive, as floor(+tiny) = 0, floor(-tiny) = -1
    with mpmath.workdps(250):
        z = mpmath.mpf(10) ** -170 * mpmath.expjpi(mpmath.mpf("0.7"))
        back = from_gaussian(*to_gaussian(z, 800), 800)
        assert abs(back - z) < abs(z) * mpmath.mpf(10) ** -70
        assert to_gaussian(z, 500) == (-1, 0)
        assert to_gaussian(-z, 500) == (0, -1)


def test_eta_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    with mpmath.workdps(130):
        expected = mpmath.gamma(mpmath.mpf(1) / 4) / (
            2 * mpmath.pi ** mpmath.mpf("0.75")
        )
        assert abs(eta(mpmath.mpc(0, 1), 120) - expected) < mpmath.mpf("1e-115")


def test_eta_matches_direct_product():
    with mpmath.workdps(130):
        tol = mpmath.mpf("1e-110")
        for tau in (
            mpmath.mpc(0, 1),
            mpmath.mpc("0.3", "0.9"),
            mpmath.mpc("-0.45", "1.7"),
            # the smallest Im tau an eta((tau + j)/3) factor meets:
            # a third of sqrt(3)/2
            mpmath.mpc("0.3", "0.29"),
        ):
            assert abs(eta(tau, 120) - _eta_product_oracle(tau, 120)) < tol


def test_eta_takes_a_real_r_as_the_complex_one():
    # on the imaginary axis r = exp(-pi Im tau / 12) is real
    tau = mpmath.mpc(0, 1)
    with mpmath.workdps(80):
        r = mpmath.exp(-mpmath.pi / 12)
        assert eta(tau, 60, r=r) == eta(tau, 60, r=mpmath.mpc(r, 0))
        assert eta(tau, 60, r=float(r)) == eta(tau, 60, r=mpmath.mpc(float(r), 0))


@pytest.mark.parametrize("r", [
    0, 0.0, mpmath.mpc(0, 0), 2, -1, 1j, mpmath.mpc(3, 4) / 5,
    mpmath.mpc(0.6, 0.8), mpmath.mpc(1, mpmath.mpf(2) ** -300),
    mpmath.mpc(0.1, mpmath.nan), mpmath.mpc(mpmath.inf, 0.1),
])
def test_eta_rejects_an_r_that_is_no_q_to_the_one_24th(r):
    # r = q^(1/24) has 0 < |r| < 1 for every tau in the upper half-plane;
    # r = 0 used to fail inside the fixed-point scaling and r = 2 to sum
    # a meaningless series (eta(i, 30, r=2) was about 1.39e188)
    with pytest.raises(ValueError, match=re.escape("r = q^(1/24) must have 0 < |r| < 1")):
        eta(1j, 30, r=r)


def test_eta_accepts_an_r_just_inside_the_unit_disc():
    # |r|^2 is compared with 1 exactly, not at the ambient precision
    with mpmath.workdps(400):
        r = 1 - mpmath.mpf(2) ** -300
    assert mpmath.isfinite(eta(1j, 15, r=r))
    assert eta(1j, 30, r=0.5j) == eta(1j, 30, r=mpmath.mpc(0, 0.5))
    # parts below 1/2 pass without the exact test, parts above it take it
    for r in (mpmath.mpc("0.49", "-0.49"), mpmath.mpc("0.6", "0.6"), mpmath.mpc("-0.3", "0.95")):
        assert mpmath.isfinite(eta(1j, 15, r=r))


def test_eta_where_r_is_below_one_fixed_point_unit():
    # |r| = exp(-pi 2000 / 12) is about 10^-227, far below 2^-bits at 120
    # digits: q rounds to 0, the series to 1, and eta returns r itself
    tau = mpmath.mpc(0, 2000)
    with mpmath.workdps(130):
        r = mpmath.expjpi(tau / 12)
        value = eta(tau, 120)
        assert abs(value - r) <= abs(r) * mpmath.mpf(10) ** -120
        oracle = _eta_product_oracle(tau, 120)
        assert abs(value - oracle) <= abs(oracle) * mpmath.mpf(10) ** -120


_signed = st.integers(min_value=-(1 << 300), max_value=1 << 300)


@settings(max_examples=200, deadline=None)
@given(_signed, _signed, _signed, _signed, st.integers(min_value=0, max_value=320))
def test_three_product_mul_equals_four_product_formula(ar, ai, br, bi, bits):
    expected = (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits
    assert numeval._mul(ar, ai, br, bi, bits) == expected


@settings(max_examples=200, deadline=None)
@given(_signed, _signed, st.integers(min_value=0, max_value=320))
def test_two_product_square_equals_mul(ar, ai, bits):
    assert numeval._sq(ar, ai, bits) == numeval._mul(ar, ai, ar, ai, bits)


def _stepped_walk_exponents(log_qabs, cutoff, scale):
    """The signed exponents (sign, e) that the pentagonal sums of q and
    q^scale take when k steps up until |q|^low < 10^cutoff,
    low = k(3k - 1)/2: S(q) takes q^low and q^(low + k) for every k up to
    that one, S(q^scale) the scale-th powers of both until
    |q|^(scale low) < 10^cutoff as well."""
    once, scaled = [], []
    more_scaled = True
    k, low = 1, 1
    while True:
        sign = (-1) ** k
        once += [(sign, low), (sign, low + k)]
        if more_scaled:
            scaled += [(sign, scale * low), (sign, scale * (low + k))]
            more_scaled = scale * low * log_qabs >= cutoff
        if low * log_qabs < cutoff:
            return once, scaled
        low += 3 * k + 1
        k += 1


def _signed(plan, sums):
    plus, minus = sums
    return sorted([(1, plan.exponents[i]) for i in plus]
                  + [(-1, plan.exponents[i]) for i in minus])


def _pentagonal_terms(terms, scale):
    """(sign, e) for e = scale k(3k -+ 1)/2, sign (-1)^k, k = 1..terms."""
    return sorted(((-1) ** k, scale * k * (3 * k + side) // 2)
                  for k in range(1, terms + 1) for side in (-1, 1))


def _every_plan_to_60(scale):
    return [(terms, scaled, scale)
            for terms in range(1, 61) for scaled in range(terms + 1)]


@pytest.mark.parametrize("plans", [
    _every_plan_to_60(2), [(2000, 1414, 2)], [(31000, 0, 0)], [(31000, 21920, 2)],
    _every_plan_to_60(3), [(2000, 1155, 3)], [(31000, 17898, 3)],
], ids=["to-60", "2000", "31000", "31000-squared",
        "to-60-cubed", "2000-cubed", "31000-cubed"])
def test_an_addition_sequence_makes_each_power_from_two_made_before(plans):
    for terms, scaled_terms, scale in plans:
        # a fresh plan, not the cached one, so that the large ones do not
        # stay in the cache for the rest of the session
        plan = numeval._addition_sequence.__wrapped__(terms, scaled_terms, scale)
        assert plan.exponents[0] == 1
        assert len(plan.exponents) == len(plan.steps) + 1
        for made, (a, b) in enumerate(plan.steps, start=1):
            assert a < made and b < made
            assert plan.exponents[made] == plan.exponents[a] + plan.exponents[b]
        once = _pentagonal_terms(terms, 1)
        scaled = _pentagonal_terms(scaled_terms, scale)
        assert _signed(plan, plan.once) == once
        assert _signed(plan, plan.scaled) == scaled
        assert len(plan.steps) <= 2 * len({e for _, e in once + scaled})


def test_addition_sequences_take_fewer_products_than_stepping():
    # stepping q^low, q^k and q^(3k+1) takes four products per k, and
    # three more per k for the squares; the sequences share their powers.
    # S(q) and S(q^3) of a quotient's slow factor at 960 digits would take
    # 75 and 46 products as two series, and five more for the second q^24
    plans = {(17, 0, 0): 46, (29, 0, 0): 75, (40, 28, 2): 133, (29, 17, 3): 94}
    for (terms, scaled_terms, scale), products in plans.items():
        plan = numeval._addition_sequence(terms, scaled_terms, scale)
        assert len(plan.steps) <= products < 4 * terms + 3 * scaled_terms


@pytest.mark.parametrize("log_qabs, cutoff", [
    (-0.1, -11), (-0.1, -40), (-0.79, -130), (-2.36, -130), (-7.1, -40),
    (-300.0, -20),
    # |q|^low = 10^cutoff exactly at low = 12 (k = 3), and |q|^(2 low) or
    # |q|^(3 low) too
    (-1.0, -12), (-1.0, -24), (-0.5, -6), (-1.0, -36), (-0.5, -18),
])
def test_the_kernel_sums_the_terms_of_its_stopping_rule(log_qabs, cutoff):
    # at q = 3 and 0 fractional bits every product is exact, so the sums
    # are the integers 1 + sum of the signed 3^e, whose balanced-ternary
    # digits are the signed exponents themselves
    for scale in (2, 3):
        once, scaled = _stepped_walk_exponents(log_qabs, cutoff, scale)
        expect_once = 1 + sum(sign * 3 ** e for sign, e in once)
        expect_scaled = 1 + sum(sign * 3 ** e for sign, e in scaled)
        assert numeval._pentagonal(3, 0, 0, log_qabs, cutoff, scale=scale) == (
            (expect_once, 0), (expect_scaled, 0))
    assert numeval._pentagonal(3, 0, 0, log_qabs, cutoff) == ((expect_once, 0), None)


def test_only_small_plans_are_cached():
    # a plan of more than MAX_CACHED_TERMS terms, which only points near
    # the real axis need, is built for its one call: at log10 |q| = -1e-5
    # and 40 digits S(q) takes some 1,600 terms
    cache = numeval._addition_sequence.cache_info
    size = cache().currsize
    bits = 200
    assert numeval._term_count(-1e-5, -40, 1) > numeval.MAX_CACHED_TERMS
    assert numeval._pentagonal(0, 0, bits, -1e-5, -40) == ((1 << bits, 0), None)
    assert cache().currsize == size
    # a small one is kept: the second call finds it
    numeval._pentagonal(0, 0, bits, -0.79, -130, scale=3)
    hits = cache().hits
    numeval._pentagonal(0, 0, bits, -0.79, -130, scale=3)
    assert cache().hits == hits + 1


@pytest.mark.parametrize("digits", [120, 500, 2000])
def test_kernel_sums_and_j_match_the_oracles(digits):
    # S(q) = eta(tau) / q^(1/24) and S(q^2) = eta(2 tau) / q^(1/12) from
    # the direct products, and j from the Eisenstein series, near the
    # smallest Im tau of a reduced form's root and further up
    with mpmath.workdps(digits + 15):
        tol = mpmath.mpf(10) ** -(digits - 5)
        for tau in (mpmath.mpc("-0.45", "0.87"), mpmath.mpc("0.3", "1.7")):
            log_qabs, cutoff, bits = numeval._series_plan(float(tau.imag), digits)
            q = to_gaussian(mpmath.expjpi(2 * tau), bits)
            once, twice = numeval._pentagonal(*q, bits, log_qabs, cutoff, scale=2)
            s_q = _eta_product_oracle(tau, digits) / mpmath.expjpi(tau / 12)
            s_q2 = _eta_product_oracle(2 * tau, digits) / mpmath.expjpi(tau / 6)
            assert abs(from_gaussian(*once, bits) - s_q) < tol
            assert abs(from_gaussian(*twice, bits) - s_q2) < tol
            expected = _j_eisenstein_oracle(tau, digits)
            assert abs(j_invariant(tau, digits) - expected) < tol * abs(expected)


@pytest.mark.parametrize("digits", [500, 2000])
@pytest.mark.parametrize("discriminant", [-30011, -1000019])
def test_eta_matches_direct_product_at_high_precision(discriminant, digits):
    # the widest reduced forms give the smallest Im tau among the roots,
    # and r_value evaluates eta at a third of those
    with mpmath.workdps(digits + 15):
        tol = mpmath.mpf(10) ** -(digits - 5)
        root = _widest_root(discriminant, digits)
        for tau in (root, (root + 1) / 3):
            assert abs(eta(tau, digits) - _eta_product_oracle(tau, digits)) < tol


def _quotient_oracle(index, tau, dps):
    """F_index at tau from direct eta products: eta((a tau + j)/3) per
    factor (a, j) of ETA_QUOTIENTS, over eta(tau)^2."""
    with mpmath.workdps(dps + 15):
        numerator = mpmath.mpc(1)
        for a, j in ETA_QUOTIENTS[index]:
            numerator *= _eta_product_oracle((a * tau + j) / 3, dps)
        return numerator / _eta_product_oracle(tau, dps) ** 2


def test_quotients_match_direct_products_at_high_precision():
    # one exponential w = exp(pi i tau / 36) feeds every factor: eta(3 tau)
    # takes q = w^216, so an error in w is magnified most at the smallest
    # Im tau, the widest root and a third of it
    digits = 500
    with mpmath.workdps(digits + 15):
        tol = mpmath.mpf(10) ** -(digits - 5)
        root = _widest_root(-1000019, digits)
        for tau in (root, (root + 1) / 3):
            for index in range(len(ETA_QUOTIENTS)):
                expected = _quotient_oracle(index, tau, digits)
                assert abs(r_value(index, tau, digits) - expected) < tol, index


def _extreme_roots(discriminant, dps):
    """The roots of the a = 1 form and of a widest reduced form."""
    forms = reduced_forms(discriminant)
    return [form_root(forms[0], dps), form_root(max(forms, key=lambda f: f.a), dps)]


@pytest.mark.parametrize("digits", [120, 240])
def test_quotients_match_direct_products_at_the_extreme_forms(digits):
    # at the a = 1 form of n = 1000019, Im tau is about 500: w^9 is about
    # 10^-171, F_0..F_2 about 10^-76 and F_3..F_5 about 10^76, so each is
    # checked to the requested digits relative to its own size
    with mpmath.workdps(digits + 15):
        tol = mpmath.mpf(10) ** -(digits - 5)
        top, widest = _extreme_roots(-1000019, digits + 15)
        assert -172 < mpmath.log10(abs(mpmath.expjpi(top / 4))) < -170
        for tau in (top, widest):
            for index in range(len(ETA_QUOTIENTS)):
                expected = _quotient_oracle(index, tau, digits)
                error = abs(r_value(index, tau, digits) - expected)
                assert error < tol * abs(expected), (index, tau.real)
        assert abs(r_value(0, top, digits)) < mpmath.mpf(10) ** -75
        assert abs(r_value(3, top, digits)) > mpmath.mpf(10) ** 75


def test_evaluation_is_independent_of_the_ambient_precision():
    # eta, with or without r, the six quotients and r_vector return the
    # same bits whatever the ambient precision around them
    points = _extreme_roots(-10019, 80) + [mpmath.mpc("0.3", "0.29")]
    with mpmath.workdps(80):
        roots = [mpmath.expjpi(tau / 12) for tau in points]

    def evaluate():
        out = []
        for tau, r in zip(points, roots):
            out += [eta(tau, 60), eta(tau, 60, r=r), *r_vector(tau, 60)]
            out += [r_value(index, tau, 60) for index in range(6)]
        return [value._mpc_ for value in out]

    with mpmath.workdps(15):
        low = evaluate()
    with mpmath.workdps(400):
        high = evaluate()
    assert low == high


def test_r_vector_is_r_value_for_each_index():
    # one formula per index: r_vector returns r_value's bits, at a CM
    # root of -107, the widest root of -10019 and a generic point
    points = [form_root(reduced_forms(-107)[1], 135), _widest_root(-10019, 120),
              mpmath.mpc("0.3", "0.9")]
    for tau in points:
        for digits in (30, 120):
            vector = [value._mpc_ for value in r_vector(tau, digits)]
            assert vector == [r_value(index, tau, digits)._mpc_ for index in range(6)]


def test_one_complex_exponential_per_point(monkeypatch):
    tau = mpmath.mpc("0.3", "0.9")
    evaluations = [(functools.partial(r_value, index, tau, 60), 1) for index in range(6)]
    # r_vector is r_value for each of the six indices
    evaluations += [(lambda: j_invariant(tau, 60), 1), (lambda: r_vector(tau, 60), 6)]
    for evaluate, _ in evaluations:
        # fills the zeta_72 table, whose roots mpmath.expjpi computes once
        evaluate()
    exponentials_taken, mpmath_calls = [], []
    expjpi, mpmath_expjpi = numeval._expjpi, mpmath.expjpi

    def spy(z, prec):
        exponentials_taken.append(z)
        return expjpi(z, prec)

    monkeypatch.setattr(numeval, "_expjpi", spy)
    monkeypatch.setattr(mpmath, "expjpi", lambda x: mpmath_calls.append(x) or mpmath_expjpi(x))
    for evaluate, exponentials in evaluations:
        exponentials_taken.clear()
        evaluate()
        assert len(exponentials_taken) == exponentials
    assert mpmath_calls == []


def test_expjpi_table_is_bit_identical_to_expjpi():
    # every branch of mpmath's mpc_expjpi: Im z = 0, Re z = 0, both
    # nonzero, Re z < 0, and |Im z| > 1, where it widens its working
    # precision; with both parts nonzero, the second call reads the
    # phase from the table
    for prec in (53, 470, 870, 3060):
        with mpmath.workprec(prec):
            third, seventh = mpmath.mpf(1) / 3, mpmath.mpf(1) / 7
            points = [mpmath.mpc(third, 0), mpmath.mpc(0, seventh), mpmath.mpc(0, 0),
                      mpmath.mpc(third, seventh), mpmath.mpc(-seventh, third),
                      mpmath.mpc(-third, 17 * seventh), mpmath.mpc(seventh, -13 * third),
                      mpmath.mpc(-seventh, 10**6 * third)]
            for z in points:
                expected = mpmath.expjpi(z)._mpc_
                for _ in range(2):
                    before = numeval._cos_sin_pi.cache_info()
                    assert numeval._expjpi(z, prec)._mpc_ == expected, (prec, z)
                    hits = numeval._cos_sin_pi.cache_info().hits - before.hits
                assert hits == (z.real != 0 and z.imag != 0), (prec, z)


def test_zeta72_table_is_bit_identical_to_expjpi():
    for dps in (15, 130, 250):
        with mpmath.workdps(dps):
            for k in range(72):
                root = zeta72(k)
                assert root == mpmath.expjpi(mpmath.mpf(k) / 36)
                assert zeta72(k) is root
    for k in (-1, 72):
        with pytest.raises(ValueError, match="not reduced mod 72"):
            zeta72(k)


def test_eta_functional_equations():
    rng = random.Random(117)
    with mpmath.workdps(130):
        tol = mpmath.mpf("1e-100")
        factor = mpmath.expjpi(mpmath.mpf(1) / 12)
        for _ in range(20):
            tau = mpmath.mpc(rng.uniform(-0.45, 0.45), rng.uniform(0.6, 2.2))
            left = eta(tau + 1, 120)
            assert abs(left - factor * eta(tau, 120)) < tol
            left = eta(-1 / tau, 120)
            root = mpmath.sqrt(-mpmath.mpc(0, 1) * tau)
            assert abs(left - root * eta(tau, 120)) < tol


def test_eta_rejects_lower_half_plane():
    for tau in (mpmath.mpc(0, -1), mpmath.mpc(2, 0), 0.5, mpmath.mpc(0, mpmath.nan)):
        with pytest.raises(ValueError, match="not in upper half-plane"):
            eta(tau)


@pytest.mark.parametrize("imag, named", [("1e-30", "1.0e-30"), ("1e-400", "1.0e-400")],
                         ids=["1e-30", "1e-400"])
@pytest.mark.parametrize("evaluate", [eta, j_invariant, functools.partial(r_value, 2)],
                         ids=["eta", "j_invariant", "r_value"])
def test_a_point_too_close_to_the_real_axis_is_refused(monkeypatch, evaluate,
                                                        imag, named):
    # at Im tau = 1e-30 the series would plan some 10^15 terms; 1e-400 is
    # 0 as a float.  Either is refused before any series is summed, and
    # the refusal names the Im tau passed as the mpf it is, not as the
    # float the plan reads (0.0 for 1e-400), nor, for r_value, that of its
    # slow factor's point (tau + j)/3
    def no_series(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(numeval, "_pentagonal", no_series)
    refusal = rf"eta at Im tau = {re.escape(named)} would need .* too close to 0"
    with pytest.raises(ValueError, match=refusal):
        evaluate(mpmath.mpc(0, mpmath.mpf(imag)), 20)


@pytest.mark.parametrize("evaluate, imag, shown", [
    (eta, "1e-8", ".*"), (j_invariant, "1e-3", ".*"),
    (functools.partial(r_value, 2), "1e-3", r"0\.001"),
], ids=["eta", "j_invariant", "r_value"])
def test_a_series_with_no_digits_left_is_refused(evaluate, imag, shown):
    # |eta(i y)| = |eta(i / y)| / sqrt(y) is about exp(-pi / (12 y)): near
    # 10^(-10^7) at y = 1e-8, far below the 10^-40 that fixed point at
    # 30 + GUARD_DIGITS digits can hold.  A series below 10^-GUARD_DIGITS
    # keeps fewer digits than asked for, and is refused; r_value names
    # the Im tau passed, not a third of it
    with pytest.raises(ValueError, match=rf"eta at Im tau = {shown} has no digits left"):
        evaluate(mpmath.mpc(0, mpmath.mpf(imag)), 30)


@pytest.mark.parametrize("tau, factor", [
    (mpmath.mpc(mpmath.mpf(1) / 3, "0.002"), "0.006"), (mpmath.mpc(0, "0.001"), None),
], ids=["eta-3-tau", "slow-walk"])
def test_every_quotient_refusal_names_the_point_passed(tau, factor):
    # near 1/3, 3 tau lies near the cusp 1, where eta(3 tau) has no digits
    # left while (tau + j)/3, near (1 + 3 j)/9, and tau keep theirs; on the
    # imaginary axis the slow walk refuses first.  Either way r_value and
    # r_vector name the Im tau passed, 0.002 or 0.001
    if factor:
        with pytest.raises(ValueError, match=rf"Im tau = {factor} has no digits left"):
            eta(3 * tau, 30)
    shown = re.escape(mpmath.nstr(tau.imag, 6))
    for evaluate in [functools.partial(r_value, index) for index in range(6)] + [r_vector]:
        with pytest.raises(ValueError, match=rf"eta at Im tau = {shown} has no digits left"):
            evaluate(tau, 30)


def test_eta_accepts_a_small_series_off_the_imaginary_axis():
    # at 0.5 + 0.005 i the series S = eta / q^(1/24) is about 2e-5, far
    # above the exp(-pi / (12 Im tau)), about 1e-23, of the imaginary axis
    # at that height: tau lies near the cusp 1/2, not 0.  The refusal reads
    # the sum, not a bound from Im tau alone, and accepts it, to the digits
    # asked for
    tau = mpmath.mpc("0.5", "0.005")
    with mpmath.workdps(60):
        value = eta(tau, 30)
        expected = mpmath.eta(tau)
        series = abs(value / mpmath.expjpi(tau / 12))
        assert 1e-6 < series < 1e-4
        assert mpmath.exp(-mpmath.pi / (12 * tau.imag)) < 1e-22
        assert abs(value - expected) < abs(expected) * mpmath.mpf(10) ** -30


def test_j_refuses_an_im_tau_that_is_infinite_as_a_float():
    # refused by the same bound as a large finite Im tau
    with pytest.raises(ValueError, match="too large for j"):
        j_invariant(mpmath.mpc(0, mpmath.mpf("1e400")), 20)


def test_j_refuses_an_im_tau_whose_value_would_not_fit(monkeypatch):
    # j's exact value holds about 9 Im tau bits: some 1 GB at Im tau = 10^9.
    # It is refused before the exponential or the series runs
    def refused(*args, **kwargs):
        raise AssertionError("j went on past its bound")

    monkeypatch.setattr(numeval, "_pentagonal", refused)
    monkeypatch.setattr(mpmath, "expjpi", refused)
    with pytest.raises(ValueError, match=r"Im tau = 1\.0e\+9 is too large for j"):
        j_invariant(mpmath.mpc(0, 10**9), 20)
    monkeypatch.undo()
    # at the bound itself j is evaluated: |j| is about exp(2 pi Im tau)
    with mpmath.workdps(30):
        value = j_invariant(mpmath.mpc(0, numeval.MAX_J_IM_TAU), 20)
        expected = 2 * mpmath.pi * numeval.MAX_J_IM_TAU / mpmath.log(10)
        assert abs(mpmath.log10(abs(value)) - expected) < 1


def test_quotients_are_finite_nonzero_and_periodic():
    with mpmath.workdps(130):
        tau = mpmath.mpc(0, 2)
        values = r_vector(tau, 120)
        assert len(values) == 6
        for v in values:
            assert mpmath.isfinite(v)
            assert abs(v) > 0
        tol = mpmath.mpf("1e-100")
        for index in range(6):
            assert abs(r_value(index, tau + 72, 120) - values[index]) < tol
    with pytest.raises(ValueError, match="index out of range"):
        r_value(6, mpmath.mpc(0, 2))


@pytest.mark.parametrize("index", [1.0, True, "1"])
def test_r_value_rejects_an_index_that_is_not_an_integer(index):
    with pytest.raises(ValueError, match=re.escape(f"index must be an integer, got {index!r}")):
        r_value(index, mpmath.mpc(0, 2), 30)


def test_invariant_anchors():
    with mpmath.workdps(130):
        assert abs(ramanujan_value(11, 120) - 1) < mpmath.mpf("1e-110")
        golden_ratio_conjugate = (mpmath.sqrt(5) - 1) / 2
        assert abs(ramanujan_value(35, 120) - golden_ratio_conjugate) < mpmath.mpf("1e-110")
        assert mpmath.nstr(ramanujan_value(35, 120), 50).startswith(T35_PREFIX[:40])


def test_invariant_107_is_root_of_its_polynomial():
    with mpmath.workdps(130):
        value = ramanujan_value(107, 120)
        assert mpmath.nstr(value, 12).startswith(T107_PREFIX)
        poly = IntPolynomial.from_descending(SMALL_TABLE[107])
        assert abs(poly.evaluate(value)) < mpmath.mpf("1e-105")
        # cross-check against mpmath's own root finder
        roots = mpmath.polyroots([mpmath.mpf(c) for c in SMALL_TABLE[107]])
        real_roots = [r for r in roots if abs(mpmath.im(r)) < 1e-10]
        assert len(real_roots) == 1
        assert abs(value - mpmath.re(real_roots[0])) < mpmath.mpf("1e-100")


def test_invariants_are_real_and_in_unit_interval():
    with mpmath.workdps(130):
        tol = mpmath.mpf("1e-100")
        for n in (11, 59, 107, 131, 203):
            tau = (-1 + mpmath.sqrt(mpmath.mpf(n)) * 1j) / 2
            complex_value = mpmath.sqrt(3) * r_value(2, tau, 120)
            assert abs(mpmath.im(complex_value)) < tol
            value = ramanujan_value(n, 120)
            assert 0 < value <= 1 + tol


def test_invariant_rejects_bad_input():
    with pytest.raises(ValueError, match="n must be positive"):
        ramanujan_value(-11)


def test_j_invariant_anchors():
    with mpmath.workdps(130):
        tol = mpmath.mpf("1e-95")
        assert abs(j_invariant(mpmath.mpc(0, 1), 120) - 1728) < tol
        corner = (-1 + mpmath.sqrt(3) * 1j) / 2
        assert abs(j_invariant(corner, 120)) < tol
        # j((1 + i sqrt(163))/2) is famously within 1e-12 of an integer
        almost = j_invariant((-1 + mpmath.sqrt(163) * 1j) / 2, 120)
        assert abs(almost - (-640320**3)) < mpmath.mpf("1e-80")


@pytest.mark.parametrize("digits", [120, 900])
@pytest.mark.parametrize("discriminant", [-107, -10019])
def test_j_matches_eisenstein_series(discriminant, digits):
    with mpmath.workdps(digits + 15):
        tol = mpmath.mpf(10) ** -(digits - 5)
        for form in reduced_forms(discriminant):
            tau = form_root(form, digits + 15)
            expected = _j_eisenstein_oracle(tau, digits)
            error = abs(j_invariant(tau, digits) - expected)
            assert error < tol * max(1, abs(expected))


def test_j_keeps_its_digits_far_up_the_half_plane():
    # |j| is about 1/|q| = exp(600 pi), some 10^819, at Im tau = 300:
    # q = exp(-600 pi) is below 2^-2700, so only its scaled copy
    # q 2^(24 s) carries it, and 2^(24 s) must come back exactly
    digits = 120
    with mpmath.workdps(digits + 15):
        tol = mpmath.mpf(10) ** -(digits - 5)
        for tau in (mpmath.mpc(0, 300), mpmath.mpc("0.3", 300)):
            expected = _j_eisenstein_oracle(tau, digits)
            assert 818 < mpmath.log10(abs(expected)) < 820
            assert abs(j_invariant(tau, digits) - expected) < tol * abs(expected)


def test_j_trace_matches_hilbert_coefficient():
    # sum of j over the three class representatives of disc -107
    with mpmath.workdps(140):
        total = mpmath.mpc(0)
        for form in reduced_forms(-107):
            total += j_invariant(form_root(form, 130), 130)
        assert abs(total - (-HILBERT_107[1])) < mpmath.mpf("1e-70")


@pytest.mark.parametrize("dps", [0, -20])
@pytest.mark.parametrize("evaluate", [
    lambda dps: eta(mpmath.mpc(0, 1), dps),
    lambda dps: r_value(2, mpmath.mpc(0, 1), dps),
    lambda dps: r_vector(mpmath.mpc(0, 1), dps),
    lambda dps: ramanujan_value(107, dps),
    lambda dps: j_invariant(mpmath.mpc(0, 1), dps),
    lambda dps: form_root(QuadForm(1, 1, 3), dps),
    lambda dps: CycNum.zeta_pow(1).embed(dps),
    lambda dps: eta_series(3, 0, 10).eval_numeric(mpmath.mpc(0, 1), dps),
], ids=["eta", "r_value", "r_vector", "ramanujan_value", "j_invariant",
        "form_root", "embed", "eval_numeric"])
def test_non_positive_precision_rejected(evaluate, dps):
    with pytest.raises(ValueError,
                       match=f"precision must be at least 1 digit, got {dps}"):
        evaluate(dps)


def test_eta_runs_at_the_requested_digits(monkeypatch):
    # the callers' guard digits are not added a second time inside eta
    seen = []

    def spy(tau, dps=None, r=None):
        seen.append(dps)
        return eta(tau, dps, r=r)

    monkeypatch.setattr(numeval, "eta", spy)
    tau = mpmath.mpc(0, 1)
    for evaluate in (lambda: r_value(2, tau, 60), lambda: r_vector(tau, 60),
                     lambda: ramanujan_value(107, 60)):
        seen.clear()
        evaluate()
        assert seen and set(seen) == {60}


def test_a_quotient_sums_eta_tau_in_its_slow_walk(monkeypatch):
    # eta(tau) = w^3 S(Q^3) is summed once per quotient, along its slow
    # factor's walk (scale 3); eta is called only for eta(3 tau).
    # r_vector is r_value for each of the six indices.  The slow factor
    # (1, j) and inversion per index: F_0..F_2 hold eta(3 tau), (9, 0),
    # and F_3..F_5 are zeta_72^3 over F_1, F_2, F_0
    assert numeval._SLOW_FACTORS == ((0, False), (1, False), (2, False),
                                     (1, True), (2, True), (0, True))
    points, scales = [], []
    pentagonal = numeval._pentagonal

    def eta_spy(tau, dps=None, r=None):
        points.append(tau)
        return eta(tau, dps, r=r)

    def pentagonal_spy(*args, scale=0):
        scales.append(scale)
        return pentagonal(*args, scale=scale)

    monkeypatch.setattr(numeval, "eta", eta_spy)
    monkeypatch.setattr(numeval, "_pentagonal", pentagonal_spy)
    tau = mpmath.mpc("0.3", "0.9")
    evaluations = [functools.partial(r_value, index, tau, 60) for index in range(6)]
    for evaluate, count in [*((e, 1) for e in evaluations),
                            (lambda: r_vector(tau, 60), 6)]:
        points.clear()
        scales.clear()
        evaluate()
        assert len(points) == count
        assert all(abs(point - 3 * tau) < 1e-14 for point in points)
        assert sorted(scales) == [0] * count + [3] * count


def test_j_sums_to_the_requested_digits(monkeypatch):
    # j sums S(q) and S(q^2) in one pass of the pentagonal kernel, not
    # through eta, and to 60 + GUARD_DIGITS digits, not 70 + GUARD_DIGITS
    cutoffs = []
    pentagonal = numeval._pentagonal

    def spy(qr, qi, bits, log_qabs, cutoff, scale=0):
        cutoffs.append((cutoff, scale))
        return pentagonal(qr, qi, bits, log_qabs, cutoff, scale)

    def no_eta(*args, **kwargs):
        raise AssertionError("j called eta")

    monkeypatch.setattr(numeval, "_pentagonal", spy)
    monkeypatch.setattr(numeval, "eta", no_eta)
    j_invariant(mpmath.mpc(0, 1), 60)
    assert cutoffs == [(-(60 + GUARD_DIGITS), 2)]


def test_default_precision_comes_from_context():
    with mpmath.workdps(40):
        value = ramanujan_value(35, None)
        golden_ratio_conjugate = (mpmath.sqrt(5) - 1) / 2
        assert abs(value - golden_ratio_conjugate) < mpmath.mpf("1e-38")

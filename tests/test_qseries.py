"""Exact truncated expansions in u = exp(2*pi*i*tau/72).

These series are the independent witness for the substitution matrices:
identities checked here hold coefficient by coefficient in the
cyclotomic field, with no numerics involved.
"""

from fractions import Fraction

import mpmath
import pytest

from classinv.cyclotomic import GALOIS_EXPONENTS, CycNum
from classinv.etarep import rep_sigma, rep_t
from classinv.numeval import (
    ETA_QUOTIENTS,
    eta,
    leading_exponent,
    r_value,
    reciprocal_partner,
)
from classinv.qseries import (
    QSeries,
    eta_series,
    euler_product,
    r_series,
)

BOUND = 150


def _combination(matrix_row, bound):
    """Linear combination of the six quotient series with CycNum weights."""
    total = None
    for j, weight in enumerate(matrix_row):
        if not weight:
            continue
        term = r_series(j, bound).scale(weight)
        total = term if total is None else total + term
    return total


def test_euler_product_pentagonal_numbers():
    series = euler_product(1, 0, 60)
    one = CycNum.one()
    # prod(1 - u^n) = 1 - u - u^2 + u^5 + u^7 - u^12 - u^15 + u^22 + u^26 ...
    expected = {0: one, 1: -one, 2: -one, 5: one, 7: one, 12: -one,
                15: -one, 22: one, 26: one, 35: -one, 40: -one, 51: one,
                57: one}
    for e in range(60):
        assert series.coefficient(e) == expected.get(e, CycNum.zero())


def test_eta_series_leading_terms():
    series = eta_series(3, 0, 400)
    one = CycNum.one()
    # q^(1/24) = u^3 times the pentagonal series in q = u^72
    expected = {3: one, 75: -one, 147: -one, 363: one}
    for e in range(400):
        assert series.coefficient(e) == expected.get(e, CycNum.zero())


def test_eta_shift_series_leading_terms():
    zeta = CycNum.zeta_pow
    for j in range(3):
        series = eta_series(1, j, 60)
        # eta(tau/3 + j/3) = z^j u (1 - z^(24j) u^24 - z^(48j) u^48 + ...)
        assert series.coefficient(1) == zeta(j)
        assert series.coefficient(25) == -zeta(j) * zeta(24 * j)
        assert series.coefficient(49) == -zeta(j) * zeta(48 * j)
    assert eta_series(9, 0, 60).coefficient(9) == CycNum.one()


def test_eta_factor_identity_holds_for_any_integer_shift():
    # the factor rule of etarep: (a, J) is z^(J - J mod 3) times (a, J mod 3)
    for a in (1, 3, 9):
        for shift in range(-6, 9):
            table = eta_series(a, shift % 3, 60)
            moved = table.scale(CycNum.zeta_pow(shift - shift % 3))
            assert eta_series(a, shift, 60) == moved, (a, shift)


def test_quotient_series_leading_terms():
    zeta = CycNum.zeta_pow
    # leading exponents 9+1-6 = 4 for indices 0..2 and 1+1-6 = -4 for 3..5
    leading = {
        0: (4, zeta(0)),
        1: (4, zeta(1)),
        2: (4, zeta(2)),
        3: (-4, zeta(2)),
        4: (-4, zeta(1)),
        5: (-4, zeta(3)),
    }
    for index, (exponent, coeff) in leading.items():
        series = r_series(index, BOUND).normalized()
        assert series.val == exponent
        assert series.coefficient(exponent) == coeff
        # the numeric size estimate reads the same exponent, in q = u^72
        assert leading_exponent(index) == Fraction(exponent, 72)


def test_reciprocal_partners_multiply_to_zeta_24():
    # the three eta((tau + j)/3) multiply to zeta_24 eta(tau)^4 / eta(3 tau),
    # so F_i F_partner(i) = z^3, the identity numeval.r_value evaluates
    # F_3..F_5 by; exact through u^BOUND
    constant = QSeries(0, (CycNum.zeta_pow(3),) + (CycNum.zero(),) * (BOUND - 1), BOUND)
    factors = set().union(*ETA_QUOTIENTS)
    for i in range(3):
        partner = reciprocal_partner(i)
        assert reciprocal_partner(partner) == i
        assert set(ETA_QUOTIENTS[i]) | set(ETA_QUOTIENTS[partner]) == factors
        product = r_series(i, BOUND + 9) * r_series(partner, BOUND + 9)
        assert product.bound >= BOUND
        assert product.agrees_with(constant)


def test_translation_matches_matrix():
    # F_i(tau + 1) = sum_j T[i][j] F_j(tau), checked to u^BOUND
    matrix = rep_t()
    for i in range(6):
        shifted = r_series(i, BOUND).twist(1)
        assert shifted.agrees_with(_combination(matrix.rows[i], BOUND))


def test_galois_twist_matches_matrix():
    # coefficientwise z -> z^d equals the sigma_d matrix action
    for d in GALOIS_EXPONENTS:
        matrix = rep_sigma(d)
        for i in range(6):
            twisted = r_series(i, BOUND).galois(d)
            assert twisted.agrees_with(_combination(matrix.rows[i], BOUND))


def test_series_arithmetic_and_normalization():
    one = CycNum.one()
    series = QSeries(0, (CycNum.zero(), one, one), 3)
    assert series.normalized().val == 1
    doubled = series + series
    assert doubled.coefficient(1) == one + one
    negated = -series
    assert negated.coefficient(2) == -one
    with pytest.raises(ValueError, match="coefficient count"):
        QSeries(0, (one,), 3)
    with pytest.raises(ValueError, match="beyond truncation bound"):
        series.coefficient(7)
    with pytest.raises(ZeroDivisionError):
        QSeries(0, (CycNum.zero(),), 1).inverse()


def test_inverse_with_an_irrational_leading_coefficient():
    # eta((tau + j)/3) leads with z^j, so for j = 1, 2 the series inverse
    # starts from a field inverse that is not a rational's
    one = QSeries(0, (CycNum.one(),) + (CycNum.zero(),) * (BOUND - 1), BOUND)
    factors = sorted(set().union(*ETA_QUOTIENTS))
    leads = []
    for a, j in factors:
        series = eta_series(a, j, BOUND)
        leads.append(series.coefficient(a))
        product = series * series.inverse()
        assert product.bound >= BOUND - a
        assert product.agrees_with(one), (a, j)
    assert any(any(lead.coeffs[1:]) for lead in leads)


def test_series_match_direct_eta_evaluation():
    # the truncation error at Im tau >= 20 is far below 1e-100; each
    # factor (a, j) on its own is eta((a tau + j)/3)
    with mpmath.workdps(130):
        for tau in (mpmath.mpc("0.3", "20"), mpmath.mpc("-0.2", "22")):
            for a, j in ((9, 0), (3, 0), (1, 0), (1, 1), (1, 2)):
                series_eta = eta_series(a, j, BOUND).eval_numeric(tau, 120)
                direct = eta((a * tau + j) / 3, 120)
                assert abs(series_eta - direct) < mpmath.mpf("1e-100"), (a, j)
            for index in (0, 2, 5):
                series_val = r_series(index, BOUND).eval_numeric(tau, 120)
                direct = r_value(index, tau, 120)
                assert abs(series_val - direct) < mpmath.mpf("1e-100")


def test_r_series_index_validated():
    with pytest.raises(ValueError, match="index out of range"):
        r_series(6, 50)

"""Exact arithmetic in the degree-24 cyclotomic field.

The minimal polynomial is re-derived here from scratch (divide x^72 - 1
by the cyclotomic factors of all proper divisors of 72) so the field
construction is checked against something the library does not contain.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from classinv.cyclotomic import (
    DEGREE,
    GALOIS_EXPONENTS,
    IMAG_UNIT,
    MINIMAL_POLY,
    ONE,
    ORDER,
    SQRT3,
    ZERO,
    ZETA3,
    CycNum,
    _GALOIS_GENERATORS,
    _POWER,
)
from classinv.etarep import monomial_entry


def _poly_divide_exact(num, den):
    """Quotient of integer polynomials known to divide exactly.

    Polynomials are ascending coefficient lists; den must be monic.
    """
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = num[k + len(den) - 1]
        for j, d in enumerate(den):
            num[k + j] -= out[k] * d
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


def _cyclotomic_poly(order):
    """Ascending coefficients of the order-th cyclotomic polynomial."""
    poly = [0] * order + [1]
    poly[0] = -1  # x^order - 1
    for d in range(1, order):
        if order % d == 0:
            poly = _poly_divide_exact(poly, _cyclotomic_poly(d))
    return poly


def test_minimal_polynomial_matches_derivation():
    derived = _cyclotomic_poly(72)
    assert len(derived) == DEGREE + 1
    assert tuple(Fraction(c) for c in derived) == MINIMAL_POLY


def test_minimal_polynomial_shape():
    # x^24 - x^12 + 1
    expected = [Fraction(0)] * 25
    expected[0] = Fraction(1)
    expected[12] = Fraction(-1)
    expected[24] = Fraction(1)
    assert MINIMAL_POLY == tuple(expected)


def test_root_of_unity_anchors():
    assert CycNum.zeta_pow(0) == ONE
    assert CycNum.zeta_pow(72) == ONE
    assert CycNum.zeta_pow(36) == CycNum.from_rational(-1)
    assert CycNum.zeta_pow(-3) == CycNum.zeta_pow(69)
    cube = CycNum.zeta_pow(24)
    assert cube != ONE
    assert cube == ZETA3
    assert cube ** 3 == ONE
    for k in range(1, ORDER):
        assert CycNum.zeta_pow(k) * CycNum.zeta_pow(ORDER - k) == ONE


def test_folding_relation():
    # z^24 - z^12 = -1 pins the quotient by the minimal polynomial
    assert CycNum.zeta_pow(24) - CycNum.zeta_pow(12) == CycNum.from_rational(-1)


def test_power_table_is_the_fraction_recurrence():
    # the table, built on ints, against z^k = z^(k-12) - z^(k-24) run on
    # Fractions; every entry is a Fraction, 0 or +-1
    expected = [tuple(Fraction(int(j == k)) for j in range(DEGREE))
                for k in range(DEGREE)]
    for k in range(DEGREE, ORDER):
        expected.append(tuple(x - y for x, y in zip(expected[k - 12], expected[k - 24])))
    assert _POWER == tuple(expected)
    assert {type(x) for row in _POWER for x in row} == {Fraction}
    assert {x for row in _POWER for x in row} == {-1, 0, 1}


def test_sqrt3_identities():
    assert SQRT3 == CycNum.zeta_pow(6) - CycNum.zeta_pow(30)
    assert SQRT3 * SQRT3 == CycNum.from_rational(3)
    assert SQRT3.inverse() == SQRT3 * Fraction(1, 3)
    assert IMAG_UNIT * IMAG_UNIT == CycNum.from_rational(-1)


def test_galois_anchors():
    assert SQRT3.galois(7) == -SQRT3
    assert SQRT3.galois(65) == -SQRT3
    assert SQRT3.galois(25) == SQRT3
    assert SQRT3.galois(49) == SQRT3
    for d in GALOIS_EXPONENTS:
        # sqrt(3) lives in Q(zeta_12): the sign depends on d mod 12
        expected = SQRT3 if d % 12 in (1, 11) else -SQRT3
        assert SQRT3.galois(d) == expected
        # i = z^18 maps to i^d
        expected_i = IMAG_UNIT if d % 4 == 1 else -IMAG_UNIT
        assert IMAG_UNIT.galois(d) == expected_i


def test_galois_rejects_non_units():
    with pytest.raises(ValueError, match="not a Galois element"):
        SQRT3.galois(6)
    with pytest.raises(ValueError, match="not a Galois element"):
        SQRT3.galois(0)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_embedding_anchors():
    with mpmath.workdps(60):
        assert mpmath.almosteq(ONE.embed(50), 1)
        root3 = mpmath.mpf("1.7320508075688772935274463415058723669428052538104")
        assert abs(SQRT3.embed(50) - root3) < mpmath.mpf("1e-48")
        assert abs(IMAG_UNIT.embed(50) - mpmath.mpc(0, 1)) < mpmath.mpf("1e-48")
        primitive = mpmath.expjpi(mpmath.mpf(2) / 72)
        assert abs(CycNum.zeta_pow(1).embed(50) - primitive) < mpmath.mpf("1e-48")


_rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=6
)
_cycnums = st.builds(
    CycNum.from_zeta_terms,
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=71), _rationals),
        max_size=5,
    ),
)
_units = st.sampled_from(GALOIS_EXPONENTS)


@given(_cycnums, _cycnums)
def test_embedding_is_a_ring_map(x, y):
    with mpmath.workdps(60):
        tol = mpmath.mpf("1e-40")
        assert abs((x + y).embed(50) - (x.embed(50) + y.embed(50))) < tol
        assert abs((x * y).embed(50) - (x.embed(50) * y.embed(50))) < tol


@given(_cycnums, _cycnums, _units)
def test_galois_is_a_ring_map(x, y, d):
    assert (x + y).galois(d) == x.galois(d) + y.galois(d)
    assert (x * y).galois(d) == x.galois(d) * y.galois(d)


@given(_cycnums, _units, _units)
def test_galois_composition(x, d1, d2):
    assert x.galois(d1).galois(d2) == x.galois((d1 * d2) % ORDER)
    assert x.galois(1) == x


@given(_units)
def test_galois_permutes_roots_of_unity(d):
    for k in (1, 5, 7, 12, 35):
        assert CycNum.zeta_pow(k).galois(d) == CycNum.zeta_pow(k * d)


@settings(max_examples=60)
@given(_cycnums)
def test_inverse_round_trip(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE
        assert x.inverse().inverse() == x


@given(_cycnums)
def test_conjugate_matches_embedding(x):
    with mpmath.workdps(60):
        tol = mpmath.mpf("1e-40")
        assert abs(x.conjugate().embed(50) - mpmath.conj(x.embed(50))) < tol


def _schoolbook_product(x, y):
    """x * y on Fractions: the full product of the two coordinate
    polynomials, reduced by long division by the derived minimal
    polynomial."""
    product = [Fraction(0)] * (2 * DEGREE - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            product[i + j] += a * b
    modulus = _cyclotomic_poly(ORDER)
    for top in range(len(product) - 1, DEGREE - 1, -1):
        lead = product[top]
        for j, c in enumerate(modulus):
            product[top - DEGREE + j] -= lead * c
    assert not any(product[DEGREE:])
    return CycNum(tuple(product[:DEGREE]))


# up to every coordinate set, the rest zero, with denominators that
# differ from coordinate to coordinate
_dense_cycnums = st.dictionaries(
    st.integers(min_value=0, max_value=DEGREE - 1),
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12),
    max_size=DEGREE,
).map(lambda coords: CycNum(tuple(coords.get(j, Fraction(0)) for j in range(DEGREE))))
# z^k sqrt(3)^e, e negative too: coordinates over powers of 3
_monomials = st.builds(monomial_entry, st.integers(min_value=-100, max_value=100),
                       st.integers(min_value=-4, max_value=4))
_operands = st.one_of(_dense_cycnums, _monomials, _cycnums)


# no shrink phase: shrinking 24-coordinate operands through the ~4 ms
# Fraction product took minutes to report a broken fold
@settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(_operands, _operands)
def test_product_is_the_schoolbook_fraction_product(x, y):
    assert x * y == _schoolbook_product(x, y)
    assert all(type(c) is Fraction for c in (x * y).coeffs)


def test_every_fold_row_is_the_schoolbook_product():
    # z^i * z^j with i + j = k reads row k of _FOLD, for every k the
    # product of two coordinates reaches, so no row is left to chance
    for k in range(2 * DEGREE - 1):
        i = min(k, DEGREE - 1)
        x, y = CycNum.zeta_pow(i), CycNum.zeta_pow(k - i)
        assert x * y == _schoolbook_product(x, y), k


def test_an_e0_scalar_is_the_shared_root_of_unity():
    # z^k * sqrt(3)^0 needs no product: it is zeta_pow(k)'s instance
    for k in range(ORDER):
        assert monomial_entry(k, 0) is CycNum.zeta_pow(k), k


def test_an_e1_scalar_is_the_schoolbook_product():
    # z^k * sqrt(3) is still one product, with Fraction coordinates
    for k in range(ORDER):
        x = monomial_entry(k, 1)
        assert x == _schoolbook_product(CycNum.zeta_pow(k), SQRT3), k
        assert all(type(c) is Fraction for c in x.coeffs), k


@pytest.mark.parametrize("n", range(1, 9))
def test_a_power_makes_one_product_per_step_it_needs(monkeypatch, n):
    # from the base, not from one: bitlen(n) - 1 squarings and
    # popcount(n) - 1 products, so x ** 1 makes none
    x = CycNum.zeta_pow(1) + SQRT3
    expected = ONE
    for _ in range(n):
        expected = expected * x
    calls = []
    original = CycNum.__mul__
    monkeypatch.setattr(CycNum, "__mul__",
                        lambda self, other: calls.append(1) or original(self, other))
    assert x ** n == expected
    assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1
    assert x ** 0 == ONE and x ** -n * expected == ONE


@settings(max_examples=30)
@given(st.one_of(_dense_cycnums, _monomials))
def test_product_with_the_inverse_is_one(x):
    if x.is_zero():
        return
    assert x * x.inverse() == ONE
    assert x.inverse() * x == ONE


def test_zeta_powers_are_shared_instances():
    # one instance per k mod 72, so its integer support is read once
    for k in range(-ORDER, 2 * ORDER):
        assert CycNum.zeta_pow(k) is CycNum.zeta_pow(k % ORDER)
        assert CycNum.zeta_pow(k).coeffs == _POWER[k % ORDER]


def test_galois_exponents_are_the_units():
    assert GALOIS_EXPONENTS == tuple(
        d for d in range(1, 72) if math.gcd(d, 72) == 1
    )
    assert len(GALOIS_EXPONENTS) == 24


def test_galois_generators_span_the_group():
    # each generator d has order m, the orders multiply to 24 and the
    # powers of the generators multiply out to every d of GALOIS_EXPONENTS
    group = {1}
    for d, m in _GALOIS_GENERATORS:
        powers = [pow(d, i, ORDER) for i in range(1, m + 1)]
        assert powers[-1] == 1 and 1 not in powers[:-1], (d, m)
        group = {g * p % ORDER for g in group for p in powers}
    assert math.prod(m for _, m in _GALOIS_GENERATORS) == DEGREE
    assert tuple(sorted(group)) == GALOIS_EXPONENTS
    # the inverses of the scalars z^k sqrt(3)^e that the records carry
    for k in range(ORDER):
        for e in range(-2, 3):
            x = monomial_entry(k, e)
            assert x.inverse() == monomial_entry(-k, -e), (k, e)
            assert x * x.inverse() == ONE, (k, e)

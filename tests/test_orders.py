"""Unit groups of quadratic orders modulo 8 and 9.

Elements are pairs (x0, x1) for x0 + x1*w with w^2 = w - C, where
C = (n + 1)/4.  The group structure is found by brute force, so the
orders and invariant factors asserted here check the whole pipeline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classinv.orders import (
    STANDARD_GENERATORS,
    _p_partition,
    generator_matrix,
    generators_for,
    is_unit,
    multiply,
    power,
    residue_norm,
    subgroup_closure,
    unit_group,
    verify_generators,
)
from classinv.sl2words import Mat2

from golden_data import UNIT_ELEMENT, UNIT_MATRIX_ENTRIES

C_VALUES = (3, 9, 15)  # C = (n + 1)/4 for n = 11, 35, 59


def test_multiplication_anchors():
    # w * w = w - C
    assert multiply((0, 1), (0, 1), 3, 9) == (6, 1)
    assert multiply((0, 1), (0, 1), 9, 8) == (7, 1)
    assert multiply((1, 0), (4, 7), 3, 9) == (4, 7)
    # (1 + w)(1 - w) = 1 - w^2 = (1 + C) - w
    assert multiply((1, 1), (1, -1), 3, 9) == (4, 8)


@settings(max_examples=60)
@given(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
)
def test_multiplication_is_commutative_and_associative(x, y, z):
    for c_param, modulus in ((3, 9), (9, 8)):
        assert multiply(x, y, c_param, modulus) == multiply(y, x, c_param, modulus)
        left = multiply(multiply(x, y, c_param, modulus), z, c_param, modulus)
        right = multiply(x, multiply(y, z, c_param, modulus), c_param, modulus)
        assert left == right


def test_norm_is_multiplicative():
    for c_param, modulus in ((3, 9), (3, 8), (15, 9), (15, 8)):
        elements = [(x0, x1) for x0 in range(modulus) for x1 in range(modulus)]
        for x in elements[:: 7]:
            for y in elements[:: 11]:
                lhs = residue_norm(
                    multiply(x, y, c_param, modulus), c_param, modulus
                )
                rhs = (
                    residue_norm(x, c_param, modulus)
                    * residue_norm(y, c_param, modulus)
                ) % modulus
                assert lhs == rhs


def test_norm_anchor():
    # N(4 + 7w) = 16 + 28 + 3*49 = 191 = 2 mod 9
    assert residue_norm(UNIT_ELEMENT, 3, 9) == 2
    assert is_unit(UNIT_ELEMENT, 3, 9)
    assert not is_unit((0, 3), 3, 9)


def test_power_matches_repeated_multiplication():
    x = (2, 5)
    acc = (1, 0)
    for k in range(8):
        assert power(x, k, 9, 8) == acc
        acc = multiply(acc, x, 9, 8)


def test_power_rejects_a_negative_or_non_integer_exponent():
    # a negative k never reached 0 under k >>= 1, so the loop did not end
    with pytest.raises(ValueError, match="exponent must be at least 0, got -1"):
        power((2, 1), -1, 3, 8)
    with pytest.raises(ValueError, match="exponent must be an integer"):
        power((2, 1), 1.5, 3, 8)
    assert power((2, 1), 0, 3, 8) == (1, 0)


def test_generator_matrix_anchors():
    assert generator_matrix(UNIT_ELEMENT, 3, 9) == Mat2(*UNIT_MATRIX_ENTRIES, 9)
    assert generator_matrix((1, 0), 3, 9) == Mat2.identity(9)
    assert generator_matrix((0, 1), 3, 9) == Mat2(1, -3, 1, 0, 9)
    assert generator_matrix((5, 0), 3, 9) == Mat2(5, 0, 0, 5, 9)


def test_generator_matrix_determinant_is_norm():
    for c_param, modulus in ((3, 9), (9, 8)):
        for x0 in range(modulus):
            for x1 in range(modulus):
                x = (x0, x1)
                if not is_unit(x, c_param, modulus):
                    continue
                m = generator_matrix(x, c_param, modulus)
                assert m.det == residue_norm(x, c_param, modulus)


def test_generator_matrix_is_multiplicative():
    for c_param, modulus in ((3, 9), (15, 8)):
        pairs = [
            ((a, b), (c, d))
            for a, b, c, d in ((4, 7, 5, 0), (0, 1, 1, 1), (2, 3, 3, 2))
        ]
        for x, y in pairs:
            if not (is_unit(x, c_param, modulus) and is_unit(y, c_param, modulus)):
                continue
            lhs = generator_matrix(multiply(x, y, c_param, modulus), c_param, modulus)
            rhs = generator_matrix(x, c_param, modulus) * generator_matrix(
                y, c_param, modulus
            )
            assert lhs == rhs


@pytest.mark.parametrize("c_param", C_VALUES)
def test_group_structure_mod9(c_param):
    group = unit_group(c_param, 9)
    assert group.order == 36
    assert group.invariant_factors == (6, 6)


@pytest.mark.parametrize("c_param", C_VALUES)
def test_group_structure_mod8(c_param):
    group = unit_group(c_param, 8)
    assert group.order == 48
    assert group.invariant_factors == (12, 2, 2)


def test_p_partition_rejects_a_set_that_is_not_a_group():
    # 1 and two involutions: three square roots of 1, not a power of 2.
    # The check must hold under python -O as well, so it cannot be an assert.
    with pytest.raises(ArithmeticError, match="not a clean power"):
        _p_partition(((1, 0), (3, 0), (7, 0)), 2, 3, 8)


def test_invariant_factors_divide():
    for c_param in C_VALUES:
        for modulus in (8, 9):
            factors = unit_group(c_param, modulus).invariant_factors
            for small, large in zip(factors[1:], factors):
                assert large % small == 0


def test_standard_generators_generate():
    for (n, modulus), gens in STANDARD_GENERATORS.items():
        group = unit_group((n + 1) // 4, modulus)
        assert verify_generators(gens, group)
        closure = subgroup_closure(gens, (n + 1) // 4, modulus)
        assert len(closure) == group.order


def test_generators_for_matches_table():
    # the unit groups mod 8 and mod 9 depend only on C = (n + 1)/4 mod 72,
    # and n = 11, 35, ..., 275 runs through its 12 classes; n takes the
    # row of 11 or 35 by n mod 48
    for n in range(11, 288, 24):
        for modulus in (8, 9):
            group = unit_group((n + 1) // 4, modulus)
            row = STANDARD_GENERATORS[(n % 48, modulus)]
            assert generators_for(n, modulus, group) == row


def test_generators_for_rejects_a_row_that_does_not_generate(monkeypatch):
    monkeypatch.setitem(STANDARD_GENERATORS, (35, 8), ((7, 0), (7, 4)))
    with pytest.raises(ArithmeticError, match="do not generate"):
        generators_for(83, 8, unit_group(21, 8))
    assert generators_for(11, 8, unit_group(3, 8)) == STANDARD_GENERATORS[(11, 8)]


def test_trivial_generators_rejected():
    group = unit_group(3, 9)
    assert not verify_generators([(1, 0)], group)
    with pytest.raises(ValueError, match="not a unit"):
        subgroup_closure([(3, 0)], 3, 9)

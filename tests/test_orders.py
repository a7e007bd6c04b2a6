"""Unit groups of quadratic orders modulo 8 and 9.

Elements are pairs (x0, x1) for x0 + x1*w with w^2 = w - C, where
C = (n + 1)/4.  The groups are enumerated by brute force, and their
structure is read from the paper's generators, whose orders multiply to
the group orders.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classinv.orders as orders
from classinv.etarep import invariance_check
from classinv.orders import (
    STANDARD_GENERATORS,
    generator_matrix,
    generators_for,
    is_unit,
    multiply,
    residue_norm,
    subgroup_closure,
    unit_group,
    verify_generators,
)
from classinv.sl2words import Mat2

from golden_data import UNIT_ELEMENT, UNIT_MATRIX_ENTRIES
from rep_helpers import basis_orders

# C = (n + 1)/4 for n = 11, 35, ..., 275: the 12 classes of C mod 72, on
# which the unit groups mod 8 and mod 9 depend
C_CLASSES = tuple((n + 1) // 4 for n in range(11, 288, 24))


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


@pytest.mark.parametrize("c_param", C_CLASSES)
def test_group_structure_mod9(c_param):
    # the paper's generators are a basis: Z/6 x Z/6
    orders, group_order = basis_orders(4 * c_param - 1, 9)
    assert orders == (6, 6) and group_order == math.prod(orders)


@pytest.mark.parametrize("c_param", C_CLASSES)
def test_group_structure_mod8(c_param):
    # the paper's generators are a basis: Z/12 x Z/2 x Z/2
    orders, group_order = basis_orders(4 * c_param - 1, 8)
    assert orders == (12, 2, 2) and group_order == math.prod(orders)


def test_standard_generators_generate(monkeypatch):
    # each row serves the classes of C = (n + 1)/4 mod m of the n = its
    # key mod 48: two mod 8, three mod 9.  In each, the proof table must
    # agree with a fresh closure, whether the row is proven there or found
    monkeypatch.setattr(orders, "_PROVEN", set())
    served = set()
    for (key, modulus), gens in STANDARD_GENERATORS.items():
        for n in range(key, key + 48 * modulus, 48):
            c_param = (n + 1) // 4
            group = unit_group(c_param, modulus)
            assert len(subgroup_closure(gens, c_param, modulus)) == group.order
            for _ in range(2):
                assert generators_for(n, modulus, group) == gens
            served.add((gens, c_param % modulus, modulus))
    assert orders._PROVEN == served and len(served) == 7


def _closure(gens, c_param, modulus):
    """The closure of the generators, None when one is not a unit."""
    if all(is_unit(g, c_param, modulus) for g in gens):
        return subgroup_closure(gens, c_param, modulus)
    return None


def test_groups_and_closures_depend_only_on_c_mod_m():
    # the class claim the proof table rests on: for every C, the group
    # and the closure of every row are those of C mod m
    rows = {(gens, modulus) for (_, modulus), gens in STANDARD_GENERATORS.items()}
    for modulus in (8, 9):
        for c_param in range(144):
            group = unit_group(c_param, modulus)
            assert group.c_param == c_param
            assert group.elements == unit_group(c_param % modulus, modulus).elements
        for gens, row_modulus in rows:
            if row_modulus == modulus:
                for c_param in range(144):
                    assert (_closure(gens, c_param, modulus)
                            == _closure(gens, c_param % modulus, modulus))


def test_a_pass_over_the_12_classes_proves_7_rows(monkeypatch):
    # C mod 8 in {1, 3, 5, 7} and C mod 9 in {0, 3, 6}; a second pass
    # finds every proof in the table
    monkeypatch.setattr(orders, "_PROVEN", set())
    proofs = []
    monkeypatch.setattr(orders, "verify_generators",
                        lambda gens, group: proofs.append(
                            (group.c_param % group.modulus, group.modulus))
                        or verify_generators(gens, group))
    for n in range(11, 288, 24):
        assert all(result.invariant for result in invariance_check(n))
    assert sorted(proofs) == [(0, 9), (1, 8), (3, 8), (3, 9), (5, 8), (6, 9), (7, 8)]
    proofs.clear()
    for n in range(11, 288, 24):
        assert all(result.invariant for result in invariance_check(n))
    assert proofs == [] and len(orders._PROVEN) == 7


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

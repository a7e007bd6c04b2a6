"""Word decomposition over Z/8 and Z/9, integer lifts, and form matrices."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classinv.quadforms import QuadForm, principal_form, reduced_forms
from classinv.sl2words import (
    Mat2,
    S_WORD_MOD8,
    S_WORD_MOD9,
    T_STRETCH_MOD8,
    T_STRETCH_MOD9,
    crt_combine,
    decompose,
    form_matrix,
    lift_word,
    mat_s,
    mat_t,
    split_det,
    word_to_matrix,
)

from golden_data import (
    UNIT_MOD9_DET,
    UNIT_MOD9_UNIMODULAR,
    UNIT_MOD9_WORD,
    UNIT_MOD72_DET,
    UNIT_MOD72_ENTRIES,
)


def _all_sl2(modulus):
    out = []
    for a in range(modulus):
        for b in range(modulus):
            for c in range(modulus):
                for d in range(modulus):
                    if (a * d - b * c) % modulus == 1:
                        out.append(Mat2(a, b, c, d, modulus))
    return out


def _random_word(rng, length, span):
    word = []
    for _ in range(length):
        if rng.random() < 0.5:
            word.append(("S", 1))
        else:
            word.append(("T", rng.randint(-span, span)))
    return tuple(word)


def test_generator_matrices():
    assert mat_s().entries() == (0, -1, 1, 0)
    assert mat_t().entries() == (1, 1, 0, 1)
    assert mat_t(5, 9) == Mat2(1, 5, 0, 1, 9)
    s = mat_s()
    assert s * s == -Mat2.identity()


def test_word_to_matrix_order():
    # leftmost token applies first: T^2 S = [[2, -1], [1, 0]]
    word = (("T", 2), ("S", 1))
    assert word_to_matrix(word).entries() == (2, -1, 1, 0)
    assert word_to_matrix((), 9) == Mat2.identity(9)


def test_word_tokens_validated():
    with pytest.raises(ValueError, match="S tokens must have exponent 1"):
        word_to_matrix((("S", 2),))
    with pytest.raises(ValueError, match="unknown generator"):
        word_to_matrix((("U", 1),))


def test_decompose_identity_and_translations():
    assert decompose(Mat2.identity(8), 8) == ()
    assert decompose(Mat2.identity(9), 9) == ()
    assert decompose(Mat2(1, 5, 0, 1, 9), 9) == (("T", 5),)


def test_decompose_worked_example():
    matrix = Mat2(*UNIT_MOD9_UNIMODULAR, 9)
    assert decompose(matrix, 9) == UNIT_MOD9_WORD


def test_decompose_rejects_bad_determinant():
    with pytest.raises(ValueError, match="lemma precondition violated"):
        decompose(Mat2(2, 0, 0, 4, 8), 8)


def test_reconstruction_exhaustive_mod8():
    matrices = _all_sl2(8)
    assert len(matrices) == 384
    for m in matrices:
        word = decompose(m, 8)
        assert word_to_matrix(word, 8) == m
        for gen, exponent in word:
            if gen == "T":
                assert 0 <= exponent < 8


def test_reconstruction_sampled_mod9():
    rng = random.Random(90210)
    seen_second_branch = 0
    produced = 0
    while produced < 500:
        a, b, c, d = (rng.randrange(9) for _ in range(4))
        if (a * d - b * c) % 9 != 1:
            continue
        produced += 1
        m = Mat2(a, b, c, d, 9)
        if c % 3 == 0 and m.entries() != (1, b, 0, 1):
            seen_second_branch += 1
        assert word_to_matrix(decompose(m, 9), 9) == m
    # both decomposition branches must actually be exercised
    assert seen_second_branch > 50


def test_lift_constant_congruences():
    s8 = word_to_matrix(S_WORD_MOD8)
    assert s8.to_mod(8) == mat_s(8)
    assert s8.to_mod(9) == Mat2.identity(9)
    s9 = word_to_matrix(S_WORD_MOD9)
    assert s9.to_mod(9) == mat_s(9)
    assert s9.to_mod(8) == Mat2.identity(8)
    t8 = mat_t(T_STRETCH_MOD8)
    assert t8.to_mod(8) == mat_t(1, 8)
    assert t8.to_mod(9) == Mat2.identity(9)
    t9 = mat_t(T_STRETCH_MOD9)
    assert t9.to_mod(9) == mat_t(1, 9)
    assert t9.to_mod(8) == Mat2.identity(8)


def test_lift_word_congruences():
    rng = random.Random(1644)
    for modulus, other in ((8, 9), (9, 8)):
        for _ in range(25):
            word = _random_word(rng, rng.randint(0, 6), modulus - 1)
            lifted = word_to_matrix(lift_word(word, modulus))
            assert lifted.to_mod(modulus) == word_to_matrix(word, modulus)
            assert lifted.to_mod(other) == Mat2.identity(other)
    with pytest.raises(ValueError, match="unsupported modulus"):
        lift_word((("S", 1),), 7)


def test_crt_combine_anchors():
    combined = crt_combine(Mat2.identity(8), Mat2(2, 6, 7, 4, 9))
    assert combined == Mat2(*UNIT_MOD72_ENTRIES, 72)
    assert combined.det == UNIT_MOD72_DET
    assert crt_combine(Mat2.identity(8), Mat2.identity(9)) == Mat2.identity(72)
    with pytest.raises(ValueError, match="expected matrices mod 8 and mod 9"):
        crt_combine(Mat2.identity(9), Mat2.identity(8))


@settings(max_examples=100)
@given(st.tuples(*(st.integers(min_value=0, max_value=71) for _ in range(4))))
def test_crt_combine_inverts_reduction(entries):
    m = Mat2(*entries, 72)
    assert crt_combine(m.to_mod(8), m.to_mod(9)) == m


def test_split_det_anchors():
    unimodular, det = split_det(Mat2(2, 6, 7, 4, 9))
    assert unimodular == Mat2(*UNIT_MOD9_UNIMODULAR, 9)
    assert det == UNIT_MOD9_DET
    assert split_det(Mat2.identity(72)) == (Mat2.identity(72), 1)


@settings(max_examples=100)
@given(st.tuples(*(st.integers(min_value=0, max_value=71) for _ in range(4))))
def test_split_det_property(entries):
    m = Mat2(*entries, 72)
    try:
        unimodular, det = split_det(m)
    except ValueError:
        assert math.gcd(m.det, 72) != 1
        return
    assert unimodular.det == 1
    assert unimodular * Mat2(1, 0, 0, det, 72) == m


def test_split_det_rejects_singular():
    with pytest.raises(ValueError, match="determinant is not a unit"):
        split_det(Mat2(2, 0, 0, 2, 8))
    with pytest.raises(ValueError, match="expected a modular matrix"):
        split_det(Mat2(1, 0, 0, 1))


def test_form_matrix_anchors():
    assert form_matrix(QuadForm(3, 1, 9), 9) == Mat2(5, 0, 1, 8, 9)
    assert form_matrix(principal_form(-11), 8) == Mat2.identity(8)
    assert form_matrix(principal_form(-11), 9) == Mat2.identity(9)
    assert form_matrix(principal_form(-107), 8) == Mat2.identity(8)


def test_form_matrix_covers_all_branches():
    # -995 has forms with a odd, a even with c odd, and both divisible
    for disc in (-107, -251, -995, -899):
        for modulus in (8, 9):
            for form in reduced_forms(disc):
                m = form_matrix(form, modulus)
                assert m.mod == modulus
                assert math.gcd(m.det, modulus) == 1


def test_form_matrix_validation():
    with pytest.raises(ValueError, match="unsupported modulus"):
        form_matrix(QuadForm(1, 1, 3), 7)
    with pytest.raises(ValueError, match="form must have odd middle"):
        form_matrix(QuadForm(1, 0, 1), 8)


def test_matrix_modulus_guards():
    for modulus in (0, -1, -8):
        with pytest.raises(ValueError, match="modulus must be positive"):
            Mat2(1, 0, 0, 1, modulus)
        # replace goes through the constructor, so it checks again
        with pytest.raises(ValueError, match="modulus must be positive"):
            dataclasses.replace(Mat2.identity(8), mod=modulus)
    with pytest.raises(ValueError, match="modulus mismatch"):
        Mat2.identity(8) * Mat2.identity(9)
    with pytest.raises(ValueError, match="modulus mismatch"):
        Mat2.identity(8).to_mod(3)


@pytest.mark.parametrize("entries, name", [
    ((1.5, 0, 0, 1, 8), "matrix entry a"),
    ((1, "1", 0, 1, 8), "matrix entry b"),
    ((1, 0, True, 1, None), "matrix entry c"),
    ((1, 0, 0, Fraction(1, 2), 9), "matrix entry d"),
    ((1, 0, 0, 1, 8.0), "modulus"),
])
def test_a_matrix_refuses_what_is_not_an_integer(entries, name):
    # the message check_integer gives a QuadForm coefficient
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        Mat2(*entries)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        dataclasses.replace(Mat2.identity(8), **dict(zip("abcd", entries[:4]),
                                                    mod=entries[4]))


@pytest.mark.parametrize("modulus", [None, 1, 8, 9, 72])
def test_matrices_reduce_once_into_frozen_fields(modulus):
    # the constructor reduces every entry into [0, mod) before it sets
    # the fields; an integer matrix keeps its entries as given
    entries = (-75, 17, 144, -1)
    m = Mat2(*entries, modulus)
    expected = entries if modulus is None else tuple(x % modulus for x in entries)
    assert m.entries() == expected and m.mod == modulus
    assert m == Mat2(*expected, modulus) and hash(m) == hash((*expected, modulus))
    assert repr(m) == "Mat2(a={}, b={}, c={}, d={}, mod={})".format(*expected, modulus)
    assert dataclasses.is_dataclass(m)
    assert [f.name for f in dataclasses.fields(Mat2)] == ["a", "b", "c", "d", "mod"]
    assert Mat2(a=entries[0], b=entries[1], c=entries[2], d=entries[3], mod=modulus) == m
    # replace goes through the constructor, so it reduces again
    moved = dataclasses.replace(m, a=-3, d=100)
    assert moved == Mat2(-3, m.b, m.c, 100, modulus)
    if modulus is not None:
        assert 0 <= moved.a < modulus and 0 <= moved.d < modulus
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.a = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.mod = 3


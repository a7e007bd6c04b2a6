"""The exact matrix action on the six eta quotients.

The worked example threaded through these tests: for n = 11 the order
unit 4 + 7w has multiplication matrix (11, -21; 7, 4); completed by the
identity mod 8 it becomes (65, 24; 16, 49) mod 72, whose unimodular
part decomposes as T^3 S T^7 S T^3 mod 9.  The resulting substitution
matrix must fix sqrt(3) times the index-2 quotient under the twisted
dual action.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from classinv.cyclotomic import GALOIS_EXPONENTS, SQRT3, CycNum
from classinv.etarep import (
    MONOMIAL_T,
    SQRT3_F2,
    Monomial,
    RepMatrix,
    conjugate_action,
    dense_conjugate_action,
    dual_action,
    form_action,
    form_matrix_mod72,
    full_action,
    invariance_check,
    monomial_action,
    monomial_dual_action,
    monomial_entry,
    monomial_sigma,
    monomial_word_action,
    rep_s,
    rep_sigma,
    rep_t,
    unit_vector,
    word_action,
)
from classinv.numeval import r_vector
from classinv.quadforms import QuadForm, principal_form
from classinv.sl2words import Mat2, lift_word, mat_s, mat_t

from golden_data import (
    UNIT_MOD9_WORD,
    UNIT_MOD72_DET,
    UNIT_MOD72_ENTRIES,
    UNIT_REP_ENTRIES,
)

_Z = CycNum.zeta_pow
_ONE = CycNum.one()


def golden_unit_rep():
    """The substitution matrix of the worked example, built from scratch."""
    entries = {}
    for key, terms in UNIT_REP_ENTRIES.items():
        entries[key] = CycNum.from_zeta_terms(
            (power, Fraction(coef)) for power, coef in terms
        )
    return RepMatrix.from_entries(entries)


def _random_gl2(rng):
    while True:
        m = Mat2(*(rng.randrange(72) for _ in range(4)), 72)
        if math.gcd(m.det, 72) == 1:
            return m


def _random_sl2_word(rng, length):
    word = []
    for _ in range(length):
        if rng.random() < 0.4:
            word.append(("S", 1))
        else:
            word.append(("T", rng.randint(-6, 6)))
    return tuple(word)


def test_translation_matrix_entries():
    expected = {
        (0, 1): _Z(3),
        (1, 2): _Z(3),
        (2, 0): _Z(6),
        (3, 4): _Z(-3),
        (4, 5): _Z(-6),
        (5, 3): _Z(-3),
    }
    assert rep_t().nonzero_entries() == expected


def test_inversion_matrix_entries():
    third = Fraction(1, 3)
    expected = {
        (0, 0): _ONE,
        (1, 3): (_Z(3) - _Z(27)) * third,
        (2, 4): (_Z(9) - _Z(33)) * third,
        (3, 1): _Z(9) - _Z(33),
        (4, 2): _Z(3) - _Z(27),
        (5, 5): _ONE,
    }
    assert rep_s().nonzero_entries() == expected


def test_inversion_is_an_involution():
    assert rep_s() * rep_s() == RepMatrix.identity()


def test_translation_has_order_18():
    t = rep_t()
    acc = RepMatrix.identity()
    orders = []
    for k in range(1, 19):
        acc = acc * t
        if acc == RepMatrix.identity():
            orders.append(k)
    assert orders == [18]


def test_sigma_identity_and_inverses():
    assert rep_sigma(1) == RepMatrix.identity()
    for d in GALOIS_EXPONENTS:
        m = rep_sigma(d)
        assert m.is_monomial()
        inverse_exp = pow(d, -1, 72)
        # twisting by 1/d and inverting lands on the matrix of sigma_{1/d}
        assert m.galois(inverse_exp).monomial_inverse() == rep_sigma(inverse_exp)


def test_sigma_composition_law():
    # sigma_{d2} applied after sigma_{d1}: the matrix of the composite
    # is the d2-twist of the first matrix times the second matrix
    for d1 in GALOIS_EXPONENTS:
        m1 = rep_sigma(d1)
        for d2 in GALOIS_EXPONENTS:
            composite = rep_sigma((d1 * d2) % 72)
            assert composite == m1.galois(d2) * rep_sigma(d2)


def test_sigma_rejects_non_units():
    with pytest.raises(ValueError, match="not a Galois element"):
        rep_sigma(3)


def test_word_action_empty_and_generators():
    assert word_action(()) == RepMatrix.identity()
    assert word_action((("S", 1),)) == rep_s()
    assert word_action((("T", 1),)) == rep_t()
    assert word_action((("T", 72),)) == RepMatrix.identity()
    # T has order 18 in the representation even though its level is 72
    assert word_action((("T", 18),)) == RepMatrix.identity()


def test_word_action_is_lift_independent():
    rng = random.Random(7208)
    for _ in range(10):
        word = _random_sl2_word(rng, rng.randint(0, 5))
        recombined = lift_word(word, 8) + lift_word(word, 9)
        assert word_action(recombined) == word_action(word)


def test_full_action_of_modular_generators():
    rep, det = full_action(mat_s().to_mod(72))
    assert det == 1
    assert rep == rep_s()
    rep, det = full_action(mat_t(1, 72))
    assert det == 1
    assert rep == rep_t()


def test_full_action_factors_through_sign():
    rep, det = full_action(-Mat2.identity(72))
    assert det == 1
    assert rep == RepMatrix.identity()
    rng = random.Random(3311)
    for _ in range(5):
        m = _random_gl2(rng)
        rep_plus, det_plus = full_action(m)
        rep_minus, det_minus = full_action(-m)
        assert (rep_plus, det_plus) == (rep_minus, det_minus)


def test_worked_example_matrix():
    combined = Mat2(*UNIT_MOD72_ENTRIES, 72)
    rep, det = full_action(combined)
    assert det == UNIT_MOD72_DET
    assert rep == golden_unit_rep()
    # the lifted mod-9 word alone already produces the same matrix,
    # because the mod-8 part of this example is the identity
    assert word_action(lift_word(UNIT_MOD9_WORD, 9)) == golden_unit_rep()


def test_worked_example_dual_action():
    rep = golden_unit_rep()
    minus_e2 = unit_vector(2, CycNum.from_rational(-1))
    assert dual_action(rep, UNIT_MOD72_DET, unit_vector(2)) == minus_e2
    scaled = unit_vector(2, SQRT3)
    assert dual_action(rep, UNIT_MOD72_DET, scaled) == scaled


def test_dual_action_with_trivial_data():
    vec = unit_vector(4, SQRT3 + _ONE)
    assert dual_action(RepMatrix.identity(), 1, vec) == vec


def _term_vector(term):
    index, k, e = term
    return unit_vector(index, monomial_entry(k, e))


def test_conjugate_action_with_trivial_determinant():
    rng = random.Random(99)
    word = _random_sl2_word(rng, 4)
    rep = word_action(word)
    action = monomial_word_action(word)
    assert action.dense() == rep
    vec = unit_vector(2, SQRT3)
    moved = _term_vector(conjugate_action(action, 1, SQRT3_F2))
    assert moved == rep.act_on_coefficients(vec)
    assert moved == dense_conjugate_action(rep, 1, vec)


def test_action_matrices_are_monomial_with_unit_determinant():
    rng = random.Random(80833)
    for _ in range(8):
        rep, det = full_action(_random_gl2(rng))
        assert rep.is_monomial()
        assert math.gcd(det, 72) == 1
        inverse = rep.monomial_inverse()
        assert rep * inverse == RepMatrix.identity()


def test_composition_twist_law():
    # product rule: the action of A*B is the action of A times the
    # sigma_e-conjugated, e-twisted action of B, where e inverts det(A)
    rng = random.Random(25025)
    for _ in range(10):
        first, second = _random_gl2(rng), _random_gl2(rng)
        rep_a, det_a = full_action(first)
        rep_b, det_b = full_action(second)
        rep_ab, det_ab = full_action(first * second)
        assert det_ab == (det_a * det_b) % 72
        e = pow(det_a, -1, 72)
        twist = rep_sigma(e)
        assert rep_ab == rep_a * twist.monomial_inverse() * rep_b.galois(e) * twist


def test_unimodular_actions_compose_directly():
    rng = random.Random(555)
    for _ in range(8):
        w1 = _random_sl2_word(rng, rng.randint(1, 5))
        w2 = _random_sl2_word(rng, rng.randint(1, 5))
        assert word_action(w1 + w2) == word_action(w1) * word_action(w2)


def test_form_action_of_principal_form_is_trivial():
    for disc in (-11, -107):
        form = principal_form(disc)
        action, det = form_action(form)
        assert det == 1
        assert action.dense() == RepMatrix.identity()
        assert (action.dense(), det) == full_action(form_matrix_mod72(form))


def test_form_action_monomial_for_real_forms():
    for form in (QuadForm(3, 1, 9), QuadForm(3, -1, 9), QuadForm(5, 3, 7)):
        action, det = form_action(form)
        rep = action.dense()
        assert rep.is_monomial()
        assert math.gcd(det, 72) == 1
        assert (rep, det) == full_action(form_matrix_mod72(form))


def test_numeric_consistency_of_generator_matrices():
    # F(g tau) = (A_g F)(tau) at a handful of points, 120 digits
    with mpmath.workdps(130):
        tol = mpmath.mpf("1e-100")
        rng = random.Random(20817)
        for _ in range(5):
            tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.6))
            values = r_vector(tau, 120)
            shifted = r_vector(tau + 1, 120)
            inverted = r_vector(-1 / tau, 120)
            for matrix, moved in ((rep_t(), shifted), (rep_s(), inverted)):
                for i, row in enumerate(matrix.rows):
                    acc = mpmath.mpc(0)
                    for entry, value in zip(row, values):
                        if entry:
                            acc += entry.embed(120) * value
                    assert abs(acc - moved[i]) < tol


def test_invariance_check_all_three_classes():
    for n in (11, 35, 59):
        results = invariance_check(n)
        assert len(results) == 5  # two generators mod 9, three mod 8
        assert all(r.invariant for r in results)
        assert {r.modulus for r in results} == {8, 9}


def test_invariance_check_every_class_mod_288():
    # one n = 11 (mod 24) per class mod 288; the integer dual action of
    # each generator must equal the dense one computed by full_action
    target = unit_vector(2, SQRT3)
    for n in range(11, 288, 24):
        results = invariance_check(n)
        assert results and all(r.invariant for r in results), n
        for r in results:
            action, det = monomial_action(r.matrix)
            rep, dense_det = full_action(r.matrix)
            assert det == dense_det == r.det
            moved = monomial_dual_action(action, det, SQRT3_F2)
            assert _term_vector(moved) == dual_action(rep, det, target)


def test_monomial_galois_matches_dense_twist():
    action, _ = monomial_action(_random_gl2(random.Random(7272)))
    rep = action.dense()
    for d in GALOIS_EXPONENTS:
        assert action.galois(d).dense() == rep.galois(d)
    with pytest.raises(ValueError, match="not a Galois element"):
        monomial_sigma(3)
    with pytest.raises(ValueError, match="not a Galois element"):
        MONOMIAL_T.galois(6)


def test_monomial_products_match_dense_products():
    rng = random.Random(4242)
    for _ in range(10):
        w1 = _random_sl2_word(rng, rng.randint(0, 6))
        w2 = _random_sl2_word(rng, rng.randint(0, 6))
        product = monomial_word_action(w1) * monomial_word_action(w2)
        assert product == monomial_word_action(w1 + w2)
        assert product.dense() == word_action(w1) * word_action(w2)


def test_monomial_term_actions_match_dense_vectors():
    rng = random.Random(2727)
    for _ in range(4):
        action, _ = monomial_action(_random_gl2(rng))
        rep = action.dense()
        for index in range(6):
            term = (index, rng.randrange(72), rng.randint(-2, 2))
            vec = _term_vector(term)
            assert _term_vector(action.apply(term)) == rep.apply(vec)
            assert (_term_vector(action.act_on_coefficients(term))
                    == rep.act_on_coefficients(vec))


def test_monomial_from_columns_validates_and_reduces():
    with pytest.raises(ValueError, match="not a 6x6 monomial matrix"):
        Monomial.from_columns((0, 0, 1, 2, 3, 4), (0,) * 6, (0,) * 6)
    with pytest.raises(ValueError, match="not a 6x6 monomial matrix"):
        Monomial.from_columns(range(6), (0,) * 5, (0,) * 6)
    m = Monomial.from_columns(range(6), (72, -1, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0))
    assert m.rows[:2] == ((0, 0, 0), (1, 71, 2))
    assert m * Monomial.identity() == m == Monomial.identity() * m
    assert Monomial.identity().dense() == RepMatrix.identity()


def test_invariance_check_rejects_bad_residue():
    with pytest.raises(ValueError, match="n must be"):
        invariance_check(12)


def test_unit_vector():
    vec = unit_vector(3)
    assert vec[3] == _ONE
    assert sum(1 for x in vec if x) == 1
    scaled = unit_vector(0, SQRT3)
    assert scaled[0] == SQRT3


def test_monomial_inverse_rejects_general_matrices():
    dense = RepMatrix.from_entries({(0, 0): _ONE, (0, 1): _ONE})
    with pytest.raises(ValueError, match="matrix is not monomial"):
        dense.monomial_inverse()

"""The exact matrix action on the six eta quotients.

The worked example threaded through these tests: for n = 11 the order
unit 4 + 7w has multiplication matrix (11, -21; 7, 4); completed by the
identity mod 8 it becomes (65, 24; 16, 49) mod 72, whose unimodular
part decomposes as T^3 S T^7 S T^3 mod 9.  The resulting substitution
matrix must fix sqrt(3) times the index-2 quotient under the twisted
dual action.
"""

import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from classinv import classpoly, etarep
from classinv.classpoly import compute_ramanujan
from classinv.cyclotomic import GALOIS_EXPONENTS, ORDER, SQRT3, CycNum
from classinv.etarep import (
    BAD_RESIDUE_MESSAGE,
    MONOMIAL_T,
    SQRT3_F2,
    Monomial,
    RepMatrix,
    conjugate_action,
    dense_conjugate_action,
    dual_action,
    form_action,
    form_matrix_mod72,
    is_valid_n,
    full_action,
    invariance_check,
    mirror_term,
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
from classinv.quadforms import QuadForm, principal_form, reduced_forms
from classinv.sl2words import (Mat2, crt_combine, decompose, lift_word, mat_s, mat_t, split_det,
                               word_product)

from golden_data import (
    MAIN_TABLE,
    UNIT_MOD9_WORD,
    UNIT_MOD72_DET,
    UNIT_MOD72_ENTRIES,
    UNIT_REP_ENTRIES,
)
from rep_helpers import is_monomial

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


def _monomial_inverse(rep):
    """Inverse of a monomial matrix: transpose with inverted entries."""
    if not is_monomial(rep):
        raise ValueError("matrix is not monomial")
    return RepMatrix.from_entries({(j, i): x.inverse()
                                   for i, row in enumerate(rep.rows)
                                   for j, x in enumerate(row) if x})


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
    assert rep_t() == RepMatrix.from_entries(expected)


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
    assert rep_s() == RepMatrix.from_entries(expected)


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
        assert is_monomial(m)
        inverse_exp = pow(d, -1, 72)
        # twisting by 1/d and inverting lands on the matrix of sigma_{1/d}
        assert _monomial_inverse(m.galois(inverse_exp)) == rep_sigma(inverse_exp)


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


@pytest.mark.parametrize(
    "action",
    [word_action, monomial_word_action,
     functools.partial(lift_word, modulus=8), functools.partial(lift_word, modulus=9)],
    ids=["dense", "monomial", "lift8", "lift9"])
def test_word_tokens_validated_in_both_encodings(action):
    with pytest.raises(ValueError, match="S tokens must have exponent 1"):
        action((("S", 2),))
    with pytest.raises(ValueError, match="unknown generator 'U'"):
        action((("U", 1),))


def test_word_action_is_lift_independent():
    rng = random.Random(7208)
    for _ in range(10):
        word = _random_sl2_word(rng, rng.randint(0, 5))
        recombined = lift_word(word, 8) + lift_word(word, 9)
        assert word_action(recombined) == word_action(word)


def _sl2(modulus):
    return [m for m in (Mat2(a, b, c, d, modulus)
                        for a in range(modulus) for b in range(modulus)
                        for c in range(modulus) for d in range(modulus))
            if m.det == 1]


def _glued_with_determinants(units):
    """Every element of SL2(Z/8) and of SL2(Z/9), glued with the identity
    mod the other factor, times diag(1, d) for each unit d."""
    glued = ([crt_combine(b, Mat2.identity(9)) for b in _sl2(8)]
             + [crt_combine(Mat2.identity(8), b) for b in _sl2(9)])
    return [m * Mat2(1, 0, 0, d, 72) for m in glued for d in units]


def _lifted_word(matrix):
    """The integer word of the unimodular part and the determinant: both
    factor words lifted and concatenated, token by token."""
    unimodular, det = split_det(matrix)
    word = (lift_word(decompose(unimodular.to_mod(8), 8), 8)
            + lift_word(decompose(unimodular.to_mod(9), 9), 9))
    return word, det


def test_factored_action_matches_the_lifted_word_everywhere():
    matrices = _glued_with_determinants((1, 5, 43, 71))
    assert len(matrices) == (384 + 648) * 4
    rng = random.Random(1032)
    mixed = [_random_gl2(rng) for _ in range(100)]  # both factors nontrivial
    for m in matrices + mixed:
        word, det = _lifted_word(m)
        assert monomial_action(m) == (monomial_word_action(word), det), m
    for m in rng.sample(matrices, 12) + mixed[:4]:
        word, det = _lifted_word(m)
        assert full_action(m) == (word_action(word), det), m


def test_words_are_not_lifted_after_import(monkeypatch):
    calls = []
    monkeypatch.setattr(etarep, "lift_word", lambda *args: calls.append(args))
    compute_ramanujan(107)
    assert calls == []


def test_word_image_table_is_the_word_multiplied_out_for_every_element():
    # every unimodular matrix mod 8 (384) and mod 9 (648): the tabled
    # image of its word against the word multiplied out anew over the
    # lifted generators' images
    for m, order in ((8, 384), (9, 648)):
        s, t = etarep._MONOMIAL_IMAGES[m]
        elements = _sl2(m)
        assert len(elements) == order
        for matrix in elements:
            word = decompose(matrix, m)
            expected = word_product(word, t[0], s, t.__getitem__)
            assert etarep._monomial_image(word, m) == expected, (m, matrix)


def test_word_image_table_holds_at_most_one_entry_per_element():
    # decompose gives one word per matrix, so no input grows the table
    # past |SL2(Z/8)| + |SL2(Z/9)|: the table's rows, the benchmark's
    # large inputs and every class mod 288 of the invariance check
    for n in sorted(MAIN_TABLE) + [10019, 100019, 1000019]:
        for form in reduced_forms(-n):
            form_action(form)
    for n in range(11, 288, 24):
        invariance_check(n)
    assert etarep._monomial_image.cache_info().currsize <= 384 + 648


def test_form_action_matches_the_glued_matrix():
    # built from the factor matrices, with the determinant glued from d_8
    # and d_9, against the GL2(Z/72) matrix and its own determinant
    for n in sorted(MAIN_TABLE) + [10019]:
        for form in reduced_forms(-n):
            glued = form_matrix_mod72(form)
            action, det = form_action(form)
            assert (action, det) == monomial_action(glued), form
            assert det == glued.det, form


def test_form_actions_build_no_mod72_matrix(monkeypatch):
    calls = []

    def recorder(name, fn):
        def record(*args):
            calls.append(name)
            return fn(*args)
        return record

    # classpoly holds no name of the dense oracle to call it by
    assert not {"RepMatrix", "full_action", "form_matrix_mod72"} & set(vars(classpoly))
    monkeypatch.setattr(etarep, "form_matrix_mod72",
                        recorder("form_matrix_mod72", etarep.form_matrix_mod72))
    monkeypatch.setattr(etarep, "crt_combine", recorder("crt_combine", etarep.crt_combine))
    plain_to_mod = Mat2.to_mod

    def to_mod(self, m):
        if m == 72:
            calls.append("to_mod(72)")
        return plain_to_mod(self, m)

    monkeypatch.setattr(Mat2, "to_mod", to_mod)
    compute_ramanujan(107)
    assert calls == []


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
        assert is_monomial(rep)
        assert math.gcd(det, 72) == 1
        inverse = _monomial_inverse(rep)
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
        assert rep_ab == rep_a * _monomial_inverse(twist) * rep_b.galois(e) * twist


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
        assert is_monomial(rep)
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
    # the paper's generators for every class mod 288
    for n in range(11, 288, 24):
        results = invariance_check(n)
        assert len(results) == 5, n  # two generators mod 9, three mod 8
        assert all(r.invariant for r in results), n
        assert {r.modulus for r in results} == {8, 9}


def test_invariance_check_every_class_mod_288():
    # one n = 11 (mod 24) per class mod 288; the integer dual action of
    # each generator must equal the dense one computed by full_action,
    # and so must the verdict
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
            assert r.invariant == (dual_action(rep, det, target) == target)


def test_invariance_check_reports_a_moved_term(monkeypatch):
    # T mod m in place of each generator's matrix moves sqrt(3) * F_2:
    # every result must say so, as the dense action does
    monkeypatch.setattr(etarep, "generator_matrix",
                        lambda x, c_param, modulus: mat_t(1, modulus))
    target = unit_vector(2, SQRT3)
    moved_to = {8: (2, 36, 1), 9: (1, 39, 1)}
    for n in range(11, 288, 24):
        results = invariance_check(n)
        assert len(results) == 5, n
        for r in results:
            assert not r.invariant, n
            action, det = monomial_action(r.matrix)
            assert monomial_dual_action(action, det, SQRT3_F2) == moved_to[r.modulus]
            rep, _ = full_action(r.matrix)
            assert dual_action(rep, det, target) != target


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


def test_factor_rule_matches_the_hand_stated_matrices():
    # T and sigma_d come from ETA_QUOTIENTS by one rule; rep_t and
    # rep_sigma state them by hand, for every d and not only 0 < d < 72
    assert MONOMIAL_T.dense() == rep_t()
    for d in range(-144, 145):
        if math.gcd(d, ORDER) == 1:
            assert monomial_sigma(d).dense() == rep_sigma(d), d
    assert monomial_sigma(-1) is monomial_sigma(ORDER - 1)


def test_mirror_term_is_sigma_minus_one():
    for index in range(6):
        for k in range(ORDER):
            for e in range(-2, 4):
                term = (index, k, e)
                expected = conjugate_action(Monomial.identity(), ORDER - 1, term)
                assert mirror_term(term) == expected, term


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
    # -13 = 11 mod 24, but t_n is defined only for positive n
    with pytest.raises(ValueError, match=BAD_RESIDUE_MESSAGE):
        invariance_check(-13)


def test_valid_n_is_positive_and_11_mod_24():
    assert [n for n in range(-60, 100) if is_valid_n(n)] == [11, 35, 59, 83]


def test_unit_vector():
    vec = unit_vector(3)
    assert vec[3] == _ONE
    assert sum(1 for x in vec if x) == 1
    scaled = unit_vector(0, SQRT3)
    assert scaled[0] == SQRT3


def test_monomial_inverse_rejects_general_matrices():
    dense = RepMatrix.from_entries({(0, 0): _ONE, (0, 1): _ONE})
    with pytest.raises(ValueError, match="matrix is not monomial"):
        _monomial_inverse(dense)

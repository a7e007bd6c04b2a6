"""Minimal polynomials of the class invariants, and the Hilbert cross-check.

The session-scoped fixture from conftest computes every main-table row
once; the tests below compare coefficients, inspect the conjugate data
carried along, and exercise the error paths.
"""

import mpmath
import pytest

from classinv.classpoly import (
    BAD_RESIDUE_MESSAGE,
    DEFAULT_DIGITS,
    IntPolynomial,
    PrecisionError,
    compute_hilbert,
    compute_ramanujan,
    conjugate_value,
    hilbert_default_digits,
    is_squarefree,
    verify_polynomial,
)
from classinv.cyclotomic import SQRT3
from classinv.etarep import dense_conjugate_action, unit_vector
from classinv.numeval import ramanujan_value
from classinv.quadforms import class_number, principal_form

from golden_data import (
    HILBERT_11,
    HILBERT_107,
    MAIN_TABLE,
    NOT_SQUAREFREE,
    SMALL_TABLE,
    SMALL_TABLE_TEXT,
    TEXT_611,
)


def test_polynomial_construction_and_rendering():
    poly = IntPolynomial.from_descending((1, -2, 4, -1))
    assert poly.descending() == (1, -2, 4, -1)
    assert poly.degree == 3
    assert poly.constant_term == -1
    assert poly.leading_coefficient == 1
    assert str(poly) == "x^3 - 2x^2 + 4x - 1"
    assert str(IntPolynomial.from_descending((1, -1))) == "x - 1"
    assert str(IntPolynomial.from_descending((3, 0, -7))) == "3x^2 - 7"
    assert str(IntPolynomial.from_descending((5,))) == "5"
    assert str(IntPolynomial.from_descending((1, 1, 0))) == "x^2 + x"


def test_polynomial_rendering_round_trips_through_table():
    assert str(IntPolynomial.from_descending(MAIN_TABLE[611])) == TEXT_611


def test_polynomial_validation():
    with pytest.raises(ValueError, match="at least one coefficient"):
        IntPolynomial(())
    with pytest.raises(ValueError, match="leading coefficient"):
        IntPolynomial.from_descending((0, 1, 2))


def test_polynomial_evaluation():
    poly = IntPolynomial.from_descending((2, 0, -1))
    assert poly.evaluate(3) == 17
    with mpmath.workdps(40):
        assert abs(poly.evaluate(mpmath.mpf("0.5")) + mpmath.mpf("0.5")) < 1e-38


def test_is_squarefree():
    assert is_squarefree(11)
    assert is_squarefree(1)
    assert is_squarefree(2026)
    for n in NOT_SQUAREFREE:
        assert not is_squarefree(n)
    assert not is_squarefree(4)


def test_small_polynomials():
    for n, coeffs in SMALL_TABLE.items():
        result = compute_ramanujan(n)
        assert result.polynomial.descending() == coeffs
        assert str(result.polynomial) == SMALL_TABLE_TEXT[n]
        assert result.discriminant == -n
        assert result.class_number == len(coeffs) - 1


def test_main_table_exact(main_table_results):
    for n, coeffs in MAIN_TABLE.items():
        result = main_table_results[n]
        assert result.polynomial.descending() == coeffs, f"n = {n}"


def test_main_table_metadata(main_table_results):
    for n, result in main_table_results.items():
        assert result.discriminant == -n
        assert result.class_number == class_number(-n)
        assert result.polynomial.degree == result.class_number
        assert abs(result.polynomial.constant_term) == 1
        assert result.polynomial.leading_coefficient == 1
        assert result.precision_digits == DEFAULT_DIGITS
        assert result.max_residual < mpmath.mpf("1e-40")


def test_conjugate_data(main_table_results):
    with mpmath.workdps(140):
        for n in (107, 251, 611):
            result = main_table_results[n]
            records = result.conjugates
            assert len(records) == result.class_number
            assert records[0].form == principal_form(-n)
            # the principal value is t_n itself
            assert abs(records[0].value - ramanujan_value(n, 120)) < mpmath.mpf("1e-90")
            poly = result.polynomial
            values = [r.value for r in records]
            for value in values:
                # every stored conjugate is a root
                assert abs(poly.evaluate(value)) < mpmath.mpf("1e-80")
                # nonreal conjugates come with their mirror image
                mirror = mpmath.conj(value)
                assert any(abs(mirror - w) < mpmath.mpf("1e-80") for w in values)
            # conjugates are pairwise distinct
            for i, v in enumerate(values):
                for w in values[i + 1:]:
                    assert abs(v - w) > mpmath.mpf("1e-50")
            for record in records:
                assert record.rep.is_monomial()


def test_conjugates_agree_with_the_dense_oracle(main_table_results):
    # every conjugate of the 38-row table: the integer action against
    # the dense matrix of full_action, the integer conjugate term against
    # the dense conjugate action, and the numeric scalar against the
    # embedding of the exact one
    start = unit_vector(2, SQRT3)
    with mpmath.workdps(130):
        for result in main_table_results.values():
            for record in result.conjugates:
                rep = record.rep
                assert rep == record.action.dense()
                moved = dense_conjugate_action(rep, record.det, start)
                assert moved == unit_vector(record.index, record.scalar)
                scale = mpmath.expjpi(mpmath.mpf(record.k) / 36) * mpmath.sqrt(3) ** record.e
                assert abs(record.scalar.embed(130) - scale) < mpmath.mpf("1e-125")


def test_non_positive_precision_rejected():
    for dps in (0, -5):
        with pytest.raises(ValueError, match=f"got {dps}"):
            compute_ramanujan(107, dps)
        with pytest.raises(ValueError, match=f"got {dps}"):
            compute_hilbert(-107, dps)
        with pytest.raises(ValueError, match=f"got {dps}"):
            conjugate_value(principal_form(-107), dps)
        with pytest.raises(ValueError, match=f"got {dps}"):
            verify_polynomial(IntPolynomial.from_descending(SMALL_TABLE[107]), 107, dps)
    # one digit passes validation; it is merely too few to round at
    with pytest.raises(PrecisionError, match="failed to round"):
        compute_ramanujan(107, 1)


def test_requested_precision_is_used():
    result = compute_ramanujan(107, 60)
    assert result.precision_digits == 60
    assert result.polynomial.descending() == SMALL_TABLE[107]


def test_non_squarefree_rows_still_round(main_table_results):
    for n in NOT_SQUAREFREE:
        assert main_table_results[n].polynomial.descending() == MAIN_TABLE[n]


def test_bad_residue_rejected():
    for n in (12, 24, 35 + 1, 7, -11, 0):
        with pytest.raises(ValueError, match="n must be"):
            compute_ramanujan(n)
    assert "11 mod 24" in BAD_RESIDUE_MESSAGE


def test_verify_polynomial():
    good = IntPolynomial.from_descending(SMALL_TABLE[107])
    assert verify_polynomial(good, 107, 80) < mpmath.mpf("1e-70")
    bad = IntPolynomial.from_descending((1, -2))
    assert verify_polynomial(bad, 11, 40) > mpmath.mpf("0.9")


def test_hilbert_anchors():
    result = compute_hilbert(-11)
    assert result.polynomial.descending() == HILBERT_11
    assert result.class_number == 1
    result = compute_hilbert(-107)
    assert result.polynomial.descending() == HILBERT_107
    assert result.class_number == 3
    assert result.max_residual < mpmath.mpf("1e-10")


def test_hilbert_default_digits_grow_with_coefficients():
    # the heuristic must clear the 24 digits of the disc -107 trace
    assert hilbert_default_digits(-107) >= 30
    assert hilbert_default_digits(-971) > hilbert_default_digits(-107) / 4
    assert hilbert_default_digits(-11) >= 20


def test_hilbert_validation():
    with pytest.raises(ValueError, match="not a negative discriminant"):
        compute_hilbert(-10)
    with pytest.raises(ValueError, match="not a negative discriminant"):
        compute_hilbert(11)


def test_precision_error_reports_residual():
    error = PrecisionError("failed", mpmath.mpf("0.25"))
    assert error.residual == mpmath.mpf("0.25")

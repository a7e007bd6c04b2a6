"""Minimal polynomials of the class invariants, and the Hilbert cross-check.

The session-scoped fixture from conftest computes every main-table row
once; the tests below compare coefficients, inspect the conjugate data
carried along, and exercise the error paths.  The library expands and
rounds over the reals on fixed-point integers, evaluating one form of
each mirrored pair; the floating-point mpc expansion of all h values
it replaced is kept here as the oracle it must agree with.
"""

import bisect
import decimal
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest

import classinv.classpoly as classpoly
import classinv.etarep as etarep
import classinv.expansion as expansion
import classinv.helper as helper
import classinv.numeval as numeval
from classinv.classpoly import (
    BAD_RESIDUE_MESSAGE,
    DEFAULT_DIGITS,
    RESIDUAL_TOLERANCE,
    IntPolynomial,
    PrecisionError,
    compute_hilbert,
    compute_ramanujan,
    conjugate_value,
    is_squarefree,
    verify_polynomial,
)
from classinv.cyclotomic import SQRT3, CycNum
from classinv.etarep import (
    SQRT3_F2,
    conjugate_action,
    dense_conjugate_action,
    form_action,
    is_valid_n,
    monomial_entry,
    monomial_sigma,
    unit_vector,
)
from classinv.numeval import (
    GUARD_DIGITS,
    eta,
    from_gaussian,
    j_invariant,
    leading_exponent,
    ramanujan_value,
    to_gaussian,
)
from classinv.quadforms import (
    QuadForm,
    class_number,
    form_root,
    is_ambiguous,
    principal_form,
    reduced_forms,
)
from classinv.selftest import MIRROR_RULE_NS, check_mirror_rule
from classinv.sl2words import Mat2, decompose

from golden_data import (
    HILBERT_11,
    HILBERT_107,
    MAIN_TABLE,
    NOT_SQUAREFREE,
    SMALL_TABLE,
    SMALL_TABLE_TEXT,
    TEXT_611,
)
from rep_helpers import dense_action, is_monomial


def _expand_and_round_oracle(values, digits):
    """Expand prod(t - v) in mpc floating point at ``digits`` and round."""
    with mpmath.workdps(digits):
        coeffs = [mpmath.mpc(1)]
        for v in values:
            nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] -= c * v
                nxt[i + 1] += c
            coeffs = nxt
        rounded = []
        residual = mpmath.mpf(0)
        for c in coeffs:
            target = int(mpmath.nint(mpmath.re(c)))
            residual = max(residual,
                           abs(mpmath.re(c) - target), abs(mpmath.im(c)))
            rounded.append(target)
        return tuple(rounded), residual


def _expand(values, paired, bits):
    """The library's expansion and rounding of the pairs at ``bits``, with
    the root that ``compute_ramanujan`` hands it, shared with the helper
    (``classpoly._shared_product``): the rounded coefficients and the
    residual in units of 2^-bits."""
    return expansion._expand_and_round(values, paired, bits, classpoly._shared_product)


def _evaluated(forms, values, digits):
    """The values of the forms with b >= 0, the ones the library
    evaluates, as the pairs it expands at ``digits``."""
    bits = expansion._expansion_bits(digits)
    return [to_gaussian(v, bits) for f, v in zip(forms, values) if f.b >= 0]


def _paired(forms):
    """For each form with b >= 0, whether its value stands for a
    mirrored pair: whether it is not ambiguous."""
    return [not is_ambiguous(f) for f in forms if f.b >= 0]


def _assert_expansion_matches_oracle(forms, values, digits):
    """The real expansion of the values of the forms with b >= 0 against
    the oracle; returns its verdict at the tolerance.

    Its coefficients must be those of the oracle's expansion of the
    values it stands for: the evaluated ones and, for each form with
    b < 0, the conjugate of its mirror's.  Its verdict must be that of
    the oracle's expansion of all the values as given, so that a
    perturbed pair member, whose mirror keeps the unperturbed conjugate,
    fails both."""
    bits = expansion._expansion_bits(digits)
    rounded, residual = _expand(_evaluated(forms, values, digits), _paired(forms), bits)
    expected, _ = _expand_and_round_oracle(classpoly._with_mirrors(
        forms, [v for f, v in zip(forms, values) if f.b >= 0],
        classpoly._conjugate), digits)
    assert rounded == expected
    _, oracle_residual = _expand_and_round_oracle(values, digits)
    passed = from_gaussian(residual, 0, bits).real < RESIDUAL_TOLERANCE
    assert passed == (oracle_residual < RESIDUAL_TOLERANCE)
    return passed


def _j_values(discriminant):
    """The forms and the j-value of every one of them, mirrors included."""
    digits = compute_hilbert(discriminant).precision_digits
    forms = reduced_forms(discriminant)
    return forms, [j_invariant(form_root(f, digits + GUARD_DIGITS), digits)
                   for f in forms], digits


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


def test_polynomial_stores_any_sequence_as_a_tuple():
    from_list, from_tuple = IntPolynomial([1, 1]), IntPolynomial((1, 1))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert type(from_list.coefficients) is tuple


def test_polynomial_rendering_round_trips_through_table():
    assert str(IntPolynomial.from_descending(MAIN_TABLE[611])) == TEXT_611


def test_polynomial_validation():
    with pytest.raises(ValueError, match="at least one coefficient"):
        IntPolynomial(())
    with pytest.raises(ValueError, match="leading coefficient"):
        IntPolynomial.from_descending((0, 1, 2))


@pytest.mark.parametrize("bad", [1.5, True, Fraction(3, 2), "2"])
def test_non_integer_coefficients_rejected(bad):
    message = f"coefficient of x^1 must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        IntPolynomial((1, bad, 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        IntPolynomial.from_descending((1, bad, 1))


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
    assert not is_squarefree(0) and not is_squarefree(-5)


def test_is_squarefree_agrees_with_trial_division():
    # trial division by the square of every prime up to sqrt(n) is the
    # oracle.  The cofactor left once every d up to its cube root is
    # divided out has at most two prime factors, so squares of primes
    # just past n^(1/3), alone or times a smaller cofactor, are where a
    # slip would show
    sieve = bytearray([1]) * 31623
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(len(sieve)) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, len(sieve), p)))
    primes = [p for p, is_prime in enumerate(sieve) if is_prime]
    squares = [p * p for p in primes]
    near_1000 = [p for p in primes if 900 < p < 1100]
    rng = random.Random(31)
    cases = list(range(1, 20000)) + [rng.randrange(1, 10**9) for _ in range(3000)]
    # every case is below 10^9, where the primes to 31622 make the oracle exact
    cases += [p * p * c for p in near_1000 for c in (1, 2, 3, 5, 6, 7, 30, 97, 101, 787)]
    cases += [p * q for p, q in zip(near_1000, near_1000[1:])]
    for n in cases:
        oracle = all(map(n.__mod__, squares[:bisect.bisect(squares, n)]))
        assert is_squarefree(n) == oracle, n


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
                assert is_monomial(dense_action(record.form)[0])


def test_conjugates_agree_with_the_dense_oracle(main_table_results):
    # every conjugate of the 38-row table: the integer action against
    # the dense matrix of full_action, the integer conjugate term against
    # the dense conjugate action, and the numeric scalar against the
    # embedding of the exact one
    start = unit_vector(2, SQRT3)
    with mpmath.workdps(130):
        for result in main_table_results.values():
            for record in result.conjugates:
                action, det = form_action(record.form)
                rep, dense_det = dense_action(record.form)
                assert (rep, dense_det) == (action.dense(), det)
                moved = dense_conjugate_action(rep, det, start)
                assert moved == unit_vector(record.index, record.scalar)
                scale = mpmath.expjpi(mpmath.mpf(record.k) / 36) * mpmath.sqrt(3) ** record.e
                assert abs(record.scalar.embed(130) - scale) < mpmath.mpf("1e-125")


def test_conjugates_keep_their_relative_precision():
    # n = 1000019: t_n itself is about 10^-76 and the conjugate of
    # (3, 1, 83335) about 10^25; each record agrees with t_n, or with the
    # same conjugate at twice the digits, to 115 digits of its own size
    forms = reduced_forms(-1000019)
    with mpmath.workdps(260):
        tol = mpmath.mpf(10) ** -115
        principal = conjugate_value(forms[0], 120).value
        assert mpmath.log10(abs(principal)) < -75
        assert abs(principal - ramanujan_value(1000019, 240)) < tol * abs(principal)
        large = conjugate_value(forms[1], 120)
        assert large.index == 3 and mpmath.log10(abs(large.value)) > 25
        finer = conjugate_value(forms[1], 240).value
        assert abs(large.value - finer) < tol * abs(finer)


@pytest.mark.parametrize("n", [107.0, 107.5, True, "107"])
def test_non_integer_n_rejected_by_the_invariant(n):
    message = f"n must be an integer, got {n!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ramanujan_value(n)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_polynomial(IntPolynomial.from_descending(SMALL_TABLE[107]), n)


def test_invariant_of_an_integer_n_is_unchanged():
    # t_107 at 30 digits, bit for bit as before n was validated
    assert ramanujan_value(107, 30)._mpf_ == (
        0, 49614760911182497766455874906141340245511, -137, 136)


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


@pytest.mark.parametrize("dps", [2.5, 120.0, True, "120"])
def test_non_integer_precision_rejected(dps):
    message = f"precision must be an integer, got {dps!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        eta(1j, dps)
    with pytest.raises(ValueError, match=re.escape(message)):
        compute_ramanujan(11, dps)
    with pytest.raises(ValueError, match=re.escape(message)):
        compute_hilbert(-107, dps)
    with pytest.raises(ValueError, match=re.escape(message)):
        form_root(QuadForm(1, 1, 3), dps)


def test_integral_types_are_accepted_as_precision():
    class Digits(int):
        pass

    result = compute_ramanujan(107, Digits(60))
    assert type(result.precision_digits) is int and result.precision_digits == 60
    assert result.polynomial.descending() == SMALL_TABLE[107]


@pytest.mark.parametrize("call, value", [
    (compute_ramanujan, 107.0),
    (compute_ramanujan, "107"),
    (compute_ramanujan, True),
    (is_valid_n, 107.0),
    (compute_hilbert, -107.0),
    (compute_hilbert, "-107"),
])
def test_non_integer_n_or_discriminant_rejected(call, value):
    name = "discriminant" if call is compute_hilbert else "n"
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(value)


def test_bad_residue_rejected():
    for n in (12, 24, 35 + 1, 7, -11, 0):
        with pytest.raises(ValueError, match="n must be"):
            compute_ramanujan(n)
    assert "11 mod 24" in BAD_RESIDUE_MESSAGE


def test_conjugate_value_rejects_bad_forms():
    with pytest.raises(ValueError, match=BAD_RESIDUE_MESSAGE):
        conjugate_value(QuadForm(2, 1, 3))  # D = -23
    with pytest.raises(ValueError, match="not primitive"):
        conjugate_value(QuadForm(5, 5, 15))  # content 5, D = -275
    assert conjugate_value(QuadForm(1, 1, 3), 30).index == 2
    # a non-reduced form gives the conjugate of its reduced class
    unreduced = conjugate_value(QuadForm(27, 1, 1), 60).value
    reduced = conjugate_value(QuadForm(1, 1, 27), 60).value
    assert abs(unreduced - reduced) < mpmath.mpf("1e-50")


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
    def digits(discriminant):
        return compute_hilbert(discriminant).precision_digits

    assert digits(-107) >= 30
    assert digits(-971) > digits(-107) / 4
    assert digits(-11) >= 20


def test_hilbert_validation():
    with pytest.raises(ValueError, match="not a negative discriminant"):
        compute_hilbert(-10)
    with pytest.raises(ValueError, match="not a negative discriminant"):
        compute_hilbert(11)


def test_precision_error_reports_residual():
    error = PrecisionError("failed", mpmath.mpf("0.25"))
    assert error.residual == mpmath.mpf("0.25")


def _mpf_bits(mpf):
    """An mpf's (sign, mantissa, exponent, bit count), the mantissa as int."""
    sign, man, exp, bc = mpf
    return sign, int(man), exp, bc


def _sha256(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()


def test_conjugates_and_residuals_keep_every_bit():
    # scripts/output_digest.py hashes the coefficients and the rungs only,
    # so a conjugate or a max_residual that moved by one unit would pass
    # it: these are pinned to the bit
    result = compute_ramanujan(1000019)
    rows = [(c.index, c.k, c.e, tuple(map(_mpf_bits, c.value._mpc_)))
            for c in result.conjugates]
    assert _sha256(rows) == (
        "3a9e3895d59b8a97132ae5946e380cd8014057a01d9df6f11f996b47d5c803a9")
    assert _mpf_bits(compute_ramanujan(107).max_residual._mpf_) == (0, 1, -405, 1)
    assert _sha256(_mpf_bits(result.max_residual._mpf_)) == (
        "9b4102533c56a5dc202686963129614905c39e7ea01aff59fea2b3ed5225f8c3")
    assert _sha256(_mpf_bits(compute_hilbert(-10019).max_residual._mpf_)) == (
        "872c8de9c25e4c146706d18f0adef2213b775ff71758db5babd00be1f7a0ea14")


def test_expansion_matches_oracle_on_the_table(main_table_results):
    for n, result in main_table_results.items():
        forms = [r.form for r in result.conjugates]
        values = [r.value for r in result.conjugates]
        assert _assert_expansion_matches_oracle(forms, values, result.precision_digits), n


@pytest.mark.parametrize("discriminant", [-107, -10019])
def test_expansion_matches_oracle_on_j_values(discriminant):
    assert _assert_expansion_matches_oracle(*_j_values(discriminant))


def _exact_expansion(values, paired, bits):
    """The product of the factors the pairs stand for, in exact rationals:
    the rounded ascending coefficients and the largest distance of a
    coefficient from its integer or of a real value's imaginary part
    from 0, both as the library defines them.

    With v = (vr + i vi) / 2^bits, the coefficient of t^k of a product of
    degree d is kept as the integer N_k over 2^(bits (d - k)); a factor
    t - v then maps N_k to N_(k-1) - vr N_k, and t^2 - 2 Re(v) t + |v|^2
    to N_(k-2) - 2 vr N_(k-1) + (vr^2 + vi^2) N_k, exactly."""
    numerators = [1]
    drift = 0
    for (vr, vi), pair in zip(values, paired):
        if pair:
            factor = [vr * vr + vi * vi, -2 * vr, 1]
        else:
            factor = [-vr, 1]
            drift = max(drift, abs(vi))
        product = [0] * (len(numerators) + len(factor) - 1)
        for i, c in enumerate(numerators):
            for j, f in enumerate(factor):
                product[i + j] += c * f
        numerators = product
    degree = len(numerators) - 1
    coeffs = [Fraction(c, 1 << bits * (degree - k)) for k, c in enumerate(numerators)]
    rounded = tuple(math.floor(c + Fraction(1, 2)) for c in coeffs)
    return rounded, max(Fraction(drift, 1 << bits),
                        max(abs(c - r) for c, r in zip(coeffs, rounded)))


@pytest.mark.parametrize("imaginary", ["1e-25", "1e-15"])
def test_expansion_of_hand_made_pairs_matches_exact_rationals(imaginary):
    # a real value just above 2 and the pair 1 +- i sqrt(2):
    # (t - 2)(t^2 - 2t + 3) = t^3 - 4t^2 + 7t - 6; the real value's
    # imaginary part, below or above the coefficients' distance to their
    # integers (about 3e-20), decides the residual
    digits = 30
    bits = expansion._expansion_bits(digits)
    paired = [False, True]
    with mpmath.workdps(60):
        values = [to_gaussian(mpmath.mpc(2 + mpmath.mpf("1e-20"), imaginary), bits),
                  to_gaussian(mpmath.mpc(1, mpmath.sqrt(2)), bits)]
        rounded, residual = _expand(values, paired, bits)
        expected, exact_residual = _exact_expansion(values, paired, bits)
        assert rounded == expected == (-6, 7, -4, 1)
        # the library floors each product: a few units of 2^-bits apart
        assert abs(residual - exact_residual * (1 << bits)) < 16


def _hand_made(count, bits, high, low, rng):
    """``count`` Gaussian pairs at ``bits`` and their pair flags: first a
    negative real value of size 2^high, then a pair of size 2^low, the
    real value 0, a pure imaginary pair, a real pair, a real value with
    an imaginary part of 3 units, and then random values of either sign
    in each part, of sizes 2^-6 to 2, about a quarter of them pairs;
    shuffled, so that sizes are mixed in the input."""
    def part(size):
        mantissa = rng.getrandbits(60) | 1 << 59
        shift = bits + size - 60
        value = mantissa << shift if shift >= 0 else mantissa >> -shift
        return value if rng.random() < 0.5 else -value

    special = [((-abs(part(high)), 0), False), ((part(low), -abs(part(low))), True),
               ((0, 0), False), ((0, part(0)), True), ((part(1), 0), True),
               ((part(-1), 3), False)]
    made = special[:count]
    while len(made) < count:
        made.append(((part(rng.randint(-6, 1)), part(rng.randint(-6, 1))),
                     rng.random() < 0.25))
    rng.shuffle(made)
    return [v for v, _ in made], [p for _, p in made]


def _expansion_error_bound(values, paired, bits):
    """The bound ``_sweep`` and ``_join`` state for m values, in units of
    2^-bits: 2 m M plus a unit per join, M = prod(1 + |sigma| + |pi|)
    over the factors t + sigma and t^2 + sigma t + pi, as a float."""
    log_m = 0.0
    for (vr, vi), pair in zip(values, paired):
        if pair:
            log_m += math.log2((1 << 2 * bits) + (abs(vr) << bits + 1) + vr * vr + vi * vi) - 2 * bits
        else:
            log_m += math.log2((1 << bits) + abs(vr)) - bits
    return 2 * len(values) * 2.0 ** log_m + len(values)


@pytest.mark.parametrize("count, digits, high, low", [
    (1, 240, 600, -600),
    (79, 240, 600, -600),
    (80, 240, 600, -600),
    (81, 240, 600, -600),
    (160, 60, 40, -120),
    (172, 60, 40, -120),
])
def test_grouped_expansion_matches_exact_rationals(monkeypatch, tmp_path, count, digits,
                                                   high, low):
    # below 80 values one group is swept; from 80, count // 40 groups are
    # joined pairwise, groups - 1 joins, in this process or in the helper
    # (forked with the spy in place), each of which appends a line to a
    # file; the rounded coefficients are the exact ones, and the residual
    # is within the stated error of the exact residual
    log = tmp_path / "joins"
    log.touch()
    join = expansion._join

    def spy(*args):
        with open(log, "a") as joins:
            joins.write("join\n")
        return join(*args)

    monkeypatch.setattr(expansion, "_join", spy)
    bits = expansion._expansion_bits(digits)
    values, paired = _hand_made(count, bits, high, low, random.Random(count))
    rounded, residual = _expand(values, paired, bits)
    assert len(log.read_text().splitlines()) == max(1, count // expansion.GROUP_SIZE) - 1
    expected, exact_residual = _exact_expansion(values, paired, bits)
    assert rounded == expected
    bound = _expansion_error_bound(values, paired, bits)
    assert math.log2(bound) < bits - 40  # far from deciding any rounding
    assert abs(residual - exact_residual * (1 << bits)) <= bound


def _dealt(count, bits, rng):
    """Hand-made factors (s, p) of 2 count + 7 small values, dealt
    round-robin into count groups as ``_expand_and_round`` deals them."""
    values, paired = _hand_made(2 * count + 7, bits, 6, -60, rng)
    factors = [(-2 * vr, (vr * vr + vi * vi) >> bits) if pair else (-vr, None)
               for (vr, vi), pair in zip(values, paired)]
    return [factors[g::count] for g in range(count)]


def _bottom_up_product(groups, bits):
    """The join tree as first written: every group swept, then neighbours
    joined pairwise, level by level, an odd one out carried up a level."""
    polys = [expansion._sweep(group, bits) for group in groups]
    while len(polys) > 1:
        polys = [expansion._join(*polys[i:i + 2], bits) if i + 1 < len(polys) else polys[i]
                 for i in range(0, len(polys), 2)]
    return polys[0]


def test_product_recursion_is_the_bottom_up_tree(monkeypatch):
    # every join floors, so a tree of another shape (a cut at the
    # midpoint, say) moves low bits; the recursion must join exactly the
    # operands of the pairwise loop, g - 1 times, for every g
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    bits = expansion._expansion_bits(30)
    join = expansion._join
    for count in range(1, 71):
        groups = _dealt(count, bits, random.Random(count))
        expected = _bottom_up_product(groups, bits)
        joins = []
        with monkeypatch.context() as patch:
            patch.setattr(expansion, "_join",
                          lambda *args: joins.append(1) or join(*args))
            assert expansion._product(groups, bits) == expected
        assert len(joins) == count - 1


@pytest.mark.parametrize("kinds", ["L", "Q", "LQQLQLLQQ", "QLLQQLQQL", "LLLLL", "QQQQ"])
def test_sweep_windows_are_the_serial_sweep(kinds):
    # hand-made factors, t + s for L and t^2 + s t + p for Q, s of either
    # sign (the first negative): coefficient i of a step reads only i,
    # i - 1 and i - 2 of the step before, so for every cut the window
    # below it, which hands over its top two coefficients before each
    # step, and the window from the cut up, which reads them, are the
    # serial sweep bit for bit
    rng = random.Random(kinds)
    bits = 64
    factors = [((-1 if i == 0 else rng.choice((-1, 1))) * rng.getrandbits(bits + 20),
                None if kind == "L" else rng.getrandbits(bits + 40))
               for i, kind in enumerate(kinds)]
    serial = expansion._sweep(factors, bits)
    degree = expansion._degree(factors)
    assert len(serial) == degree + 1 and serial[-1] == 1 << bits
    for cut in range(1, degree + 1):
        below = []
        low = expansion._sweep(factors, bits, 0, cut, send=below.append)
        assert len(below) == len(factors)
        high = expansion._sweep(factors, bits, cut, degree + 1, iter(below))
        assert (len(low), len(high)) == (cut, degree + 1 - cut)
        assert low + high == serial


def test_join_unpacks_signed_coefficients():
    bits = 20
    cases = [
        # every coefficient of the product negative, at very different sizes
        ([-(1 << 300) + 7, -1, -(1 << 40), -5], [3, 1 << 200, 9, 1]),
        ([-1] * 41, [-(1 << 64) + 1] * 40),
        # coefficients near the slot limit: 60 (2^100 - 1)(2^101 - 1) is
        # above 2^206 in 208-bit slots, and 60 (2^100 - 1)(2^99 - 1) needs
        # the bits for the 60 terms beyond 2^100 2^99
        ([-(1 << 100) + 1] * 60, [(1 << 101) - 1] * 60),
        ([-(1 << 100) + 1] * 60, [(1 << 99) - 1] * 60),
        ([-(1 << 100)] * 3, [-(1 << 100)] * 3),
        ([0, -3, 0, 1 << 90], [-(1 << 90), 0, 5]),
        ([-1], [-1]),
    ]
    for a, b in cases:
        exact = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
                 for k in range(len(a) + len(b) - 1)]
        assert expansion._join(a, b, bits) == [c >> bits for c in exact]
    assert all(c < 0 for c in expansion._join(*cases[0], 0))


def _exact_floors(a, b, bits):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) >> bits
            for k in range(len(a) + len(b) - 1)]


def _wide_operands(count, low, rng):
    """Two lists of ``count`` coefficients of random sign, each at least
    2^low and below 2^(low + 200)."""
    return [[rng.choice((-1, 1)) * ((1 << low) + rng.getrandbits(low + 200))
             for _ in range(count)] for _ in range(2)]


@pytest.mark.parametrize("limit", [None, 640])
def test_join_reads_slots_wider_than_the_int_string_limit(monkeypatch, limit):
    # coefficients of at least 2^15000 give product slots of over 9000
    # digits, past the default 4300-digit int <-> str limit: each slot is
    # read in pieces, here also under the lowest limit Python accepts
    if limit is not None:
        monkeypatch.setattr(expansion, "_str_digits_limit", lambda: limit)
    a, b = _wide_operands(5, 15000, random.Random(15000))
    bits = 7000
    assert expansion._join(a, b, bits) == _exact_floors(a, b, bits)


def test_join_leaves_the_decimal_context_and_int_limit_alone():
    # the join multiplies in its own context, whatever the current one
    # says, and converts without touching the int <-> str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    a, b = _wide_operands(4, 15000, random.Random(4))
    with decimal.localcontext() as ambient:
        ambient.prec = 5
        ambient.traps[decimal.Inexact] = True
        before = repr(ambient)
        assert expansion._join(a, b, 100) == _exact_floors(a, b, 100)
        assert decimal.getcontext() is ambient
        assert repr(ambient) == before
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_expansion_rejects_non_integral_input():
    forms, values, digits = _j_values(-107)
    values[1] += mpmath.mpf(1) / 3
    assert not _assert_expansion_matches_oracle(forms, values, digits)


def _perturbed_611(main_table_results, paired_member, shift):
    """The forms, values and digits of n = 611, with the first evaluated
    value that is (or is not) a pair member moved by ``shift``."""
    result = main_table_results[611]
    forms = [r.form for r in result.conjugates]
    values = [r.value for r in result.conjugates]
    evaluated = [i for i, f in enumerate(forms) if f.b >= 0]
    moved = next(i for i, pair in zip(evaluated, _paired(forms))
                 if pair == paired_member)
    digits = result.precision_digits
    with mpmath.workdps(digits + GUARD_DIGITS):
        values[moved] += shift
    return forms, values, digits


@pytest.mark.parametrize("shift", [mpmath.mpf("1e-5"), mpmath.mpc(0, "1e-5")])
def test_expansion_rejects_a_perturbed_pair_member(main_table_results, shift):
    # the evaluated member of a mirrored pair is moved off its value while
    # its mirror keeps the exact conjugate: the oracle sees nonreal or
    # non-integral coefficients, the real expansion a quadratic factor
    # that no longer rounds
    forms, values, digits = _perturbed_611(main_table_results, True, shift)
    assert not _assert_expansion_matches_oracle(forms, values, digits)


def test_expansion_keeps_the_imaginary_part_of_real_values(main_table_results):
    # a value taken as real that is not real fails the residual, which
    # reports its imaginary part, as the oracle's imaginary coefficients do
    forms, values, digits = _perturbed_611(main_table_results, False,
                                           mpmath.mpc(0, "1e-5"))
    assert not _assert_expansion_matches_oracle(forms, values, digits)
    bits = expansion._expansion_bits(digits)
    _, residual = _expand(_evaluated(forms, values, digits), _paired(forms), bits)
    assert abs(from_gaussian(residual, 0, bits).real - mpmath.mpf("1e-5")) < mpmath.mpf("1e-12")


def _prime_count(n):
    """The number of distinct primes that divide n, by trial division."""
    count, d = 0, 2
    while d * d <= n:
        if n % d == 0:
            count += 1
            while n % d == 0:
                n //= d
        d += 1
    return count + (n > 1)


def test_mirror_rule(main_table_results):
    # the rule, sigma_-1 derived from ETA_QUOTIENTS, and stated here
    perm, c, _ = zip(*monomial_sigma(-1).rows)
    assert perm == (0, 2, 1, 4, 3, 5)
    assert c == (0, 69, 69, 69, 69, 66)
    # against the exact action of every pair of 10019 and 100019 (the
    # table's n are the mirror-rule selftest suite's); the check also
    # asks that the forms with b < 0 be exactly the mirrors of the forms
    # with b > 0 that are not ambiguous
    assert MIRROR_RULE_NS == tuple(MAIN_TABLE)
    result = check_mirror_rule((10019, 100019))
    assert result.passed, result.detail
    # genus theory: 2^(omega(n) - 1) ambiguous classes, whose values are real
    for n in (*MAIN_TABLE, 10019, 100019, 1000019):
        if is_squarefree(n):
            paired = _paired(reduced_forms(-n))
            assert paired.count(False) == 2 ** (_prime_count(n) - 1), n
    assert _paired(reduced_forms(-1000019)).count(False) == 2
    assert _paired(reduced_forms(-100019)).count(False) == 1
    # a stored mirror value is the conjugate of its partner's, and it
    # agrees with a direct evaluation at the mirror's own root
    with mpmath.workdps(130):
        for n in (107, 251, 611):
            records = main_table_results[n].conjugates
            value_of = {r.form: r.value for r in records}
            for record in records:
                if record.form.b < 0:
                    partner = QuadForm(record.form.a, -record.form.b, record.form.c)
                    assert record.value == mpmath.conj(value_of[partner])
                    direct = conjugate_value(record.form, DEFAULT_DIGITS).value
                    assert abs(direct - record.value) < mpmath.mpf("1e-110")


def test_each_mirror_takes_the_data_of_the_form_before_it():
    # the forms with b >= 0 keep their own data, in list order; a form
    # with b < 0 takes the mirror of the data of the form before it, so
    # mirroring the forms themselves must give each form back
    for n in (611, 10019):
        forms = reduced_forms(-n)
        own = [f for f in forms if f.b >= 0]
        assert classpoly._with_mirrors(
            forms, own, lambda f: QuadForm(f.a, -f.b, f.c)) == forms


FORKED = int(hasattr(os, "fork"))
"""Helpers forked by a test that shares work on two usable CPUs (none where
os.fork is missing): conftest's ``fresh_helper`` stops the helper around
every test that uses monkeypatch, so such a test starts with none."""

_ONE_FACTOR = ([[(1, None)]], 0)
"""``_product`` arguments for the polynomial t + 1 at 0 bits, a node of
one group of one factor: a task for the helper that returns [1, 1]."""


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so that a rung of two forms
    or more whose work reaches FORK_MIN_WORK is evaluated on two
    processes, and an expansion of two groups or more is split over
    two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _fork_spy(monkeypatch):
    """A list that gains one entry per ``os.fork`` call in this process
    (and stays empty where ``os.fork`` is missing)."""
    forks = []
    original = getattr(os, "fork", None)
    if original is not None:
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or original())
    return forks


def _share_spy(monkeypatch, sent=None):
    """A list that gains (task, shared) per ``classpoly._shared`` call in
    this process, shared being whether the helper's result came back;
    ``sent``, if given, gains the task's arguments."""
    shares = []
    original = classpoly._shared

    def spy(own, task, *args, **kwargs):
        if sent is not None:
            sent.append(args)
        result = original(own, task, *args, **kwargs)
        shares.append((task, result is not None))
        return result

    monkeypatch.setattr(classpoly, "_shared", spy)
    return shares


def _helper_pid():
    """The pid of this process's helper, None when it has none."""
    return helper._helper and helper._helper[0]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_helper_alive():
    pid = _helper_pid()
    assert pid is not None and os.waitpid(pid, os.WNOHANG) == (0, 0)


class _Rung(Exception):
    pass


def _exact(results):
    """Evaluated tuples as plain data: the ints before each value, then
    the value's ``_mpc_`` parts."""
    return [(*data, value._mpc_) for *data, value in results]


def _first_rung(monkeypatch, compute, *args):
    """The (evaluate, rows, digits) that ``compute(*args)`` hands
    ``_evaluate_all`` for its first rung; nothing is evaluated."""
    def capture(evaluate, rows, digits):
        raise _Rung(evaluate, rows, digits)

    with monkeypatch.context() as patch:
        patch.setattr(classpoly, "_evaluate_all", capture)
        with pytest.raises(_Rung) as rung:
            compute(*args)
    return rung.value.args


def test_one_evaluation_per_mirrored_pair(monkeypatch, tmp_path, two_cpus):
    # 170 pairs and 2 real forms among the 342 of n = 1000019, 30 pairs
    # and 1 real form among the 61 of D = -30011.  Each rung is evaluated
    # on two processes, so every call, in either, appends a line to a
    # file.  One helper, forked with the spies in place, evaluates and
    # expands for n = 1000019 (four groups) and evaluates for D = -30011,
    # whose one group's sweep it shares, split by coefficients
    log = tmp_path / "calls"
    for name in ("r_value", "j_invariant"):
        original = getattr(classpoly, name)

        def spy(*args, _original=original, **kwargs):
            with open(log, "a") as calls:
                calls.write("call\n")
            return _original(*args, **kwargs)

        monkeypatch.setattr(classpoly, name, spy)
    forks = _fork_spy(monkeypatch)
    shares = _share_spy(monkeypatch)
    assert compute_ramanujan(1000019).class_number == 342
    assert len(log.read_text().splitlines()) == 172
    assert len(forks) == FORKED
    log.unlink()
    assert compute_hilbert(-30011).class_number == 61
    assert len(log.read_text().splitlines()) == 31
    assert len(forks) == FORKED
    assert shares == [("_sent_values", bool(FORKED)), ("_product", bool(FORKED)),
                      ("_sent_values", bool(FORKED)), ("_sweep", bool(FORKED))]


@pytest.mark.parametrize("compute, args", [(compute_ramanujan, (100019, 120)),
                                           (compute_hilbert, (-20051,)),
                                           (compute_ramanujan, (131,))],
                         ids=["ramanujan-100019", "hilbert-20051", "ramanujan-131"])
def test_forked_values_are_the_serial_values(monkeypatch, two_cpus, compute, args):
    # n = 100019 at 120 digits (work 97 * 120), D = -20051 at 786
    # (28 * 786) and the table's n = 131 at 120 (3 * 120, the smallest
    # shared): the helper's values come back bit for bit
    evaluate, rows, digits = _first_rung(monkeypatch, compute, *args)
    assert len(rows) > 1 and len(rows) * digits >= classpoly.FORK_MIN_WORK
    serial = _exact(classpoly._values(evaluate, rows, digits))
    forks = _fork_spy(monkeypatch)
    shares = _share_spy(monkeypatch)
    shared = classpoly._evaluate_all(evaluate, rows, digits)
    assert len(forks) == FORKED
    assert shares == [("_sent_values", bool(FORKED))]
    assert _exact(shared) == serial


class _NoValue(Exception):
    pass


@pytest.mark.parametrize("failing", [(3,), (2,), (3, 4)],
                         ids=["child", "parent", "both"])
def test_a_failing_share_raises_the_serial_exception(monkeypatch, two_cpus, failing):
    # the helper (the child) evaluates rows[1::2] and this process
    # rows[0::2]; when both shares fail, the serial loop fails first on
    # row 3.  The helper is forked after the patch, so it fails too
    evaluate, rows, digits = _first_rung(monkeypatch, compute_hilbert, -10019)
    assert evaluate == "_j_number"
    assert len(rows) * digits >= classpoly.FORK_MIN_WORK
    bad = [rows[i] for i in failing]
    original = classpoly._j_number

    def j_or_fail(a, b, c, digits):
        if (a, b, c) in bad:
            raise _NoValue(f"no value at {(a, b, c)}")
        return original(a, b, c, digits)

    monkeypatch.setattr(classpoly, "_j_number", j_or_fail)
    with pytest.raises(_NoValue) as serial:
        classpoly._values(evaluate, rows, digits)
    forks = _fork_spy(monkeypatch)
    with pytest.raises(_NoValue) as shared:
        classpoly._evaluate_all(evaluate, rows, digits)
    assert len(forks) == FORKED
    assert shared.value.args == serial.value.args == (f"no value at {rows[failing[0]]}",)
    if FORKED and failing == (3,):
        # the helper replied that its share raised, and stays
        _assert_helper_alive()
    elif FORKED:
        # this process's share raised with the reply unread: the helper
        # was killed and reaped, and no child is left behind
        assert _helper_pid() is None
        _assert_no_child()


def test_one_helper_for_the_table_none_for_a_second_thread_or_one_cpu(monkeypatch,
                                                                      two_cpus):
    # the table's rungs are 3 to 8 forms at 120 digits: every row but
    # n = 107, whose 2 forms are below FORK_MIN_WORK, is shared, and one
    # helper serves all 37
    forks = _fork_spy(monkeypatch)
    shares = _share_spy(monkeypatch)
    for n in sorted(MAIN_TABLE):
        assert compute_ramanujan(n).polynomial.descending() == MAIN_TABLE[n]
    assert len(forks) == FORKED
    assert shares == [("_sent_values", bool(FORKED))] * 37
    expected = compute_hilbert(-20051).polynomial
    assert len(forks) == FORKED
    shares.clear()
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert compute_hilbert(-20051).polynomial == expected
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert compute_hilbert(-20051).polynomial == expected
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert compute_hilbert(-20051).polynomial == expected
    # the guards refused each call, the evaluation's and the sweep's:
    # nothing was sent, nothing forked
    assert shares == [("_sent_values", False), ("_sweep", False)] * 3
    assert len(forks) == FORKED


def test_small_polynomials_fork_nothing(monkeypatch, two_cpus):
    # compute_ramanujan(11) is what the benchmark's setup_s times, in a
    # fresh interpreter: one form, and n = 107 has two, below FORK_MIN_WORK
    forks = _fork_spy(monkeypatch)
    shares = _share_spy(monkeypatch)
    assert compute_ramanujan(11).polynomial.descending() == (1, -1)
    assert compute_ramanujan(107).polynomial.descending() == MAIN_TABLE[107]
    assert forks == [] and shares == [] and _helper_pid() is None


@pytest.fixture(scope="module")
def expansions():
    """The (values, paired, bits) that ``compute_ramanujan(n)`` hands
    ``expansion._expand_and_round`` on the rung it rounds, for n = 10019
    (16 values at 120 digits, one group), n = 100019 (97 values at 120
    digits, two groups) and n = 1000019 (172 values at 240 digits, four
    groups)."""
    captured = {}
    original = expansion._expand_and_round
    with pytest.MonkeyPatch.context() as patch:
        for n in (10019, 100019, 1000019):
            def spy(*args, _n=n):
                captured[_n] = args[:3]
                return original(*args)

            patch.setattr(expansion, "_expand_and_round", spy)
            compute_ramanujan(n)
    return captured


def _serial_expansion(monkeypatch, case):
    """The expansion on one usable CPU, which shares nothing."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return _expand(*case)


@pytest.mark.parametrize("groups", [4, 2, 3, 5, 6, 7, 9, 15, 17])
def test_split_expansion_is_the_serial_expansion(monkeypatch, two_cpus, expansions,
                                                 groups):
    # n = 1000019's 172 values at 240 digits, in its own four groups and
    # dealt into g others: the two processes form the root's two
    # children, the helper the groups after the first 2^(ceil(log2 g) - 1)
    # and this process those and then the root's join (4: 2 + 2; 1 + 1,
    # 2 + 1, 4 + 1, 4 + 2, 4 + 3, 8 + 1, 8 + 7, 16 + 1, the last three
    # with the odd group carried to the top), so every join, floored, has
    # its serial inputs: the coefficients and the residual keep every bit.
    # The helper is sent its child as it stands: the root's list of
    # groups from the cut on, and the bits
    case = expansions[1000019]
    values, _, bits = case
    assert bits == expansion._expansion_bits(240)
    assert len(values) // expansion.GROUP_SIZE == 4
    monkeypatch.setattr(expansion, "GROUP_SIZE", len(values) // groups)
    assert len(values) // expansion.GROUP_SIZE == groups
    serial = _serial_expansion(monkeypatch, case)
    roots = []
    product = classpoly._shared_product

    def root_spy(node, bits):
        roots.append((node, bits))
        return product(node, bits)

    monkeypatch.setattr(classpoly, "_shared_product", root_spy)
    forks = _fork_spy(monkeypatch)
    sent = []
    shares = _share_spy(monkeypatch, sent)
    assert _expand(*case) == serial
    assert len(forks) == FORKED
    assert shares == [("_product", bool(FORKED))]
    (root, root_bits), = roots
    assert len(root) == groups and sum(map(len, root)) == len(values)
    assert root_bits == bits
    cut = 2 ** (math.ceil(math.log2(groups)) - 1)
    assert sent == [(root[cut:], bits)]


def test_shared_root_is_the_bottom_up_tree_for_every_width(monkeypatch, two_cpus):
    # the shared root of g = 2 to 70 groups of small hand-made factors:
    # the helper forms the second child, sent as it stands, and the
    # root's join has the serial inputs, so the product is the pairwise
    # loop's bit for bit; one helper serves every g
    bits = expansion._expansion_bits(30)
    forks = _fork_spy(monkeypatch)
    shares = _share_spy(monkeypatch)
    for count in range(2, 71):
        groups = _dealt(count, bits, random.Random(count))
        assert classpoly._shared_product(groups, bits) == _bottom_up_product(groups, bits)
    assert len(forks) == FORKED
    assert shares == [("_product", bool(FORKED))] * 69


def test_a_failing_expansion_child_gives_the_serial_result(monkeypatch, two_cpus,
                                                           expansions):
    case = expansions[1000019]
    serial = _serial_expansion(monkeypatch, case)
    caller = os.getpid()
    original = expansion._sweep
    swept = []

    def sweep(factors, bits):
        if os.getpid() != caller:
            raise _NoValue("no sweep in the helper")
        swept.append(1)
        return original(factors, bits)

    # the helper is forked after this patch, so its sweeps raise
    monkeypatch.setattr(expansion, "_sweep", sweep)
    forks = _fork_spy(monkeypatch)
    assert _expand(*case) == serial
    assert len(forks) == FORKED
    # this process swept its own two groups, then all four again
    assert len(swept) == 2 * FORKED + 4
    if FORKED:
        # the helper replied that its share raised, and stays
        _assert_helper_alive()


def test_no_split_below_the_threshold_a_second_thread_or_one_cpu(monkeypatch, two_cpus,
                                                                 expansions):
    # one group is swept in this process; two groups or more are split
    two = expansions[100019]
    two_serial = _serial_expansion(monkeypatch, two)
    forks = _fork_spy(monkeypatch)
    shares = _share_spy(monkeypatch)
    small = expansions[10019]
    values, _, _ = small
    assert len(values) // expansion.GROUP_SIZE < 2
    _expand(*small)
    assert forks == [] and shares == []
    # n = 100019's two groups at 120 digits, the smallest tree, are split
    assert len(two[0]) // expansion.GROUP_SIZE == 2
    assert _expand(*two) == two_serial
    assert len(forks) == FORKED
    assert shares == [("_product", bool(FORKED))]
    shares.clear()
    large = expansions[1000019]
    expected = _expand(*large)
    assert shares == [("_product", bool(FORKED))]
    shares.clear()
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert _expand(*large) == expected
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _expand(*large) == expected
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _expand(*large) == expected
    assert shares == [("_product", False)] * 3
    assert len(forks) == FORKED


@pytest.fixture(scope="module")
def hilbert_expansion():
    """The (values, paired, bits) that ``compute_hilbert(-20051)`` hands
    ``expansion._expand_and_round``: 28 values at 786 digits, one group,
    whose sweep is split by coefficients."""
    captured = []
    original = expansion._expand_and_round
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expansion, "_expand_and_round",
                      lambda *args: captured.append(args[:3]) or original(*args))
        compute_hilbert(-20051)
    return captured[-1]


def _assert_a_shared_rung_is_serial(monkeypatch):
    """A shared evaluation of a Hilbert rung gives the serial values bit for
    bit, from a helper in step with its tasks."""
    evaluate, rows, digits = _first_rung(monkeypatch, compute_hilbert, -10019)
    serial = _exact(classpoly._values(evaluate, rows, digits))
    shares = _share_spy(monkeypatch)
    assert _exact(classpoly._evaluate_all(evaluate, rows, digits)) == serial
    assert shares == [("_sent_values", bool(FORKED))]


@pytest.mark.parametrize("step", [0, 13, 27])
@pytest.mark.parametrize("dies", [False, True], ids=["raises", "killed"])
def test_a_failing_sweep_share_gives_the_serial_expansion(monkeypatch, two_cpus,
                                                          hilbert_expansion, dies, step):
    # the helper's share raises, or the helper dies, at the given step of
    # 28, and this process sweeps serially.  When a share raises, the
    # helper's loop reads the pairs of the steps left and replies so: the
    # helper stays, in step with the next task.  A dead helper fails this
    # process's next pair or its read of the reply: it is reaped, and the
    # next shared call forks a new one
    import signal

    values, paired, bits = hilbert_expansion
    assert bits == expansion._expansion_bits(786)
    assert len(values) == 28 and len(values) < 2 * expansion.GROUP_SIZE
    degree = len(values) + sum(paired)
    assert degree ** 2 * bits >= classpoly.SPLIT_SWEEP_MIN_WORK
    serial = _serial_expansion(monkeypatch, hilbert_expansion)
    caller = os.getpid()
    original = expansion._sweep

    def failing(pairs):
        for i, pair in enumerate(pairs):
            if i == step:
                if dies:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise _NoValue(f"no step {step}")
            yield pair

    def sweep(factors, bits, low=0, high=None, below=None, send=None):
        if os.getpid() != caller and below is not None:
            below = failing(below)
        return original(factors, bits, low, high, below, send)

    # the helper is forked after this patch, so its share fails
    monkeypatch.setattr(expansion, "_sweep", sweep)
    shares = _share_spy(monkeypatch)
    assert _expand(*hilbert_expansion) == serial
    assert shares == [("_sweep", False)]
    if dies:
        assert _helper_pid() is None
        _assert_no_child()
    elif FORKED:
        _assert_helper_alive()
    _assert_a_shared_rung_is_serial(monkeypatch)
    if FORKED:
        _assert_helper_alive()


def test_shared_runs_nothing_unless_the_guards_hold(monkeypatch, two_cpus):
    forks = _fork_spy(monkeypatch)
    ran = []

    def own():
        ran.append("own")
        return 1

    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert classpoly._shared(own, "_product", *_ONE_FACTOR) is None
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert classpoly._shared(own, "_product", *_ONE_FACTOR) is None
        patch.delattr(os, "sched_getaffinity", raising=False)
        patch.setattr(os, "cpu_count", lambda: 1)
        assert classpoly._shared(own, "_product", *_ONE_FACTOR) is None
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork", raising=False)
        assert classpoly._shared(own, "_product", *_ONE_FACTOR) is None
    assert forks == [] and ran == [] and _helper_pid() is None
    # with every guard met, both shares run, and one helper serves every call
    for _ in range(3):
        assert classpoly._shared(own, "_product", *_ONE_FACTOR) == (
            (1, [1, 1]) if FORKED else None)
    assert len(forks) == FORKED and ran == ["own"] * 3 * FORKED


def test_a_failing_fork_closes_both_pipe_ends(monkeypatch, two_cpus):
    # every end of both pipes, the task pipe's and the reply pipe's
    pipes = []
    original = os.pipe

    def pipe():
        pipes.append(original())
        return pipes[-1]

    def fork():
        raise OSError("no fork")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    assert classpoly._shared(lambda: 1, "_product", *_ONE_FACTOR) is None
    assert len(pipes) == 2 and _helper_pid() is None
    for end in pipes[0] + pipes[1]:
        with pytest.raises(OSError):
            os.fstat(end)


def _add_tasks(monkeypatch, *names):
    """Add this module's functions of the given names to the helper's
    tasks (``helper.TASKS``); a helper forked after this runs them."""
    for name in names:
        monkeypatch.setitem(helper.TASKS, name, sys.modules[__name__])


def _refused(*args):
    raise ValueError("no share")


def _slow(*args):
    time.sleep(30)
    return 2


@pytest.mark.parametrize("own, task", [(_refused, "_slow"), (lambda: 1, "_refused")],
                         ids=["own", "child"])
def test_a_failing_share_gives_none_and_leaves_no_child(monkeypatch, two_cpus, own, task):
    # a helper still sleeping in its share is killed, not waited for; a
    # helper whose share raised replies so and serves the next call.  The
    # helper is forked after the two tasks are added to its table
    _add_tasks(monkeypatch, "_slow", "_refused")
    start = time.monotonic()
    assert classpoly._shared(own, task) is None
    assert time.monotonic() - start < 10
    if FORKED:
        assert (_helper_pid() is None) == (task == "_slow")
        if task == "_slow":
            _assert_no_child()
        assert classpoly._shared(lambda: 1, "_product", *_ONE_FACTOR) == (1, [1, 1])
        helper._stop_helper()
        _assert_no_child()


def _first_message(messages):
    return next(messages)


def test_a_stream_task_that_leaves_messages_unread_keeps_the_helper(monkeypatch,
                                                                     two_cpus):
    # the task returns after reading one of the three messages sent to it:
    # the helper's loop reads the other two and the stream's end, so the
    # same helper reads the next task in step and serves it
    _add_tasks(monkeypatch, "_first_message")

    def own(send):
        for message in [(1, 2), (3, 4), (5, 6)]:
            send(message)
        return 0

    shared = classpoly._shared(own, "_first_message", stream=True)
    if not FORKED:
        assert shared is None
        return
    assert shared == (0, (1, 2))
    pid = _helper_pid()
    _assert_helper_alive()
    assert classpoly._shared(lambda: 1, "_product", *_ONE_FACTOR) == (1, [1, 1])
    assert _helper_pid() == pid
    _assert_helper_alive()


def test_an_interrupt_in_the_callers_share_propagates(monkeypatch, two_cpus):
    # a KeyboardInterrupt is no failure to fall back from: the helper,
    # still sleeping in its share, is killed and reaped
    _add_tasks(monkeypatch, "_slow")

    def interrupted():
        raise KeyboardInterrupt

    if not FORKED:
        assert classpoly._shared(interrupted, "_slow") is None
        return
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        classpoly._shared(interrupted, "_slow")
    assert time.monotonic() - start < 10
    assert _helper_pid() is None
    _assert_no_child()


def test_an_interrupt_while_a_task_is_sent_stops_the_helper(monkeypatch, two_cpus):
    # the interrupt leaves part of a length prefix in the task pipe, which
    # the helper would read as the start of its next task: it is killed
    # and reaped, and the interrupt propagates
    first = classpoly._shared(lambda: 1, "_product", *_ONE_FACTOR)
    if not FORKED:
        assert first is None
        return
    assert first == (1, [1, 1])
    _assert_helper_alive()

    def interrupted(pipe, data):
        pipe.write(b"\x05\x00\x00")
        pipe.flush()
        raise KeyboardInterrupt

    monkeypatch.setattr(helper, "_send", interrupted)
    with pytest.raises(KeyboardInterrupt):
        classpoly._shared(lambda: 1, "_product", *_ONE_FACTOR)
    assert helper._helper is None
    _assert_no_child()


def test_a_helper_killed_between_calls_is_replaced(monkeypatch, two_cpus):
    # the evaluation that finds the helper dead runs serially, and reaps
    # it; the expansion forks a new one: the results keep every bit
    expected = compute_ramanujan(100019)
    if not FORKED:
        return
    import signal

    first = _helper_pid()
    assert first is not None
    os.kill(first, signal.SIGKILL)
    shares = _share_spy(monkeypatch)
    again = compute_ramanujan(100019)
    assert shares == [("_sent_values", False), ("_product", True)]
    assert again.polynomial == expected.polynomial
    assert again.max_residual._mpf_ == expected.max_residual._mpf_
    assert _helper_pid() not in (None, first)
    with pytest.raises(ChildProcessError):
        os.waitpid(first, os.WNOHANG)


def test_a_forked_copy_forks_its_own_helper(two_cpus):
    # a process forked from this one closes its copies of the helper's
    # pipes and forgets it, so it never writes into them; its own shared
    # call forks its own helper, and this process's helper still serves
    if not FORKED:
        return
    assert classpoly._shared(lambda: 1, "_product", *_ONE_FACTOR) == (1, [1, 1])
    pid = _helper_pid()
    ends = [pipe.fileno() for pipe in helper._helper[1:]]
    copy = os.fork()
    if copy == 0:
        status = 1
        try:
            forgot = helper._helper is None
            closed = []
            for end in ends:
                try:
                    os.fstat(end)
                except OSError:
                    closed.append(end)
            served = classpoly._shared(lambda: 1, "_product", *_ONE_FACTOR) == (1, [1, 1])
            own = _helper_pid() not in (None, pid)
            helper._stop_helper()
            status = 0 if forgot and closed == ends and served and own else 2
        finally:
            os._exit(status)
    assert os.waitpid(copy, 0)[1] == 0
    assert _helper_pid() == pid
    assert classpoly._shared(lambda: 1, "_product", *_ONE_FACTOR) == (1, [1, 1])


def _run_python(code, timeout=120):
    """Run ``code`` in a fresh interpreter that imports classinv from
    this source tree, returning the finished process."""
    source = os.path.dirname(os.path.dirname(classpoly.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=timeout)


@pytest.mark.parametrize("leave", ["", "os._exit(0)"], ids=["exit", "os-exit"])
def test_no_helper_outlives_the_interpreter(leave):
    # at a normal exit an atexit hook closes the helper's task pipe and
    # reaps it.  Without atexit (os._exit), the helper sees its task
    # pipe end and exits: it holds a copy of the interpreter's stdout,
    # so subprocess.run returns only once the helper has exited too
    code = "\n".join([
        "import os, sys",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "import classinv.classpoly as classpoly",
        "assert classpoly.compute_ramanujan(100019).class_number == 193",
        "helper = sys.modules.get('classinv.helper')",
        "print(helper and helper._helper and helper._helper[0])",
        "sys.stdout.flush()",
        leave,
    ])
    done = _run_python(code, timeout=60)
    assert done.returncode == 0, done.stderr
    if not FORKED:
        assert done.stdout.split() == ["None"]
        return
    pid = int(done.stdout)
    if not leave:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_importing_and_computing_loads_no_signal_module():
    # signal is imported on the kill path only; P_1000019 shares its
    # evaluation and its expansion with one helper on two usable CPUs,
    # and kills none
    code = "\n".join([
        "import os, sys",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "forks = []",
        "if hasattr(os, 'fork'):",
        "    fork = os.fork",
        "    os.fork = lambda: forks.append(1) or fork()",
        "from classinv.classpoly import compute_ramanujan",
        "assert compute_ramanujan(107).class_number == 3",
        "assert compute_ramanujan(1000019).class_number == 342",
        "print(len(forks), 'signal' in sys.modules)",
    ])
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(FORKED), "False"]


def test_form_action_runs_once_per_form_with_b_at_least_0(monkeypatch):
    # a form with b < 0 takes its term from its mirror's by the rule.  On
    # one usable CPU every form is evaluated, with its action, here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = []
    original = classpoly.form_action
    monkeypatch.setattr(classpoly, "form_action",
                        lambda form: seen.append(form) or original(form))
    for n in (107, 10019, 100019):
        seen.clear()
        compute_ramanujan(n)
        own = [f for f in reduced_forms(-n) if f.b >= 0]
        assert sorted(seen) == sorted(own) and len(set(seen)) == len(own), n


def test_every_term_is_its_own_exact_action(main_table_results):
    # the mirrors' terms, taken by the rule, against the exact action of
    # each record's own form, for the table and the three large n
    results = [*main_table_results.values(),
               *(compute_ramanujan(n) for n in (10019, 100019, 1000019))]
    for result in results:
        for record in result.conjugates:
            exact = conjugate_action(*form_action(record.form), SQRT3_F2)
            assert (record.index, record.k, record.e) == exact, record.form


@pytest.mark.parametrize("n, distinct", [(1000019, 36), (100019, 36), (10019, 22)])
def test_one_scalar_per_distinct_k_and_e(monkeypatch, n, distinct):
    # the exact scalars are built once per distinct (k, e) of the
    # polynomial, and the records with equal (k, e) share one object
    calls = []
    monkeypatch.setattr(classpoly, "monomial_entry",
                        lambda k, e: calls.append((k, e)) or monomial_entry(k, e))
    records = compute_ramanujan(n).conjugates
    shared = {}
    for record in records:
        assert record.scalar == monomial_entry(record.k, record.e), record.form
        assert shared.setdefault((record.k, record.e), record.scalar) is record.scalar
    assert len(calls) == len(set(calls)) == len(shared) == distinct


def _phase_lookups(evaluate):
    """(hits, misses) of the phase table (numeval._cos_sin_pi) during
    evaluate(), in this process."""
    before = numeval._cos_sin_pi.cache_info()
    evaluate()
    after = numeval._cos_sin_pi.cache_info()
    return after.hits - before.hits, after.misses - before.misses


def test_the_table_shares_29_phases_among_177_conjugates(monkeypatch):
    # the paper's table evaluates 177 forms, whose points tau/36 have 29
    # distinct real parts at their precisions: on one usable CPU each
    # phase is computed once.  On two, this process evaluates 100 forms,
    # every second of each shared row and both of n = 107's (the helper
    # the other 77), and computes 22 phases
    assert len(MAIN_TABLE) == 38
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    numeval._cos_sin_pi.cache_clear()
    assert _phase_lookups(lambda: [compute_ramanujan(n) for n in MAIN_TABLE]) == (148, 29)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    numeval._cos_sin_pi.cache_clear()
    assert _phase_lookups(lambda: [compute_ramanujan(n) for n in MAIN_TABLE]) == (
        (78, 22) if hasattr(os, "fork") else (148, 29))


def test_a_repeated_large_n_reads_no_phase_from_the_table():
    # the 64-entry table does not hold one evaluation of n = 1000019, so
    # computing it again finds no more phases there than the first time
    numeval._cos_sin_pi.cache_clear()
    first = _phase_lookups(lambda: compute_ramanujan(1000019))
    second = _phase_lookups(lambda: compute_ramanujan(1000019))
    assert first[0] == second[0] == 0
    assert first[1] == second[1] > 64


def test_the_table_multiplies_cyclotomic_numbers(monkeypatch):
    # bench/test_bench.py checks the tracer's counting wrappers through
    # cyclotomic.mul.calls > 0 in a traced compute_ramanujan(107)
    calls = []
    original = CycNum.__mul__
    monkeypatch.setattr(CycNum, "__mul__",
                        lambda self, other: calls.append(1) or original(self, other))
    compute_ramanujan(107)
    assert calls, ("compute_ramanujan(107) made no CycNum product: the bench "
                   "tracer test needs another counted call first (ROADMAP item 1b)")


def test_a_table_pass_makes_130_cyclotomic_products(monkeypatch):
    # a record's scalar is a product only for e = 1, once per distinct
    # (k, e) of a polynomial; an e = 0 scalar is the shared z^k.  CI's
    # traced table gate holds the same count as a ceiling
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []
    original = CycNum.__mul__
    monkeypatch.setattr(CycNum, "__mul__",
                        lambda self, other: calls.append(1) or original(self, other))
    for n in MAIN_TABLE:
        compute_ramanujan(n)
    assert len(calls) == 130


def test_a_first_table_pass_makes_the_same_130_products():
    # sqrt(3)^1, built at the first e = 1 scalar, is the base itself with
    # no product (CycNum.__pow__): a fresh interpreter's first pass, with
    # nothing warmed up, counts what a warm pass counts
    code = "\n".join([
        "import os",
        "os.sched_getaffinity = lambda pid: {0}",
        "from classinv.classpoly import compute_ramanujan",
        "from classinv.cyclotomic import CycNum",
        "calls = []",
        "mul = CycNum.__mul__",
        "CycNum.__mul__ = lambda self, other: calls.append(1) or mul(self, other)",
        "for _ in range(2):",
        "    calls.clear()",
        f"    for n in {sorted(MAIN_TABLE)!r}:",
        "        compute_ramanujan(n)",
        "    print(len(calls))",
    ])
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["130", "130"]


def _record_rungs(monkeypatch):
    """The bits of every expansion made from now on, in order: compare
    with ``_bits`` of the digits expected."""
    rungs = []
    original = expansion._expand_and_round

    def expand(values, paired, bits, product):
        rungs.append(bits)
        return original(values, paired, bits, product)

    monkeypatch.setattr(expansion, "_expand_and_round", expand)
    return rungs


def _bits(*rungs):
    """The expansion's bits at each of the rungs, given in digits."""
    return [expansion._expansion_bits(digits) for digits in rungs]


def test_precision_ladder(monkeypatch):
    # the rung that rounds each case, pinned: the default 120 digits for
    # n = 10019 and 100019, and one doubling for n = 1000019, whose
    # size estimate (about 173 digits) rules out 120, so only 240 is
    # expanded
    assert compute_ramanujan(10019).precision_digits == DEFAULT_DIGITS
    assert compute_ramanujan(100019).precision_digits == DEFAULT_DIGITS
    rungs = _record_rungs(monkeypatch)
    result = compute_ramanujan(1000019)
    assert rungs == _bits(2 * DEFAULT_DIGITS)
    assert result.precision_digits == 2 * DEFAULT_DIGITS
    assert compute_hilbert(-10019).precision_digits == 462


def test_skipped_rung_would_not_have_rounded(monkeypatch):
    # with the estimate patched to 0 no rung is skipped: 120 digits is
    # expanded and fails to round, and 240 gives the same coefficients
    expected = compute_ramanujan(1000019).polynomial
    rungs = _record_rungs(monkeypatch)
    monkeypatch.setattr(classpoly, "_ramanujan_size", lambda n, forms: 0.0)
    result = compute_ramanujan(1000019)
    assert rungs == _bits(DEFAULT_DIGITS, 2 * DEFAULT_DIGITS)
    assert result.polynomial == expected


def test_no_action_is_computed_before_the_first_rung(monkeypatch, two_cpus):
    # E reads the forms alone: the first exact action is computed inside
    # the first rung's evaluation, and on two CPUs this process computes
    # only those of its own share of a shared rung, every second form
    events = []
    action, evaluate = classpoly.form_action, classpoly._evaluate_all
    monkeypatch.setattr(classpoly, "form_action",
                        lambda form: events.append(form) or action(form))
    monkeypatch.setattr(classpoly, "_evaluate_all",
                        lambda *args: events.append("rung") or evaluate(*args))
    for n, digits in ((107, DEFAULT_DIGITS), (10019, DEFAULT_DIGITS),
                      (1000019, 2 * DEFAULT_DIGITS)):
        events.clear()
        assert compute_ramanujan(n).precision_digits == digits
        own = [f for f in reduced_forms(-n) if f.b >= 0]
        shared = FORKED and len(own) * digits >= classpoly.FORK_MIN_WORK
        assert events == ["rung", *(own[0::2] if shared else own)], n


_LARGE_SIZE_NS = (100019, 1000019, 2004659, 10000019)
"""Large n whose size estimates are checked against their exact terms."""


def test_size_estimate_matches_leading_exponent():
    # E, which picks the first rung, equals the sum over leading_exponent
    # of each conjugate's exact term, bit for bit, for every valid n below
    # 20000 and four large n: E reads each term's quotient block and e
    # from a mod 3 alone
    for n in (*range(11, 20000, 24), *_LARGE_SIZE_NS):
        forms = reduced_forms(-n)
        terms = [classpoly._action_data(f) for f in forms]
        bits = math.pi * math.sqrt(n) / math.log(10)
        expected = sum(max(0.0, e * math.log10(3) / 2
                           - float(leading_exponent(index)) * bits / f.a)
                       for f, (index, _, e) in zip(forms, terms))
        assert classpoly._ramanujan_size(n, forms) == expected, n


def _sl2(m):
    """Every matrix of SL2(Z/m)."""
    return [Mat2(a, b, c, d, m) for a, b, c, d in itertools.product(range(m), repeat=4)
            if (a * d - b * c) % m == 1]


def test_the_size_rule_rests_on_the_quotient_blocks():
    # the data behind E's rule, row 2 being sqrt(3) * F_2's: F_0 to F_2
    # and F_3 to F_5 are the two blocks of leading exponent 1/18 and -1/18
    assert [leading_exponent(i) for i in range(6)] == [Fraction(1, 18)] * 3 + [
        Fraction(-1, 18)] * 3
    image = etarep._monomial_image
    # every SL2(Z/8) image sends row 2 to column 2, e unchanged
    eights = {image(decompose(m, 8), 8).rows[2][::2] for m in _sl2(8)}
    assert eights == {(2, 0)}
    low, high = set(), set()
    for m in _sl2(9):
        column, _, e = image(decompose(m, 9), 9).rows[2]
        if m.c % 3 == 0:
            low.add((column, e))
        elif m.a * pow(m.c, -1, 9) % 3 != 1:
            high.add((column, e))
    # lower-left entry 0 mod 3 (a form with 3 not dividing a): row 2
    # stays in F_0 to F_2 with e unchanged; a unit lower-left entry and
    # top-left over lower-left not 1 mod 3 (3 | a), every T^x S with x
    # not 1 mod 3 among them: row 2 moves into F_3 to F_5 and e drops
    # by one
    assert low == {(0, 0), (1, 0), (2, 0)}
    assert high == {(3, -1), (4, -1), (5, -1)}
    # every sigma_d keeps both blocks, e unchanged
    for d in range(72):
        if math.gcd(d, 72) == 1:
            rows = monomial_sigma(d).rows
            assert {j for j, _, _ in rows[:3]} == {0, 1, 2}, d
            assert {e for _, _, e in rows} == {0}, d


def test_small_sizes_start_at_the_default_rung(monkeypatch):
    rungs = _record_rungs(monkeypatch)
    for n in (*MAIN_TABLE, 10019, 100019):
        rungs.clear()
        compute_ramanujan(n)
        assert rungs == _bits(DEFAULT_DIGITS), n


_STUB_FORMS = [QuadForm(1, 1, 1)]
"""One ambiguous form, so its value enters the expansion unpaired."""


def _stub_evaluate(monkeypatch, value, rungs):
    """The name of an evaluation for ``_round_with_retries`` over
    ``_STUB_FORMS``, added to classpoly, that records its digits and
    returns the real value ``value``, a Fraction, floored to the
    expansion's bits, alone in a tuple.  One form is never shared, so it
    runs here."""
    def evaluate(a, b, c, digits):
        rungs.append(digits)
        bits = expansion._expansion_bits(digits)
        return (from_gaussian((value.numerator << bits) // value.denominator, 0, bits),)

    monkeypatch.setattr(classpoly, "_stub_number", evaluate, raising=False)
    return "_stub_number"


def test_ruled_out_rungs_are_never_evaluated(monkeypatch):
    # from 15 digits the estimate (about 173 digits for n = 1000019)
    # rules out 15, 30, 60 and 120, and the first rung evaluated, 240,
    # rounds to the default run's polynomial
    expected = compute_ramanujan(1000019).polynomial
    rungs = _record_rungs(monkeypatch)
    result = compute_ramanujan(1000019, 15)
    assert rungs == _bits(2 * DEFAULT_DIGITS)
    assert result.polynomial == expected
    # a value that never rounds: no rung at or below the size is
    # evaluated, and PrecisionError follows MAX_RETRIES + 1 evaluated
    # failures, however many rungs were skipped before them
    for digits, size, first in [(15, 173.0, 240), (DEFAULT_DIGITS, 1000.0, 1920),
                                (DEFAULT_DIGITS, 0.0, DEFAULT_DIGITS)]:
        rungs = []
        with pytest.raises(PrecisionError, match="failed to round"):
            classpoly._round_with_retries(
                _STUB_FORMS, _stub_evaluate(monkeypatch, Fraction(1, 2), rungs),
                digits, size)
        assert rungs == [first << k for k in range(classpoly.MAX_RETRIES + 1)]
        assert all(r + classpoly.SKIP_MARGIN_DIGITS > size for r in rungs)


def test_first_rung_for_size_1653_is_1920_digits(monkeypatch):
    # 1653 is the size estimate of n = 30000011 (h = 3154), whose full run
    # takes a minute or more: the ladder skips 120 to 960 and evaluates 1920
    rungs = []
    rounded, residual, digits, values = classpoly._round_with_retries(
        _STUB_FORMS, _stub_evaluate(monkeypatch, Fraction(3), rungs),
        DEFAULT_DIGITS, 1653.0)
    assert rungs == [1920] and digits == 1920
    assert rounded == (-3, 1) and residual == 0


@pytest.mark.parametrize("coefficients, gate", [
    ((2, -3, 1), "constant term 2 is not a unit"),
    ((-1, 1, 3), "not monic"),
])
def test_non_unit_polynomial_is_rejected(monkeypatch, coefficients, gate):
    # n = 35 has class number 2; the rounding is replaced by one that
    # returns a polynomial which cannot belong to a unit
    monkeypatch.setattr(expansion, "_expand_and_round",
                        lambda values, paired, bits, product: (coefficients, 0))
    with pytest.raises(PrecisionError, match=gate):
        compute_ramanujan(35)

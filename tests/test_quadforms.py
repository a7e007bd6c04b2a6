"""Reduction and enumeration of positive definite binary quadratic forms.

The reduction oracle works backwards: start from a known reduced form,
scramble it with random unimodular substitutions, and demand that
reduction recovers the original.
"""

import random
import re
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classinv.numeval import MAX_J_IM_TAU
from classinv.quadforms import (
    QuadForm,
    class_number,
    form_root,
    is_ambiguous,
    principal_form,
    reduce_form,
    reduced_forms,
)

from golden_data import MAIN_TABLE, SMALL_TABLE


def _is_reduced(form):
    """The reduction conditions -a < b <= a < c, or 0 <= b <= a = c."""
    if not form.is_positive_definite():
        return False
    a, b, c = form.a, form.b, form.c
    return (-a < b <= a < c) or (0 <= b <= a == c)


def _translate(form, k):
    # (a, b, c) composed with x -> x + k*y
    a, b, c = form.a, form.b, form.c
    return QuadForm(a, b + 2 * a * k, a * k * k + b * k + c)


def _flip(form):
    # (a, b, c) composed with (x, y) -> (-y, x)
    return QuadForm(form.c, -form.b, form.a)


def _scramble(form, rng, steps=8):
    for _ in range(steps):
        if rng.random() < 0.5:
            form = _translate(form, rng.randint(-4, 4))
        else:
            form = _flip(form)
    return form


def test_reduce_anchors():
    assert reduce_form(QuadForm(1, 1, 3)) == QuadForm(1, 1, 3)
    assert reduce_form(QuadForm(3, -1, 1)) == QuadForm(1, 1, 3)
    assert reduce_form(QuadForm(27, 1, 1)) == QuadForm(1, 1, 27)
    assert reduce_form(QuadForm(3, 7, 5)) == QuadForm(1, 1, 3)
    assert reduce_form(QuadForm(1, 3, 3)) == QuadForm(1, 1, 1)


def test_reduced_predicate_boundaries():
    assert _is_reduced(QuadForm(2, 2, 3))
    assert not _is_reduced(QuadForm(2, -2, 3))  # b = -a excluded
    assert _is_reduced(QuadForm(2, 1, 2))
    assert not _is_reduced(QuadForm(2, -1, 2))  # a = c needs b >= 0
    assert _is_reduced(QuadForm(1, 1, 3))
    assert not _is_reduced(QuadForm(3, 1, 1))


def test_reduction_recovers_scrambled_forms():
    rng = random.Random(40961)
    seeds = [QuadForm(1, 1, 3), QuadForm(3, 1, 9), QuadForm(1, 1, 27),
             QuadForm(5, 3, 7), QuadForm(2, 1, 14)]
    for seed_form in seeds:
        for _ in range(40):
            scrambled = _scramble(seed_form, rng)
            assert scrambled.discriminant == seed_form.discriminant
            assert reduce_form(scrambled) == seed_form


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=60),
)
def test_reduce_is_idempotent_and_preserves_discriminant(a, b, c):
    form = QuadForm(a, b, c)
    if not form.is_positive_definite():
        return
    reduced = reduce_form(form)
    assert _is_reduced(reduced)
    assert reduced.discriminant == form.discriminant
    assert reduce_form(reduced) == reduced


def test_enumeration_anchors():
    assert reduced_forms(-11) == [QuadForm(1, 1, 3)]
    assert reduced_forms(-107) == [
        QuadForm(1, 1, 27),
        QuadForm(3, 1, 9),
        QuadForm(3, -1, 9),
    ]
    assert class_number(-251) == 7
    assert class_number(-971) == 15


def test_enumeration_lists_reduced_primitive_forms():
    for disc in (-11, -107, -251, -899):
        forms = reduced_forms(disc)
        assert len(set(forms)) == len(forms)
        for form in forms:
            assert _is_reduced(form)
            assert form.is_primitive()
            assert form.discriminant == disc
        assert forms[0] == principal_form(disc)


def _reduced_forms_by_scan(discriminant):
    """The enumeration as it was written before, with nested while
    loops over b and a: the oracle for the divisor comprehension."""
    forms = []
    b = discriminant & 1
    while 3 * b * b <= -discriminant:
        m = (b * b - discriminant) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                f = QuadForm(a, b, c)
                if f.is_primitive():
                    forms.append(f)
                    if 0 < b < a < c:
                        forms.append(QuadForm(a, -b, c))
            a += 1
        b += 2
    forms.sort(key=lambda f: (f.a, abs(f.b), -f.b))
    return forms


def test_enumeration_matches_the_while_scan():
    # the same forms in the same order, for every n = 11 mod 24 below 5000
    # and for n = 1000019
    for n in (*range(11, 5000, 24), 1000019):
        assert reduced_forms(-n) == _reduced_forms_by_scan(-n), n
    assert len(reduced_forms(-1000019)) == 342


def test_each_mirror_follows_its_form():
    # the order classpoly relies on: a form with b < 0 comes right after
    # its mirror (a, -b, c), and the forms with b >= 0 that have no
    # mirror in the list are exactly the ambiguous ones; for -n, n = 11
    # mod 24 below 20000 and n = 100019, 1000019 and 10000019, and for
    # every discriminant from -3 to -2999
    ns = (*range(11, 20000, 24), 100019, 1000019, 10000019)
    discriminants = sorted({*(-n for n in ns),
                            *(d for d in range(-3, -3000, -1) if d % 4 in (0, 1))})
    assert len(discriminants) == 2210
    for disc in discriminants:
        forms = reduced_forms(disc)
        assert forms[0].b >= 0, disc
        for before, form in zip(forms, forms[1:]):
            if form.b < 0:
                assert before == QuadForm(form.a, -form.b, form.c), (disc, form)
        negative = {f for f in forms if f.b < 0}
        for form in forms:
            if form.b >= 0:
                mirrored = QuadForm(form.a, -form.b, form.c) in negative
                assert is_ambiguous(form) != mirrored, (disc, form)


def test_enumeration_drops_imprimitive_forms():
    # disc -275: [5, 5, 15] has content 5 and must not appear
    forms = reduced_forms(-275)
    assert QuadForm(5, 5, 15) not in forms
    assert all(f.is_primitive() for f in forms)


def test_degrees_match_class_numbers():
    for n, coeffs in {**SMALL_TABLE, **MAIN_TABLE}.items():
        assert class_number(-n) == len(coeffs) - 1


def test_bad_discriminants_rejected():
    for disc in (-10, -7 + 1, 0, 11, -6):
        with pytest.raises(ValueError, match="not a negative discriminant"):
            reduced_forms(disc)
        with pytest.raises(ValueError, match="not a negative discriminant"):
            principal_form(disc)


def test_discriminants_past_the_enumeration_limit_rejected_at_once():
    # 4 MAX_J_IM_TAU^2 = 4 10^12: enumerating just past it would try
    # about 3 10^11 divisors, so the refusal must come first
    start = time.perf_counter()
    for disc in (-(4 * MAX_J_IM_TAU ** 2 + 3), -(10 ** 21 + 19)):
        with pytest.raises(ValueError, match=r"4 MAX_J_IM_TAU\^2 = 4000000000000"):
            reduced_forms(disc)
        with pytest.raises(ValueError, match="too large to enumerate"):
            class_number(disc)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("fields, name, value", [
    ((1.5, 1, 3), "a", 1.5),
    ((1.0, 1, 3), "a", 1.0),
    ((1, True, 3), "b", True),
    ((1, 1, "3"), "c", "3"),
])
def test_non_integer_form_coefficients_rejected(fields, name, value):
    # refused where the form is made, by the coefficient's name: before,
    # [1.5, 1, 3] was reduced and given a root, and conjugate_value of
    # [1.0, 1, 3] reported an n the caller never passed
    message = f"form coefficient {name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        QuadForm(*fields)


def test_principal_form():
    assert principal_form(-11) == QuadForm(1, 1, 3)
    assert principal_form(-107) == QuadForm(1, 1, 27)
    assert principal_form(-4) == QuadForm(1, 0, 1)


def test_form_root_anchors():
    with mpmath.workdps(60):
        tol = mpmath.mpf("1e-48")
        root = form_root(principal_form(-11), 50)
        expected = (-1 + mpmath.sqrt(mpmath.mpf(11)) * 1j) / 2
        assert abs(root - expected) < tol
        assert abs(form_root(QuadForm(1, 0, 1), 50) - mpmath.mpc(0, 1)) < tol
        root107 = form_root(QuadForm(3, 1, 9), 50)
        expected107 = (-1 + mpmath.sqrt(mpmath.mpf(107)) * 1j) / 6
        assert abs(root107 - expected107) < tol


def test_form_root_satisfies_form():
    with mpmath.workdps(60):
        for form in reduced_forms(-107) + reduced_forms(-995):
            t = form_root(form, 50)
            residual = form.a * t * t + form.b * t + form.c
            assert abs(residual) < mpmath.mpf("1e-45")
            # reduced forms have roots in the standard fundamental domain
            assert t.imag >= mpmath.sqrt(3) / 2 - mpmath.mpf("1e-45")
            assert abs(t.real) <= 0.5 + 1e-45


def test_form_root_rejects_indefinite_forms():
    with pytest.raises(ValueError, match="not a positive definite form"):
        form_root(QuadForm(1, 5, 1))


def test_form_root_is_the_correctly_rounded_root():
    # each part is -b / 2a or sqrt(|D|) / 2a rounded to nearest at the
    # working precision, bit for bit the root mpmath computes at dps
    # digits, whatever the ambient precision
    for ambient in (15, 400):
        with mpmath.workdps(ambient):
            for discriminant in (-107, -611, -10019):
                for form in reduced_forms(discriminant):
                    for dps in (15, 130, 250):
                        with mpmath.workdps(dps):
                            expected = (mpmath.mpf(-form.b)
                                        + mpmath.sqrt(-discriminant) * 1j) / (2 * form.a)
                        assert form_root(form, dps)._mpc_ == expected._mpc_

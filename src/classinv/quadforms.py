"""Positive definite integral binary quadratic forms.

A form a*x^2 + b*x*y + c*y^2 is stored as the triple (a, b, c).  The
module provides Gauss reduction, enumeration of the primitive reduced
forms of a fixed negative discriminant (whose count is the class
number), and the complex root of a form in the upper half-plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import mpmath
from mpmath.libmp import dps_to_prec, from_int, mpf_div, round_nearest

from .numeval import MAX_J_IM_TAU, check_integer, resolve_digits, sqrt_power


@dataclass(frozen=True, order=True)
class QuadForm:
    """The form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            check_integer(getattr(self, name), f"form coefficient {name}")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant < 0

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def __str__(self) -> str:
        return f"[{self.a}, {self.b}, {self.c}]"


def reduce_form(form: QuadForm) -> QuadForm:
    """The unique reduced form equivalent to the given one."""
    if not form.is_positive_definite():
        raise ValueError("not a positive definite form")
    a, b, c = form.a, form.b, form.c
    while True:
        if b <= -a or b > a:
            # translate so that -a < b <= a
            r = (a - b) // (2 * a)
            b, c = b + 2 * a * r, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    return QuadForm(a, b, c)


def check_discriminant(discriminant: int) -> int:
    """The discriminant as an int; a ValueError unless it is a negative
    integer = 0 or 1 mod 4."""
    discriminant = check_integer(discriminant, "discriminant")
    if discriminant >= 0 or discriminant % 4 not in (0, 1):
        raise ValueError("not a negative discriminant")
    return discriminant


def principal_form(discriminant: int) -> QuadForm:
    """The identity class representative of the given discriminant."""
    discriminant = check_discriminant(discriminant)
    if discriminant % 4 == 0:
        return QuadForm(1, 0, -discriminant // 4)
    return QuadForm(1, 1, (1 - discriminant) // 4)


def is_ambiguous(form: QuadForm) -> bool:
    """Whether a reduced form is its own mirror: b = 0, b = a or a = c.

    Inversion in the class group sends (a, b, c) to its mirror
    (a, -b, c), which for these forms reduces back to (a, b, c); every
    other reduced form has a distinct mirror, also reduced.
    """
    return form.b == 0 or form.b == form.a or form.a == form.c


def reduced_forms(discriminant: int) -> List[QuadForm]:
    """All primitive reduced forms of the given negative discriminant.

    Sorted with the principal form first, then by (a, |b|, -b): the
    mirror (a, -b, c) of each form with b > 0 that is not ambiguous
    (``is_ambiguous``) comes right after it, and every form with b < 0
    is such a mirror.

    The walk tries about 0.07 |D| candidate divisors, so |D| above
    4 MAX_J_IM_TAU^2 = 4 10^12 raises ValueError before it starts: a
    reduced form's root has Im tau <= sqrt(|D|)/2, and past that bound
    it may lie beyond what ``numeval.j_invariant`` evaluates.
    """
    discriminant = check_discriminant(discriminant)
    if -discriminant > 4 * MAX_J_IM_TAU ** 2:
        raise ValueError(f"discriminant {discriminant} is too large to enumerate: "
                         f"|D| is above 4 MAX_J_IM_TAU^2 = {4 * MAX_J_IM_TAU ** 2}")
    forms: List[QuadForm] = []
    # b matches the parity of the discriminant, and 3 b^2 <= -D
    for b in range(discriminant & 1, math.isqrt(-discriminant // 3) + 1, 2):
        m = (b * b - discriminant) // 4
        # a runs over the divisors of m = ac with b <= a <= c
        for a in [a for a in range(max(b, 1), math.isqrt(m) + 1) if m % a == 0]:
            c = m // a
            if math.gcd(a, b, c) == 1:
                form = QuadForm(a, b, c)
                forms.append(form)
                if b > 0 and not is_ambiguous(form):
                    forms.append(QuadForm(a, -b, c))
    forms.sort(key=lambda f: (f.a, abs(f.b), -f.b))
    return forms


def class_number(discriminant: int) -> int:
    """Number of primitive reduced forms of the discriminant."""
    return len(reduced_forms(discriminant))


def form_root(form: QuadForm, dps: int | None = None) -> mpmath.mpc:
    """The root of a*t^2 + b*t + c in the upper half-plane, at dps digits."""
    if not form.is_positive_definite():
        raise ValueError("not a positive definite form")
    prec = dps_to_prec(resolve_digits(dps))
    # -b / 2a and sqrt(|D|) / 2a, each rounded to nearest at the working
    # precision of dps digits, with sqrt(|D|) from the per-precision table
    two_a = from_int(2 * form.a)
    return mpmath.mp.make_mpc((
        mpf_div(from_int(-form.b), two_a, prec, round_nearest),
        mpf_div(sqrt_power(-form.discriminant, 1, prec)._mpf_, two_a, prec,
                round_nearest)))

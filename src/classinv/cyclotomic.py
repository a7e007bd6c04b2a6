"""Exact arithmetic in the degree-24 cyclotomic field Q(z), z = exp(2*pi*i/72).

Elements carry rational coordinates on the power basis z^0, ..., z^23.
The minimal polynomial of z over Q is x^24 - x^12 + 1, which yields the
rewrite rule

    z^k = z^(k-12) - z^(k-24)    for k >= 24

used to fold arbitrary powers back onto the basis.  A product runs on
integers: each operand's nonzero coordinates, read once per instance as
numerators over one common denominator, are convolved and folded by the
integer rule, and the sums are divided by the product of the two
denominators.  The inverse of x is
cofactor / N(x), N(x) the norm to Q: the product of the conjugates of x
under the Galois group z -> z^d, gcd(d, 72) = 1, formed one cyclic
factor of the group at a time.  All arithmetic is exact; numeric
embeddings into the complex plane go through mpmath at a caller-chosen
working precision, with the roots from ``numeval.zeta72``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Iterable, List, Tuple, Union

import mpmath

from .numeval import resolve_digits, zeta72

DEGREE = 24
"""Dimension of the field over Q."""

ORDER = 72
"""Multiplicative order of the generating root of unity."""

Rational = Union[int, Fraction]
Coeffs = Tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

MINIMAL_POLY: Coeffs = tuple(
    _ONE if k in (0, 24) else (-_ONE if k == 12 else _ZERO) for k in range(25)
)
"""Ascending coefficients of x^24 - x^12 + 1."""


def _build_power_table() -> Tuple[Tuple[int, ...], ...]:
    """Integer coordinates of z^k on the power basis for k = 0..71,
    each 0 or +-1."""
    table: List[Tuple[int, ...]] = []
    for k in range(ORDER):
        if k < DEGREE:
            table.append(tuple(int(j == k) for j in range(DEGREE)))
        else:
            # z^k = z^(k-12) - z^(k-24)
            table.append(tuple(x - y for x, y in zip(table[k - 12], table[k - 24])))
    return tuple(table)


_INT_POWER = _build_power_table()

_CONSTANT = (_ZERO, _ONE, -_ONE)
"""The shared Fraction 0, 1 and -1, indexed by the int 0, 1 and -1."""

_POWER: Tuple[Coeffs, ...] = tuple(tuple(_CONSTANT[x] for x in row) for row in _INT_POWER)
"""``_INT_POWER`` with each entry its shared Fraction constant."""

# Sparse form of the integer rows for products: degree i+j <= 46 < 72.
_FOLD: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
    tuple((j, c) for j, c in enumerate(row) if c) for row in _INT_POWER[: 2 * DEGREE - 1]
)

_GALOIS_GENERATORS: Tuple[Tuple[int, int], ...] = ((19, 2), (37, 2), (65, 6))
"""(Z/72)* = <19> x <37> x <65>, each generator d with its order m:
19 is 3 and 37 is 5 mod 8, both 1 mod 9; 65 is 1 mod 8 and 2 mod 9."""


@dataclass(frozen=True)
class CycNum:
    """An element of Q(z) on the basis z^0, ..., z^23."""

    coeffs: Coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "CycNum":
        return _CYC_ZERO

    @staticmethod
    def one() -> "CycNum":
        return _CYC_ONE

    @staticmethod
    def from_rational(value: Rational) -> "CycNum":
        v = Fraction(value)
        return CycNum((v,) + (_ZERO,) * (DEGREE - 1))

    @staticmethod
    def zeta_pow(k: int) -> "CycNum":
        """The basis root of unity raised to an arbitrary integer power:
        one shared instance per k mod 72, built at first use."""
        return _zeta_power(k % ORDER)

    @staticmethod
    def from_zeta_terms(terms: Iterable[Tuple[int, Rational]]) -> "CycNum":
        """Sum of coef * z^power over (power, coef) pairs."""
        acc = [_ZERO] * DEGREE
        for power, coef in terms:
            c = Fraction(coef)
            if not c:
                continue
            for j, s in enumerate(_POWER[power % ORDER]):
                if s:
                    acc[j] += c * s
        return CycNum(tuple(acc))

    @cached_property
    def _support(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """(D, ((j, D * c_j) for each nonzero c_j)): the nonzero
        coordinates as integer numerators over their common denominator
        D, read once per instance."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return den, tuple((j, c.numerator * (den // c.denominator))
                          for j, c in enumerate(self.coeffs) if c)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "CycNum") -> "CycNum":
        return CycNum(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycNum") -> "CycNum":
        return CycNum(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycNum":
        return CycNum(tuple(-a for a in self.coeffs))

    def __mul__(self, other: Union["CycNum", Rational]) -> "CycNum":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CycNum(tuple(a * c for a in self.coeffs))
        den_a, support_a = self._support
        den_b, support_b = other._support
        acc = [0] * DEGREE
        for i, a in support_a:
            for j, b in support_b:
                ab = a * b
                for k, s in _FOLD[i + j]:
                    acc[k] += s * ab
        den = den_a * den_b
        return CycNum(tuple(Fraction(x, den) if x else _ZERO for x in acc))

    def __rmul__(self, other: Rational) -> "CycNum":
        return self.__mul__(other)

    def inverse(self) -> "CycNum":
        """1/x = cofactor / N(x).  For each generator d of order m, the
        norm so far times its m - 1 other conjugates under z -> z^d is
        fixed by d, and stays fixed by it under the later generators,
        the group being abelian; the cofactor takes the same factors.
        Zero has norm 0, and the division by it raises."""
        cofactor, norm = _CYC_ONE, self
        for d, m in _GALOIS_GENERATORS:
            others = reduce(CycNum.__mul__, (norm.galois(pow(d, i, ORDER))
                                             for i in range(1, m)))
            cofactor, norm = cofactor * others, norm * others
        return cofactor / norm.coeffs[0]

    def __truediv__(self, other: Union["CycNum", Rational]) -> "CycNum":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero in cyclotomic field")
            return CycNum(tuple(a / c for a in self.coeffs))
        return self * other.inverse()

    def __pow__(self, n: int) -> "CycNum":
        if n <= 0:
            return self.inverse() ** -n if n else _CYC_ONE
        # from the top bit down: bitlen(n) - 1 squarings and popcount(n) - 1
        # products, none for n = 1
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- field automorphisms -------------------------------------------

    def galois(self, d: int) -> "CycNum":
        """Image under the automorphism sending z to z^d, for d coprime to 72."""
        if math.gcd(d, ORDER) != 1:
            raise ValueError("not a Galois element")
        acc = [_ZERO] * DEGREE
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            for k, s in enumerate(_POWER[(j * d) % ORDER]):
                if s:
                    acc[k] += c * s
        return CycNum(tuple(acc))

    def conjugate(self) -> "CycNum":
        return self.galois(ORDER - 1)

    # -- numerics -------------------------------------------------------

    def embed(self, dps: int | None = None) -> mpmath.mpc:
        """Complex value at the principal root exp(2*pi*i/72), at dps digits."""
        with mpmath.workdps(resolve_digits(dps)):
            total = mpmath.mpc(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    total += mpmath.mpf(c.numerator) / c.denominator * zeta72(j)
            return total

    # -- formatting -----------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                power = "z" if j == 1 else f"z^{j}"
                body = power if mag == 1 else f"{mag}*{power}"
            terms.append((c < 0, body))
        if not terms:
            return "0"
        out = []
        for idx, (neg, body) in enumerate(terms):
            if idx == 0:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"CycNum({self})"


@lru_cache(maxsize=None)
def _zeta_power(k: int) -> CycNum:
    return CycNum(_POWER[k])


_CYC_ZERO = CycNum((_ZERO,) * DEGREE)
_CYC_ONE = CycNum((_ONE,) + (_ZERO,) * (DEGREE - 1))

ZERO = _CYC_ZERO
ONE = _CYC_ONE

SQRT3 = CycNum.zeta_pow(6) - CycNum.zeta_pow(30)
"""sqrt(3) written inside the field: z^6 - z^30."""

IMAG_UNIT = CycNum.zeta_pow(18)
"""The imaginary unit i = z^18."""

ZETA3 = CycNum.zeta_pow(24)
"""A primitive cube root of unity."""

GALOIS_EXPONENTS = tuple(d for d in range(1, ORDER) if math.gcd(d, ORDER) == 1)
"""All 24 exponents d with gcd(d, 72) = 1, indexing the Galois group."""

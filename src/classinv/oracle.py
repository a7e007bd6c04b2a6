"""The dense oracle: the exact action as 6x6 matrices over the cyclotomic field.

``RepMatrix`` holds a matrix of ``CycNum`` entries.  S, T and the
Galois automorphisms z -> z^d are stated here by hand (``rep_s``,
``rep_t``, ``rep_sigma``), independently of the factor rule from which
``etarep`` derives its integer ``Monomial`` matrices, so the selftest
and test suites can compare the two encodings entry for entry.  The
dense image of an S,T word over Z/8 or Z/9 is multiplied out anew on
every call (``_dense_image``), over the dense images of the lifted
generators, by the same factored path as the integer encoding
(``etarep._factored_action``).

Nothing on the hot path reads this module, so it is imported at first
use: by ``etarep.word_action``, ``full_action``, ``dual_action`` and
``Monomial.dense``, or by a name that ``etarep`` or the package gives
on demand (``RepMatrix``, ``rep_s``, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Tuple

from .cyclotomic import CycNum
from .etarep import SIZE, Images, _lifted_images, _t_powers, _word_image
from .sl2words import Word

Vector = Tuple[CycNum, ...]

_ZERO = CycNum.zero()
_ONE = CycNum.one()


@dataclass(frozen=True)
class RepMatrix:
    """A 6x6 matrix over the cyclotomic field."""

    rows: Tuple[Tuple[CycNum, ...], ...]

    @staticmethod
    def identity() -> "RepMatrix":
        return RepMatrix(
            tuple(
                tuple(_ONE if i == j else _ZERO for j in range(SIZE))
                for i in range(SIZE)
            )
        )

    @staticmethod
    def from_entries(entries: Dict[Tuple[int, int], CycNum]) -> "RepMatrix":
        return RepMatrix(
            tuple(
                tuple(entries.get((i, j), _ZERO) for j in range(SIZE))
                for i in range(SIZE)
            )
        )

    def __mul__(self, other: "RepMatrix") -> "RepMatrix":
        rows = []
        for i in range(SIZE):
            row = []
            for j in range(SIZE):
                acc = _ZERO
                for k in range(SIZE):
                    left = self.rows[i][k]
                    if left and other.rows[k][j]:
                        acc = acc + left * other.rows[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return RepMatrix(tuple(rows))

    def apply(self, vec: Vector) -> Vector:
        """Matrix times column vector."""
        return tuple(
            sum(
                (self.rows[i][j] * vec[j] for j in range(SIZE) if self.rows[i][j]),
                _ZERO,
            )
            for i in range(SIZE)
        )

    def act_on_coefficients(self, vec: Vector) -> Vector:
        """Transpose times column vector; see ``etarep``'s docstring."""
        return tuple(
            sum(
                (self.rows[j][i] * vec[j] for j in range(SIZE) if self.rows[j][i]),
                _ZERO,
            )
            for i in range(SIZE)
        )

    def galois(self, d: int) -> "RepMatrix":
        return RepMatrix(
            tuple(tuple(x.galois(d) for x in row) for row in self.rows)
        )


def unit_vector(index: int, scale: CycNum = _ONE) -> Vector:
    return tuple(scale if i == index else _ZERO for i in range(SIZE))


def rep_t() -> RepMatrix:
    """Action of T: tau -> tau + 1.  Order 18."""
    z = CycNum.zeta_pow
    return RepMatrix.from_entries(
        {
            (0, 1): z(3),
            (1, 2): z(3),
            (2, 0): z(6),
            (3, 4): z(-3),
            (4, 5): z(-6),
            (5, 3): z(-3),
        }
    )


def rep_s() -> RepMatrix:
    """Action of S: tau -> -1/tau.  An involution."""
    z = CycNum.zeta_pow
    third = CycNum.from_rational(1) / 3
    return RepMatrix.from_entries(
        {
            (0, 0): _ONE,
            (1, 3): (z(3) - z(27)) * third,
            (2, 4): (z(9) - z(33)) * third,
            (3, 1): z(9) - z(33),
            (4, 2): z(3) - z(27),
            (5, 5): _ONE,
        }
    )


def rep_sigma(d: int) -> RepMatrix:
    """Action of the coefficient automorphism z -> z^d on the six functions.

    The two inner eta factors with shifted arguments are permuted
    according to d mod 3 and pick up explicit root-of-unity factors from
    their fractional exponents.
    """
    if math.gcd(d, 72) != 1:
        raise ValueError("not a Galois element")
    z = CycNum.zeta_pow
    if d % 3 == 1:
        return RepMatrix.from_entries(
            {
                (0, 0): _ONE,
                (1, 1): z(d - 1),
                (2, 2): z(2 * d - 2),
                (3, 3): z(2 * d - 2),
                (4, 4): z(d - 1),
                (5, 5): z(3 * d - 3),
            }
        )
    return RepMatrix.from_entries(
        {
            (0, 0): _ONE,
            (1, 2): z(d - 2),
            (2, 1): z(2 * d - 1),
            (3, 4): z(2 * d - 1),
            (4, 3): z(d - 2),
            (5, 5): z(3 * d - 3),
        }
    )


@lru_cache(maxsize=None)
def _dense_t_power() -> Callable[[int], RepMatrix]:
    """The dense table, built at first use."""
    return _t_powers(RepMatrix.identity(), rep_t())


@lru_cache(maxsize=None)
def _dense_images() -> Images:
    """The dense images of the lifted generators, built at first use."""
    return _lifted_images(RepMatrix.identity(), rep_s(), _dense_t_power())


def _dense_image(word: Word, m: int) -> RepMatrix:
    """The dense image of a word, multiplied out on every call."""
    return _word_image(_dense_images(), word, m)


def dense_conjugate_action(rep: RepMatrix, det: int, coeffs: Vector) -> Vector:
    """Coefficient vector of the Galois conjugate of a function.

    A function written as a coefficient vector a is first precomposed
    with the unimodular substitution (transpose of the matrix, per
    ``etarep``'s docstring), then every coefficient of the result is
    twisted by z -> z^d, including the root-of-unity factors the twist
    induces on the basis functions themselves.
    ``etarep.conjugate_action`` is the same map on the integer encoding.
    """
    pulled = rep.act_on_coefficients(coeffs)
    twisted = tuple(x.galois(det) for x in pulled)
    return rep_sigma(det).act_on_coefficients(twisted)

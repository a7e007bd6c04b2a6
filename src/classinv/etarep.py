"""Exact action of modular words and Galois twists on level-72 eta quotients.

The six functions F_0, ..., F_5 spanned here are the eta quotients
listed in ``numeval.ETA_QUOTIENTS``, each a product of two eta factors
divided by eta(tau)^2.

The generators S: tau -> -1/tau and T: tau -> tau + 1 permute this
six-dimensional space up to scalars z^k * sqrt(3)^e, z = exp(2*pi*i/72),
as do the Galois automorphisms z -> z^d of the coefficient field.
Every matrix here is therefore monomial: one nonzero entry per row and
column, each of that form.

The hot path stores such a matrix as a ``Monomial``, one integer triple
(column, k mod 72, e) per row, so products are a permutation
composition plus integer additions and the Galois twist z -> z^d maps
k to d*k (plus 36 when it negates sqrt(3) and e is odd).  The dense
``RepMatrix`` over the cyclotomic field, with ``rep_s``, ``rep_t``,
``rep_sigma``, ``word_action``, ``full_action`` and ``dual_action``,
is the exact oracle: ``Monomial.dense`` rebuilds it, and the selftest
and test suites compare the two entry for entry.

A matrix A gives the substitution rule F(g(tau)) = (A F)(tau) on the
column vector F of the six functions.  A function written as a
coefficient vector a (meaning sum a_i F_i) therefore transforms by the
transpose: precomposing with a word g_1 ... g_k sends a to
(A_{g_1} ... A_{g_k})^t a.  On the hot path such a vector is a single
scaled basis vector, stored as a ``Term`` (index, k, e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cyclotomic import ORDER, SQRT3, CycNum
from .orders import generator_matrix, generators_for, unit_group
from .quadforms import QuadForm
from .sl2words import Mat2, Word, crt_combine, decompose, form_matrix, lift_word, split_det

SIZE = 6

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
        """Transpose times column vector; see the module docstring."""
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

    def is_monomial(self) -> bool:
        col_seen = [False] * SIZE
        for row in self.rows:
            hits = [j for j, x in enumerate(row) if x]
            if len(hits) != 1 or col_seen[hits[0]]:
                return False
            col_seen[hits[0]] = True
        return True

    def monomial_inverse(self) -> "RepMatrix":
        """Inverse of a monomial matrix: transpose with inverted entries."""
        if not self.is_monomial():
            raise ValueError("matrix is not monomial")
        entries: Dict[Tuple[int, int], CycNum] = {}
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x:
                    entries[(j, i)] = x.inverse()
        return RepMatrix.from_entries(entries)

    def nonzero_entries(self) -> Dict[Tuple[int, int], CycNum]:
        return {
            (i, j): x
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
            if x
        }


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


_T_POWERS: Optional[List[RepMatrix]] = None


def _t_power(exponent: int) -> RepMatrix:
    """Cached powers of the T matrix, which has order 18."""
    global _T_POWERS
    if _T_POWERS is None:
        powers = [RepMatrix.identity()]
        t = rep_t()
        for _ in range(17):
            powers.append(powers[-1] * t)
        _T_POWERS = powers
    return _T_POWERS[exponent % 18]


def word_action(word: Word) -> RepMatrix:
    """Product of generator matrices along the word, leftmost first."""
    result = RepMatrix.identity()
    for gen, exponent in word:
        if gen == "S":
            if exponent != 1:
                raise ValueError("S tokens must have exponent 1")
            result = result * rep_s()
        elif gen == "T":
            result = result * _t_power(exponent)
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return result


def full_action(matrix: Mat2) -> Tuple[RepMatrix, int]:
    """Substitution matrix and determinant for a GL2(Z/72) matrix.

    The unimodular part is decomposed separately mod 8 and mod 9, each
    word lifted to an integer word trivial modulo the other factor, and
    the concatenation fed through the representation.  The result is
    returned together with the determinant d, which enters separately
    through the coefficient automorphism z -> z^d.
    """
    if matrix.mod != 72:
        matrix = matrix.to_mod(72)
    unimodular, det = split_det(matrix)
    word8 = lift_word(decompose(unimodular.to_mod(8), 8), 8)
    word9 = lift_word(decompose(unimodular.to_mod(9), 9), 9)
    return word_action(word8 + word9), det


def dual_action(rep: RepMatrix, det: int, coeffs: Vector) -> Vector:
    """Coefficient-vector form of the action used by the invariance check.

    The substitution matrix multiplies the vector directly, its entries
    first twisted by the representative of +-d that is 1 mod 3 (the one
    fixing the cube roots of unity); the determinant then contributes
    its permutation matrix transposed.  Stabilizer units of the order
    must fix the vector of sqrt(3) * F_2 under this map.
    """
    exponent = det % 72 if det % 3 == 1 else (-det) % 72
    moved = rep.apply(coeffs)
    twisted = tuple(x.galois(exponent) for x in moved)
    return rep_sigma(det).act_on_coefficients(twisted)


def dense_conjugate_action(rep: RepMatrix, det: int, coeffs: Vector) -> Vector:
    """Coefficient vector of the Galois conjugate of a function.

    A function written as a coefficient vector a is first precomposed
    with the unimodular substitution (transpose of the matrix, per the
    module docstring), then every coefficient of the result is twisted
    by z -> z^d, including the root-of-unity factors the twist induces
    on the basis functions themselves.  ``conjugate_action`` is the same
    map on the integer encoding.
    """
    pulled = rep.act_on_coefficients(coeffs)
    twisted = tuple(x.galois(det) for x in pulled)
    return rep_sigma(det).act_on_coefficients(twisted)


# -- the integer encoding ---------------------------------------------------

Term = Tuple[int, int, int]
"""(index, k, e): the coefficient vector with z^k * sqrt(3)^e at index."""

SQRT3_F2: Term = (2, 0, 1)
"""sqrt(3) * F_2, the function whose conjugates are the class invariants."""


def _sqrt3_sign(d: int) -> int:
    """The sign z -> z^d puts on sqrt(3) = z^6 - z^30: the character chi_12."""
    if math.gcd(d, ORDER) != 1:
        raise ValueError("not a Galois element")
    return 1 if d % 12 in (1, 11) else -1


def monomial_entry(k: int, e: int) -> CycNum:
    """The exact field element z^k * sqrt(3)^e."""
    root = CycNum.zeta_pow(k) * (SQRT3 if e % 2 else _ONE)
    return root * Fraction(3) ** (e // 2)


def _twist_term(term: Term, d: int) -> Term:
    """Apply z -> z^d to the coefficient of a term (or of a matrix row)."""
    index, k, e = term
    flip = 36 if _sqrt3_sign(d) < 0 and e % 2 else 0
    return index, (d * k + flip) % ORDER, e


@dataclass(frozen=True)
class Monomial:
    """A monomial 6x6 matrix in the integer encoding.

    ``rows[i] = (j, k, e)`` says that row i holds z^k * sqrt(3)^e in
    column j and zeros elsewhere, with 0 <= k < 72, and the columns j
    form a permutation.  ``from_columns`` checks both; products and
    twists keep them.
    """

    rows: Tuple[Tuple[int, int, int], ...]

    @staticmethod
    def from_columns(perm: Sequence[int], k: Sequence[int],
                     e: Sequence[int]) -> "Monomial":
        """Row i holds z^k[i] * sqrt(3)^e[i] in column perm[i]."""
        if sorted(perm) != list(range(SIZE)) or not len(k) == len(e) == SIZE:
            raise ValueError("not a 6x6 monomial matrix")
        return Monomial(tuple((j, x % ORDER, y) for j, x, y in zip(perm, k, e)))

    @staticmethod
    def identity() -> "Monomial":
        return Monomial(tuple((i, 0, 0) for i in range(SIZE)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        right = other.rows
        out = []
        for j, k, e in self.rows:
            column, k2, e2 = right[j]
            out.append((column, (k + k2) % ORDER, e + e2))
        return Monomial(tuple(out))

    def galois(self, d: int) -> "Monomial":
        """Every entry under z -> z^d."""
        return Monomial(tuple(_twist_term(row, d) for row in self.rows))

    def apply(self, term: Term) -> Term:
        """Matrix times the term's column vector."""
        index, k, e = term
        row = [j for j, _, _ in self.rows].index(index)
        _, k2, e2 = self.rows[row]
        return row, (k + k2) % ORDER, e + e2

    def act_on_coefficients(self, term: Term) -> Term:
        """Transpose times the term's column vector; see the module docstring."""
        index, k, e = term
        j, k2, e2 = self.rows[index]
        return j, (k + k2) % ORDER, e + e2

    def dense(self) -> RepMatrix:
        """The same matrix over the cyclotomic field, for the oracle."""
        return RepMatrix.from_entries({
            (i, j): monomial_entry(k, e) for i, (j, k, e) in enumerate(self.rows)
        })


MONOMIAL_S = Monomial.from_columns((0, 3, 4, 1, 2, 5), (0, 69, 3, 3, 69, 0),
                                   (0, -1, -1, 1, 1, 0))
"""``rep_s`` in the integer encoding."""

MONOMIAL_T = Monomial.from_columns((1, 2, 0, 4, 5, 3), (3, 3, 6, 69, 66, 69),
                                   (0,) * SIZE)
"""``rep_t`` in the integer encoding."""


def _monomial_t_powers() -> Tuple[Monomial, ...]:
    powers = [Monomial.identity()]
    for _ in range(17):
        powers.append(powers[-1] * MONOMIAL_T)
    return tuple(powers)


_MONOMIAL_T_POWERS = _monomial_t_powers()
"""T has order 18 in the representation."""


def monomial_sigma(d: int) -> Monomial:
    """``rep_sigma(d)`` in the integer encoding, by the same formulas."""
    if math.gcd(d, ORDER) != 1:
        raise ValueError("not a Galois element")
    if d % 3 == 1:
        return Monomial.from_columns(
            range(SIZE), (0, d - 1, 2 * d - 2, 2 * d - 2, d - 1, 3 * d - 3), (0,) * SIZE)
    return Monomial.from_columns(
        (0, 2, 1, 4, 3, 5), (0, d - 2, 2 * d - 1, 2 * d - 1, d - 2, 3 * d - 3), (0,) * SIZE)


def monomial_word_action(word: Word) -> Monomial:
    """``word_action`` in the integer encoding."""
    result = Monomial.identity()
    for gen, exponent in word:
        if gen == "S":
            if exponent != 1:
                raise ValueError("S tokens must have exponent 1")
            result = result * MONOMIAL_S
        elif gen == "T":
            result = result * _MONOMIAL_T_POWERS[exponent % 18]
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return result


def monomial_action(matrix: Mat2) -> Tuple[Monomial, int]:
    """``full_action`` in the integer encoding: the same split and words."""
    if matrix.mod != 72:
        matrix = matrix.to_mod(72)
    unimodular, det = split_det(matrix)
    word8 = lift_word(decompose(unimodular.to_mod(8), 8), 8)
    word9 = lift_word(decompose(unimodular.to_mod(9), 9), 9)
    return monomial_word_action(word8 + word9), det


def conjugate_action(action: Monomial, det: int, term: Term) -> Term:
    """The term of the Galois conjugate; see ``dense_conjugate_action``."""
    pulled = _twist_term(action.act_on_coefficients(term), det)
    return monomial_sigma(det).act_on_coefficients(pulled)


def monomial_dual_action(action: Monomial, det: int, term: Term) -> Term:
    """``dual_action`` in the integer encoding."""
    exponent = det % ORDER if det % 3 == 1 else (-det) % ORDER
    moved = _twist_term(action.apply(term), exponent)
    return monomial_sigma(det).act_on_coefficients(moved)


def form_matrix_mod72(form: QuadForm) -> Mat2:
    """The GL2(Z/72) matrix attached to a form, glued from mod 8 and mod 9."""
    return crt_combine(form_matrix(form, 8), form_matrix(form, 9))


def form_action(form: QuadForm) -> Tuple[Monomial, int]:
    """The (integer action, determinant) pair attached to a form class."""
    return monomial_action(form_matrix_mod72(form))


@dataclass(frozen=True)
class InvarianceResult:
    """Outcome of one generator's invariance test."""

    modulus: int
    generator: Tuple[int, int]
    matrix: Mat2
    det: int
    invariant: bool


def invariance_check(n: int) -> List[InvarianceResult]:
    """Check that sqrt(3) * F_2 is fixed by the stabilizer unit groups.

    For each generator g of the unit groups of Z[w]/8 and Z[w]/9, the
    multiplication matrix of g (completed by the identity modulo the
    complementary factor) must fix the coefficient vector of
    sqrt(3) * F_2 under the dual action.
    """
    if n % 24 != 11:
        raise ValueError("n must be ≡ 11 mod 24")
    c_param = (n + 1) // 4
    results: List[InvarianceResult] = []
    for modulus in (8, 9):
        group = unit_group(c_param, modulus)
        for gen in generators_for(n, modulus, group):
            local = generator_matrix(gen, c_param, modulus)
            if modulus == 8:
                combined = crt_combine(local, Mat2.identity(9))
            else:
                combined = crt_combine(Mat2.identity(8), local)
            action, det = monomial_action(combined)
            moved = monomial_dual_action(action, det, SQRT3_F2)
            results.append(
                InvarianceResult(
                    modulus=modulus,
                    generator=gen,
                    matrix=combined,
                    det=det,
                    invariant=(moved == SQRT3_F2),
                )
            )
    return results

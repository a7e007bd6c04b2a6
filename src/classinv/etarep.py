"""Exact action of modular words and Galois twists on level-72 eta quotients.

The six functions F_0, ..., F_5 spanned here are the eta quotients
listed in ``numeval.ETA_QUOTIENTS``, each a product of two eta factors
divided by eta(tau)^2.

The generators S: tau -> -1/tau and T: tau -> tau + 1 permute this
six-dimensional space up to scalars z^k * sqrt(3)^e, z = exp(2*pi*i/72),
as do the Galois automorphisms z -> z^d of the coefficient field.
Every matrix here is therefore monomial: one nonzero entry per row and
column, each of that form.  S is stated by hand.  T and every z -> z^d
act on each eta factor (a, j) of the table alone, sending it to
(a, j + a) and (a, d j), so one factor rule (``_factor_action``) reads
their matrices in the integer encoding from ``ETA_QUOTIENTS``; complex
conjugation is z -> z^-1.

The hot path stores such a matrix as a ``Monomial``, one integer triple
(column, k mod 72, e) per row, so products are a permutation
composition plus integer additions and the Galois twist z -> z^d maps
k to d*k (plus 36 when it negates sqrt(3) and e is odd).  The dense
``RepMatrix`` over the cyclotomic field, with the hand-stated
``rep_s``, ``rep_t`` and ``rep_sigma``, and ``word_action``,
``full_action`` and ``dual_action``, is the exact oracle:
``Monomial.dense`` rebuilds it, and the selftest and test suites
compare the two entry for entry.  The oracle's matrices live in
``classinv.oracle``, which nothing on the hot path imports: the dense
actions and ``Monomial.dense`` import it when called, and its public names
(``RepMatrix``, ``rep_s``, ...) are read from here on demand
(``__getattr__``).  ``classinv.orders`` too loads at first use: the
invariance check calls its three functions by their names here
(``unit_group``, ``generators_for``, ``generator_matrix``), and
builds its ``InvarianceResult`` records there.  Both encodings share
one path, ``_factored_action``: since GL2(Z/72) = GL2(Z/8) x GL2(Z/9),
a matrix is given by its mod-8 and mod-9 factors, and its action is
that of the unimodular part of the mod-8 factor times that of the
mod-9 factor, with the determinant, glued mod 72, entering as a twist.
Each part is a short S,T word over Z/m, and the action is the image
of the mod-8 word times that of the mod-9 word, each factor taken by
one step (``_mod_action``: ``split_det``, ``decompose``, the image).
A stabilizer generator of the invariance check is the identity in one
factor, which acts trivially with determinant 1, so the check takes
only the step of its own factor.  An encoding gives the
image of a word mod m as one function: the word multiplied out
(``sl2words.word_product``) over the encoding's images of the lifted
generators of that factor, S and T^e for 0 <= e < m, which are built
once per encoding.  The integer encoding keeps each word's image in a
table (``_monomial_image``); the dense oracle multiplies it out anew on
every call, so the two stay independent derivations.  A form's action
is built from its two factor matrices directly; a GL2(Z/72) matrix is
glued (``form_matrix_mod72``) only for the oracle and for display.

A matrix A gives the substitution rule F(g(tau)) = (A F)(tau) on the
column vector F of the six functions.  A function written as a
coefficient vector a (meaning sum a_i F_i) therefore transforms by the
transpose: precomposing with a word g_1 ... g_k sends a to
(A_{g_1} ... A_{g_k})^t a.  On the hot path such a vector is a single
scaled basis vector, stored as a ``Term`` (index, k, e).  The term of
the mirror (a, -b, c) of a form is the form's own under z -> z^-1
(``mirror_term``), so the action of a mirror is never needed to find it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from .cyclotomic import ORDER, SQRT3, CycNum
from .numeval import ETA_QUOTIENTS, check_integer
from .quadforms import QuadForm
from .sl2words import (Mat2, Word, crt72, crt_combine, decompose, form_matrix, lift_word,
                       split_det, word_product)

if TYPE_CHECKING:
    from .oracle import RepMatrix, Vector
    from .orders import Element, InvarianceResult, UnitGroup

SIZE = 6

_ORACLE_NAMES = frozenset({"RepMatrix", "dense_conjugate_action", "rep_s", "rep_sigma",
                           "rep_t", "unit_vector"})
"""The dense oracle's public names, which this module gives on first use
(``__getattr__``) from ``classinv.oracle``."""


def __getattr__(name: str):
    """A name of the dense oracle, importing ``classinv.oracle`` at first
    use, or ``InvarianceResult`` from ``classinv.orders``."""
    if name == "InvarianceResult":
        return _orders().InvarianceResult
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    return getattr(oracle, name)


def _t_powers(identity, t) -> Callable[[int], object]:
    """exponent -> t^exponent for an image t of T, which has order 18."""
    powers = [identity]
    while len(powers) < 18:
        powers.append(powers[-1] * t)
    return lambda exponent: powers[exponent % len(powers)]


def word_action(word: Word) -> RepMatrix:
    """Product of generator matrices along the word, leftmost first."""
    from .oracle import RepMatrix, _dense_t_power, rep_s
    return word_product(word, RepMatrix.identity(), rep_s(), _dense_t_power())


Images = Dict[int, Tuple[object, Tuple[object, ...]]]
"""m -> (image of S, images of T^e for 0 <= e < m), for lifts mod m."""


def _lifted_images(identity, s, t_power: Callable[[int], object]) -> Images:
    """An encoding's images of the generators of SL2(Z/8) and SL2(Z/9).

    The generator S or T^e mod m is lifted (``lift_word``) to an integer
    word that is trivial modulo the complementary factor of 72, and the
    lift is multiplied out over the encoding's images of S and T.
    """
    def image(word: Word):
        return word_product(word, identity, s, t_power)
    return {m: (image(lift_word((("S", 1),), m)),
                tuple(image(lift_word((("T", e),), m)) for e in range(m)))
            for m in (8, 9)}


def _word_image(images: Images, word: Word, m: int):
    """The image of an S,T word over Z/m, its T exponents in [0, m),
    multiplied out over the images of its factor's lifted generators."""
    s, t = images[m]  # t[0], the image of T^0, is the identity
    return word_product(word, t[0], s, t.__getitem__)


def _mod_action(matrix: Mat2, m: int,
                image: Callable[[Word, int], object]) -> Tuple[object, int]:
    """The action, in the encoding whose image of a word over Z/m is
    ``image(word, m)``, of the factor mod m of a GL2(Z/72) matrix whose
    other factor is the identity, and the factor's determinant d_m.

    The factor is B_m * diag(1, d_m) with B_m unimodular over Z/m
    (``split_det``); B_m is decomposed into an S,T word with T
    exponents in [0, m), and the action is that word's image.
    """
    unimodular, det = split_det(matrix)
    return image(decompose(unimodular, m), m), det


def _factored_action(m8: Mat2, m9: Mat2,
                     image: Callable[[Word, int], object]) -> Tuple[object, int]:
    """The action of the GL2(Z/72) matrix with factors m8 mod 8 and m9
    mod 9 (see ``_mod_action``), and its determinant d mod 72: the
    image of the mod-8 word times that of the mod-9 word, and d glued
    from d_8 and d_9.
    """
    action8, det8 = _mod_action(m8, 8, image)
    action9, det9 = _mod_action(m9, 9, image)
    return action8 * action9, crt72(det8, det9)


def full_action(matrix: Mat2) -> Tuple[RepMatrix, int]:
    """Substitution matrix and determinant for a GL2(Z/72) matrix.

    The matrix is reduced once to each factor of 72, and the unimodular
    part acts through the representation one factor at a time
    (``_factored_action``).  The determinant d is returned with it; it
    enters separately through the coefficient automorphism z -> z^d.
    """
    from .oracle import _dense_image
    return _factored_action(matrix.to_mod(8), matrix.to_mod(9), _dense_image)


def dual_action(rep: RepMatrix, det: int, coeffs: Vector) -> Vector:
    """Coefficient-vector form of the action used by the invariance check.

    The substitution matrix multiplies the vector directly, its entries
    first twisted by the representative of +-d that is 1 mod 3 (the one
    fixing the cube roots of unity); the determinant then contributes
    its permutation matrix transposed.  Stabilizer units of the order
    must fix the vector of sqrt(3) * F_2 under this map.
    """
    from .oracle import rep_sigma
    exponent = det % 72 if det % 3 == 1 else (-det) % 72
    moved = rep.apply(coeffs)
    twisted = tuple(x.galois(exponent) for x in moved)
    return rep_sigma(det).act_on_coefficients(twisted)


# -- the integer encoding ---------------------------------------------------

Term = Tuple[int, int, int]
"""(index, k, e): the coefficient vector with z^k * sqrt(3)^e at index."""

BAD_RESIDUE_MESSAGE = "n must be ≡ 11 mod 24"
"""Why an n is rejected: the invariant t_n is built for positive n = 11 mod 24."""


def is_valid_n(n: int) -> bool:
    """Whether the invariant t_n is built here: n > 0 and n = 11 mod 24.

    An n that is not an integer raises ValueError instead.
    """
    n = check_integer(n, "n")
    return n > 0 and n % 24 == 11


SQRT3_F2: Term = (2, 0, 1)
"""sqrt(3) * F_2, the function whose conjugates are the class invariants."""


def _sqrt3_sign(d: int) -> int:
    """The sign z -> z^d puts on sqrt(3) = z^6 - z^30: the character chi_12."""
    if math.gcd(d, ORDER) != 1:
        raise ValueError("not a Galois element")
    return 1 if d % 12 in (1, 11) else -1


@lru_cache(maxsize=None)
def _sqrt3_power(e: int) -> CycNum:
    return SQRT3 ** e


def monomial_entry(k: int, e: int) -> CycNum:
    """The exact field element z^k * sqrt(3)^e.

    For e = 0 it is the shared ``CycNum.zeta_pow(k)`` itself, with no
    product; any other e makes one ``CycNum`` product per call.
    """
    if e == 0:
        return CycNum.zeta_pow(k)
    return CycNum.zeta_pow(k) * _sqrt3_power(e)


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
        from .oracle import RepMatrix
        return RepMatrix.from_entries({
            (i, j): monomial_entry(k, e) for i, (j, k, e) in enumerate(self.rows)
        })


MONOMIAL_S = Monomial.from_columns((0, 3, 4, 1, 2, 5), (0, 69, 3, 3, 69, 0),
                                   (0, -1, -1, 1, 1, 0))
"""``rep_s`` in the integer encoding."""


def _factor_action(move: Callable[[int, int], int]) -> Monomial:
    """The substitution sending every eta factor (a, j) to (a, move(a, j)).

    eta(x + 1) = zeta_24 eta(x), so (a, J), for any integer J, is
    z^(J - J mod 3) times the table's factor (a, J mod 3).  Row i holds,
    in the column of the row with F_i's moved factors, z to the sum of
    their powers less twice that of the denominator's (3, 0).
    """
    def moved(factors):
        pairs = [(a, move(a, j)) for a, j in factors]
        return sorted((a, J % 3) for a, J in pairs), sum(J - J % 3 for _, J in pairs)
    # a quotient is the same function whichever factor comes first
    rows = [sorted(row) for row in ETA_QUOTIENTS]
    _, denominator = moved([(3, 0)])
    columns, k = [], []
    for factors in ETA_QUOTIENTS:
        pairs, power = moved(factors)
        columns.append(rows.index(pairs))
        k.append(power - 2 * denominator)
    return Monomial.from_columns(columns, k, (0,) * SIZE)


MONOMIAL_T = _factor_action(lambda a, j: j + a)
"""``rep_t`` in the integer encoding: (a tau + j)/3 at tau + 1 is
(a tau + j + a)/3."""

_MONOMIAL_T_POWER = _t_powers(Monomial.identity(), MONOMIAL_T)


@lru_cache(maxsize=None)
def _sigma(d: int) -> Monomial:
    return _factor_action(lambda a, j: d * j)


def monomial_sigma(d: int) -> Monomial:
    """``rep_sigma(d)`` in the integer encoding, built at first use of d
    mod 72: z -> z^d sends the factor (a, j), w^a zeta_72^j S(zeta_3^j Q^a)
    (``numeval.EtaFactor``), to (a, d j)."""
    if math.gcd(d, ORDER) != 1:
        raise ValueError("not a Galois element")
    return _sigma(d % ORDER)


def monomial_word_action(word: Word) -> Monomial:
    """``word_action`` in the integer encoding."""
    return word_product(word, Monomial.identity(), MONOMIAL_S, _MONOMIAL_T_POWER)


_MONOMIAL_IMAGES = _lifted_images(Monomial.identity(), MONOMIAL_S, _MONOMIAL_T_POWER)


@lru_cache(maxsize=None)
def _monomial_image(word: Word, m: int) -> Monomial:
    """The integer image of a word, multiplied out once per (word, m).
    ``decompose`` gives one word per matrix, so the table holds at most
    |SL2(Z/8)| + |SL2(Z/9)| = 384 + 648 entries."""
    return _word_image(_MONOMIAL_IMAGES, word, m)


def monomial_action(matrix: Mat2) -> Tuple[Monomial, int]:
    """``full_action`` in the integer encoding: the same factored path."""
    return _factored_action(matrix.to_mod(8), matrix.to_mod(9), _monomial_image)


def conjugate_action(action: Monomial, det: int, term: Term) -> Term:
    """The term of the Galois conjugate; see ``dense_conjugate_action``."""
    pulled = _twist_term(action.act_on_coefficients(term), det)
    return monomial_sigma(det).act_on_coefficients(pulled)


def mirror_term(term: Term) -> Term:
    """The conjugate term of the mirror (a, -b, c) of a form whose
    conjugate term is ``term``, with no action computed: the term under
    sigma_-1, as ``conjugate_action`` with the identity and d = -1.

    The mirror's root is -conj(tau), and w(-conj(tau)) = conj(w(tau))
    for w = exp(pi i tau / 36), so the form's conjugate z^k sqrt(3)^e F_i
    with its coefficients in w twisted by z -> z^-1, z^-k sqrt(3)^e times
    row i of sigma_-1, takes there the complex conjugate of its value.
    """
    index, k, e = term
    column, c, _ = monomial_sigma(-1).rows[index]
    return column, (c - k) % ORDER, e


def monomial_dual_action(action: Monomial, det: int, term: Term) -> Term:
    """``dual_action`` in the integer encoding."""
    exponent = det % ORDER if det % 3 == 1 else (-det) % ORDER
    moved = _twist_term(action.apply(term), exponent)
    return monomial_sigma(det).act_on_coefficients(moved)


def form_matrix_mod72(form: QuadForm) -> Mat2:
    """The GL2(Z/72) matrix attached to a form, glued from mod 8 and mod 9,
    for the dense oracle."""
    return crt_combine(form_matrix(form, 8), form_matrix(form, 9))


def form_action(form: QuadForm) -> Tuple[Monomial, int]:
    """The (integer action, determinant) pair attached to a form class,
    from its matrices mod 8 and mod 9."""
    return _factored_action(form_matrix(form, 8), form_matrix(form, 9), _monomial_image)


@lru_cache(maxsize=None)
def _orders():
    """``classinv.orders``, imported at the first call: only the
    invariance check reads it."""
    from . import orders
    return orders


def unit_group(c_param: int, modulus: int) -> UnitGroup:
    """``orders.unit_group``, under this name for ``invariance_check``."""
    return _orders().unit_group(c_param, modulus)


def generators_for(n: int, modulus: int, group: UnitGroup) -> Tuple[Element, ...]:
    """``orders.generators_for``, under this name for ``invariance_check``."""
    return _orders().generators_for(n, modulus, group)


def generator_matrix(x: Element, c_param: int, modulus: int) -> Mat2:
    """``orders.generator_matrix``, under this name for ``invariance_check``."""
    return _orders().generator_matrix(x, c_param, modulus)


_IDENTITY = {8: Mat2.identity(8), 9: Mat2.identity(9)}
"""The identity mod 8 and mod 9, which completes a generator's matrix
modulo the other factor."""


def invariance_check(n: int) -> List[InvarianceResult]:
    """Check that sqrt(3) * F_2 is fixed by the stabilizer unit groups.

    For each of the paper's generators g of the unit groups of Z[w]/8
    and Z[w]/9 (``orders.generators_for``, which proves that they
    generate), the multiplication matrix of g (completed by the identity
    modulo the complementary factor) must fix the coefficient vector of
    sqrt(3) * F_2 under the dual action.  The identity factor acts
    trivially and has determinant 1, so only g's own factor is
    decomposed (``_mod_action``).
    """
    if not is_valid_n(n):
        raise ValueError(BAD_RESIDUE_MESSAGE)
    c_param = (n + 1) // 4
    record = _orders().InvarianceResult
    results: List[InvarianceResult] = []
    for modulus in (8, 9):
        group = unit_group(c_param, modulus)
        for gen in generators_for(n, modulus, group):
            local = generator_matrix(gen, c_param, modulus)
            action, det = _mod_action(local, modulus, _monomial_image)
            if modulus == 8:
                factors, det = (local, _IDENTITY[9]), crt72(det, 1)
            else:
                factors, det = (_IDENTITY[8], local), crt72(1, det)
            moved = monomial_dual_action(action, det, SQRT3_F2)
            results.append(
                record(
                    modulus=modulus,
                    generator=gen,
                    matrix=crt_combine(*factors),
                    det=det,
                    invariant=(moved == SQRT3_F2),
                )
            )
    return results

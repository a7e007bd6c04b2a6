"""Words in the generators S, T of the modular group, over Z and Z/m.

S = [[0, -1], [1, 0]] and T = [[1, 1], [0, 1]] generate SL(2, Z).  This
module reads S,T words (``word_product``, for any image of the
generators, and ``lift_word``, both through one token check),
builds the GL(2, Z/8) and GL(2, Z/9) matrices attached to quadratic
forms, splits off their determinants, decomposes the unimodular parts
into short S,T words, and lifts words to integer matrices that reduce
to the identity modulo the complementary factor of 72.  A GL(2, Z/72)
matrix or determinant is glued from its two factors by the Chinese
remainder theorem (``crt72``, ``crt_combine``) only where one is shown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .numeval import check_integer
from .quadforms import QuadForm

_MODULI = (int, type(None))
"""The types of a modulus that ``Mat2`` takes unchecked."""

Word = Tuple[Tuple[str, int], ...]
"""A word is a tuple of (generator, exponent) tokens, generator 'S' or 'T'."""


@dataclass(frozen=True, init=False)
class Mat2:
    """A 2x2 matrix over Z (mod None) or over Z/mod.

    A modular matrix holds its entries reduced into [0, mod), and a
    modulus of 0 or less raises ValueError, as does an entry or modulus
    that is not an integer (``numeval.check_integer``, as for
    ``QuadForm``).  The constructor checks and reduces first and then
    sets each field once (``dataclasses.replace`` goes through it too,
    and checks and reduces again).
    """

    a: int
    b: int
    c: int
    d: int
    mod: Optional[int] = None

    def __init__(self, a: int, b: int, c: int, d: int, mod: Optional[int] = None) -> None:
        # plain ints, as nearly every matrix has, skip the check
        if not (type(a) is type(b) is type(c) is type(d) is int and type(mod) in _MODULI):
            a, b, c, d = (check_integer(x, f"matrix entry {n}")
                          for x, n in zip((a, b, c, d), "abcd"))
            mod = mod if mod is None else check_integer(mod, "modulus")
        if mod is not None:
            if mod <= 0:
                raise ValueError("modulus must be positive")
            a, b, c, d = a % mod, b % mod, c % mod, d % mod
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(a=a, b=b, c=c, d=d, mod=mod)

    @staticmethod
    def identity(mod: Optional[int] = None) -> "Mat2":
        return Mat2(1, 0, 0, 1, mod)

    @property
    def det(self) -> int:
        value = self.a * self.d - self.b * self.c
        return value % self.mod if self.mod is not None else value

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.mod != other.mod:
            raise ValueError("modulus mismatch")
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.mod,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d, self.mod)

    def to_mod(self, m: int) -> "Mat2":
        """Reduce an integer or compatible modular matrix to Z/m."""
        if self.mod is not None and self.mod % m != 0:
            raise ValueError("modulus mismatch")
        return Mat2(self.a, self.b, self.c, self.d, m)

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        tail = f" mod {self.mod}" if self.mod is not None else ""
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]{tail}"


def mat_s(mod: Optional[int] = None) -> Mat2:
    return Mat2(0, -1, 1, 0, mod)


def mat_t(exponent: int = 1, mod: Optional[int] = None) -> Mat2:
    return Mat2(1, exponent, 0, 1, mod)


def _is_s(gen: str, exponent: int) -> bool:
    """Whether a token is S rather than T; rejects any other token.

    This is the one reader of the token format.
    """
    if gen == "S":
        if exponent != 1:
            raise ValueError("S tokens must have exponent 1")
        return True
    if gen != "T":
        raise ValueError(f"unknown generator {gen!r}")
    return False


def word_product(word: Word, start, s, t):
    """``start`` times the generator images along the word, leftmost
    token first.

    ``s`` is the image of S and ``t(exponent)`` that of T^exponent, in
    any multiplicative structure; the identity as ``start`` gives the
    word's own image.
    """
    result = start
    for gen, exponent in word:
        result = result * (s if _is_s(gen, exponent) else t(exponent))
    return result


def word_to_matrix(word: Word, mod: Optional[int] = None) -> Mat2:
    """The word as a matrix over Z or Z/mod."""
    return word_product(word, Mat2.identity(mod), mat_s(mod), lambda e: mat_t(e, mod))


def decompose(matrix: Mat2, modulus: int) -> Word:
    """Write a unimodular matrix over Z/modulus as an S,T word.

    The modulus must be a prime power, which guarantees that one of the
    entries a, c of a determinant-one matrix is invertible.  The word
    reconstructs the matrix exactly (not merely up to sign), with T
    exponents reduced into [0, modulus).
    """
    m = matrix if matrix.mod == modulus else matrix.to_mod(modulus)
    if m.det != 1:
        raise ValueError("lemma precondition violated")
    a, b, c, d = m.entries()
    if a == 1 and c == 0:
        # pure translation
        return (("T", b),) if b else ()
    word: list
    if math.gcd(c, modulus) == 1:
        c_inv = pow(c, -1, modulus)
        y = ((1 + a) * c_inv) % modulus
        x = ((1 + d) * c_inv) % modulus
        word = [("T", y), ("S", 1), ("T", c), ("S", 1), ("T", x)]
    elif math.gcd(a, modulus) == 1:
        a_inv = pow(a, -1, modulus)
        z = ((1 + c) * a_inv) % modulus
        w = ((b - 1) * a_inv) % modulus
        word = [("S", 1), ("T", (-z) % modulus), ("S", 1), ("T", (-a) % modulus),
                ("S", 1), ("T", w)]
    else:
        raise ValueError("lemma precondition violated")
    return tuple(token for token in word if token[0] == "S" or token[1] != 0)


S_WORD_MOD8: Word = (("T", -1), ("S", 1), ("T", -10), ("S", 1),
                     ("T", -1), ("S", 1), ("T", -162))
"""Integer word congruent to S mod 8 and to the identity mod 9."""

S_WORD_MOD9: Word = (("T", -1), ("S", 1), ("T", -65), ("S", 1),
                     ("T", -1), ("S", 1), ("T", 1096))
"""Integer word congruent to S mod 9 and to the identity mod 8."""

T_STRETCH_MOD8 = 9
"""T^9 is congruent to T mod 8 and to the identity mod 9."""

T_STRETCH_MOD9 = -8
"""T^-8 is congruent to T mod 9 and to the identity mod 8."""


def lift_word(word: Word, modulus: int) -> Word:
    """Replace each token by an integer word trivial mod the complement.

    For modulus 8 the result reduces to the original word mod 8 and to
    the identity mod 9; for modulus 9 the roles are swapped.
    """
    if modulus == 8:
        s_word, stretch = S_WORD_MOD8, T_STRETCH_MOD8
    elif modulus == 9:
        s_word, stretch = S_WORD_MOD9, T_STRETCH_MOD9
    else:
        raise ValueError("unsupported modulus")
    out: list = []
    for gen, exponent in word:
        if _is_s(gen, exponent):
            out.extend(s_word)
        else:
            out.append(("T", stretch * exponent))
    return tuple(out)


def crt72(x8: int, x9: int) -> int:
    """The residue mod 72 that is x8 mod 8 and x9 mod 9."""
    return (9 * x8 + 64 * x9) % 72


def crt_combine(m8: Mat2, m9: Mat2) -> Mat2:
    """The matrix over Z/72 reducing to m8 mod 8 and m9 mod 9."""
    if m8.mod != 8 or m9.mod != 9:
        raise ValueError("expected matrices mod 8 and mod 9")
    return Mat2(crt72(m8.a, m9.a), crt72(m8.b, m9.b),
                crt72(m8.c, m9.c), crt72(m8.d, m9.d), 72)


def split_det(matrix: Mat2) -> Tuple[Mat2, int]:
    """Factor a GL2 matrix as (unimodular part, determinant).

    Returns B with det B = 1 and the unit d such that the input equals
    B * diag(1, d); B is the input with its second column scaled by the
    inverse of d.
    """
    if matrix.mod is None:
        raise ValueError("expected a modular matrix")
    d = matrix.det
    if math.gcd(d, matrix.mod) != 1:
        raise ValueError("determinant is not a unit")
    d_inv = pow(d, -1, matrix.mod)
    b = Mat2(matrix.a, matrix.b * d_inv, matrix.c, matrix.d * d_inv, matrix.mod)
    return b, d


def form_matrix(form: QuadForm, modulus: int) -> Mat2:
    """The GL2(Z/modulus) matrix attached to a form, for modulus 8 or 9.

    Case split on divisibility of the outer coefficients by the prime p
    below the modulus; the determinant is a, c, or a + b + c, always a
    unit mod p for a form of discriminant prime to p.
    """
    if modulus == 8:
        p = 2
    elif modulus == 9:
        p = 3
    else:
        raise ValueError("unsupported modulus")
    a, b, c = form.a, form.b, form.c
    if b % 2 == 0:
        raise ValueError("form must have odd middle coefficient")
    if a % p != 0:
        mat = Mat2(a, (b - 1) // 2, 0, 1, modulus)
    elif c % p != 0:
        mat = Mat2((-b - 1) // 2, -c, 1, 0, modulus)
    else:
        mat = Mat2((-b - 1) // 2 - a, (1 - b) // 2 - c, 1, -1, modulus)
    if math.gcd(mat.det, modulus) != 1:
        raise ValueError("form matrix is singular")
    return mat

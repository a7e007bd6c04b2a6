"""Unit groups of the quadratic order Z[w] with w^2 = w - C, modulo m.

For squarefree n with n = 4*C - 1 the ring Z[w], w = (1 + sqrt(-n))/2,
is the maximal order of Q(sqrt(-n)).  Residues mod m are pairs
(x, y) = x + y*w with multiplication folded through the relation
w^2 = w - C.  The module enumerates the unit group of Z[w]/m, computes
its abelian invariant factors, and checks generating sets.  The group
depends only on C mod m, and for n = 11 mod 24 the paper's generators
depend only on n mod 48 (``STANDARD_GENERATORS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .numeval import check_integer
from .sl2words import Mat2

Element = Tuple[int, int]


def multiply(x: Element, y: Element, c_param: int, modulus: int) -> Element:
    """(x0 + x1*w)(y0 + y1*w) with w^2 = w - C, reduced mod modulus."""
    x0, x1 = x
    y0, y1 = y
    return ((x0 * y0 - c_param * x1 * y1) % modulus,
            (x0 * y1 + x1 * y0 + x1 * y1) % modulus)


def power(x: Element, k: int, c_param: int, modulus: int) -> Element:
    """x^k by repeated squaring; an exponent k that is not an integer of
    at least 0 raises ValueError."""
    k = check_integer(k, "exponent")
    if k < 0:
        raise ValueError(f"exponent must be at least 0, got {k}")
    result: Element = (1 % modulus, 0)
    base = x
    while k:
        if k & 1:
            result = multiply(result, base, c_param, modulus)
        base = multiply(base, base, c_param, modulus)
        k >>= 1
    return result


def residue_norm(x: Element, c_param: int, modulus: int) -> int:
    """Determinant of multiplication by x, namely x0^2 + x0*x1 + C*x1^2."""
    x0, x1 = x
    return (x0 * x0 + x0 * x1 + c_param * x1 * x1) % modulus


def is_unit(x: Element, c_param: int, modulus: int) -> bool:
    return math.gcd(residue_norm(x, c_param, modulus), modulus) == 1


def generator_matrix(x: Element, c_param: int, modulus: int) -> Mat2:
    """Matrix of multiplication by x = x0 + x1*w on the basis (w, 1)."""
    x0, x1 = x
    return Mat2(x0 + x1, -c_param * x1, x1, x0, modulus)


@dataclass(frozen=True)
class UnitGroup:
    """The unit group of Z[w]/m; its abelian invariants on first use."""

    c_param: int
    modulus: int
    elements: Tuple[Element, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def invariant_factors(self) -> Tuple[int, ...]:
        """The invariant factor decomposition, largest first, so each
        entry divides the one before it."""
        partitions = {p: _p_partition(self.elements, p, self.c_param, self.modulus)
                      for p in _prime_factors(self.order)}
        width = max((len(v) for v in partitions.values()), default=0)
        factors = []
        for i in range(width):
            f = 1
            for p, parts in partitions.items():
                if i < len(parts):
                    f *= p ** parts[i]
            factors.append(f)
        if math.prod(factors) != self.order:
            raise ArithmeticError("invariant factors do not multiply to group order")
        return tuple(factors)


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _p_partition(elements: Sequence[Element], p: int, c_param: int,
                 modulus: int) -> List[int]:
    """Exponent partition of the p-part, from counts of p^j-th roots of 1."""
    identity = (1 % modulus, 0)
    layer_sizes: List[int] = []
    prev = 1
    j = 1
    while True:
        count = sum(1 for x in elements
                    if power(x, p ** j, c_param, modulus) == identity)
        if count == prev:
            break
        ratio = count // prev
        e = round(math.log(ratio, p))
        if p ** e != ratio:
            raise ArithmeticError("group layer size is not a clean power")
        layer_sizes.append(e)
        prev = count
        j += 1
    # layer_sizes[j-1] counts the cyclic factors of order at least p^j;
    # its conjugate partition lists the exponents themselves.
    parts = []
    for i in range(layer_sizes[0] if layer_sizes else 0):
        parts.append(sum(1 for e in layer_sizes if e > i))
    return sorted(parts, reverse=True)


def unit_group(c_param: int, modulus: int) -> UnitGroup:
    """Enumerate (Z[w]/m)*."""
    elements = tuple(
        (x0, x1)
        for x0 in range(modulus)
        for x1 in range(modulus)
        if is_unit((x0, x1), c_param, modulus)
    )
    return UnitGroup(c_param, modulus, elements)


def subgroup_closure(generators: Sequence[Element], c_param: int,
                     modulus: int) -> set:
    """All products of the generators, by breadth-first closure."""
    for g in generators:
        if not is_unit(g, c_param, modulus):
            raise ValueError("not a unit")
    identity = (1 % modulus, 0)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = multiply(x, g, c_param, modulus)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def verify_generators(generators: Sequence[Element], group: UnitGroup) -> bool:
    """Whether the given units generate the whole unit group."""
    closure = subgroup_closure(generators, group.c_param, group.modulus)
    return len(closure) == group.order


STANDARD_GENERATORS: Dict[Tuple[int, int], Tuple[Element, ...]] = {
    # (n mod 48, modulus) -> generators of the unit group of Z[w]/modulus,
    # written as (x, y) for x + y*w; n = 11 covers C = 3 mod 4 and
    # n = 35 covers C = 1 mod 4, and both rows mod 9 cover C = 0 mod 3
    (11, 9): ((4, 7), (5, 0)),
    (35, 9): ((4, 7), (5, 0)),
    (11, 8): ((0, 1), (7, 0), (7, 4)),
    (35, 8): ((6, 5), (7, 0), (7, 4)),
}
"""The paper's generator sets, keyed by the class of n = 11 mod 24 mod 48."""


def generators_for(n: int, modulus: int, group: UnitGroup) -> Tuple[Element, ...]:
    """The paper's generators for n, checked to generate ``group``.

    Raises ArithmeticError when they do not, so every invariance check
    runs on a set proven to generate its stabilizer group.
    """
    gens = STANDARD_GENERATORS[(n % 48, modulus)]
    if not verify_generators(gens, group):
        raise ArithmeticError(
            f"standard generators {gens} do not generate (Z[w]/{modulus})* "
            f"for C = {group.c_param}")
    return gens

"""The expansion of a class polynomial on plain integers, and its rounding.

A class polynomial is the product of t - v over its values v.  Here it
is expanded over the reals in fixed point: each value is a Gaussian pair
of ints in units of 2^-bits, bits = ``_expansion_bits(digits)``, as many
fractional bits as the working digits plus EXPANSION_GUARD_BITS.  A real
value enters as the linear factor t - v, a value that stands for a
mirrored pair as the real quadratic t^2 - 2 Re(v) t + |v|^2
(``Factor``).  The factors, sorted by size, are dealt round-robin, once,
into one group per GROUP_SIZE values (one group below 2 GROUP_SIZE).  A
node of the join tree is its list of groups, plain data: each group is
swept smallest first (``_sweep``), so the integers stay short for as
long as possible, and the groups' products are joined up a binary tree
(``_product``, one recursion for any node, its cut rule in
``_children``).  Each join is one Kronecker product in base 10
(``_join``): both polynomials are packed into decimal slots of one exact
``decimal`` number each, multiplied once by libmpdec, whose
number-theoretic transform is much faster than int's Karatsuba on
operands of hundreds of thousands of bits, and read back as integers.

Every sweep step and every join floors once per coefficient, so the
expansion is off by a bound that the two state: under 2 m M units for
m factors, M = prod(1 + |sigma| + |pi|) over the factors t + sigma and
t^2 + sigma t + pi, plus a unit per join.  The rounding and its residual
are exact integer operations (``_expand_and_round``).

Nothing here knows of processes: the root of the join tree is formed by
the ``product`` that the caller hands ``_expand_and_round``.
``classpoly`` hands it a root that shares its work with a helper process
and gives ``_product``'s coefficients bit for bit.  This module imports
no mpmath: what goes in and what comes out are ints.
"""

from __future__ import annotations

import decimal
import math
import sys
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

EXPANSION_GUARD_BITS = 8
"""Fractional bits of the fixed-point expansion beyond the requested digits."""

GROUP_SIZE = 40
"""The expansion sweeps m values in max(1, m // GROUP_SIZE) groups, whose
products are then joined (``_expand_and_round``): below 80 values there
is one group, a plain smallest-first sweep."""

Factor = Tuple[int, Optional[int]]
"""A factor (s, p) of the expansion, in units of 2^-bits: t + s when p is
None, else t^2 + s t + p."""


def _expansion_bits(digits: int) -> int:
    """Fractional bits of the fixed-point expansion at ``digits``."""
    return math.ceil(digits * math.log2(10)) + EXPANSION_GUARD_BITS


def _sweep(factors: Sequence[Factor], bits: int,
           low: int = 0, high: Optional[int] = None,
           below: Optional[Iterator[Tuple[int, int]]] = None,
           send: Optional[Callable[[Tuple[int, int]], None]] = None) -> List[int]:
    """The ascending fixed-point coefficients of the monic product of the
    factors (``Factor``), multiplied in one at a time in the order given.

    Each step floors once per coefficient.  With sigma = s 2^-bits,
    pi = p 2^-bits, a step turns an error of eps units (of 2^-bits) into
    under (1 + |sigma| + |pi|) eps + |P| + 1 units, |P| the largest
    coefficient so far (p itself is floored); so m factors are off by
    under 2 m M units, M = prod(1 + |sigma| + |pi|).

    With ``high``, only the coefficients ``low`` to ``high - 1`` of every
    step are formed, those above the degree so far as zeros; without it,
    every coefficient, and ``low`` is 0.  Coefficient i of a step reads
    only i, i - 1 and i - 2 of the step before, so a window is the serial
    sweep restricted to it, bit for bit, given the two coefficients below
    it: ``below`` yields them, (c[low - 2], c[low - 1]) of the product so
    far, before every step (zeros when None, as for low = 0), and
    ``send`` is handed the window's top two, (c[high - 2], c[high - 1]),
    before every step: what ``below`` must yield to the window that
    starts at ``high``.  A sweep split over two processes is two windows:
    the lower one's ``send`` streams the pairs to the process that forms
    the upper one, whose ``below`` reads them."""
    if high is None:
        coeffs, grow = [1 << bits], [0]
    else:
        # a window keeps its width: zip stops at its top coefficient
        coeffs, grow = ([1 << bits] + [0] * high)[low:high], []
    for s, p in factors:
        c2, c1 = (0, 0) if below is None else next(below)
        if send is not None:
            send(tuple(([c2, c1] + coeffs)[-2:]))
        if p is None:
            coeffs = [a + ((s * b) >> bits)
                      for a, b in zip([c1] + coeffs, coeffs + grow)]
        else:
            coeffs = [a + ((s * b + p * c) >> bits)
                      for a, b, c in zip([c2, c1] + coeffs, [c1] + coeffs + grow,
                                         coeffs + grow + grow)]
    return coeffs


def _str_digits_limit() -> int:
    """Python's limit on the digits of an int <-> str conversion, 0 for
    none (builds before 3.10.7, or the limit switched off)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _join(a: Sequence[int], b: Sequence[int], bits: int) -> List[int]:
    """The product of two fixed-point polynomials, by one Kronecker product
    in base 10, multiplied by libmpdec's number-theoretic transform.

    Each polynomial is packed as the exact decimal sum of its signed
    coefficients times 10^(w i), w digits wide enough for every
    coefficient of the exact product, under min(len) max|a| max|b|, to
    lie strictly inside +-10^w / 2.  The packing adds neighbours
    pairwise, so it is linear in the digits up to a log factor.  The two
    packed numbers are multiplied once, plus 10^(w count) for the count
    coefficients of the product, in a private context of maximal
    precision that traps any inexact result.  The low w count digits of
    that positive number are read back in w-digit slots from the lowest:
    a slot read as u, plus the carry from the slot below, is the
    coefficient when under 10^w / 2 and the coefficient plus 10^w,
    carrying 1, otherwise.  Each coefficient is then shifted right by
    bits.  A slot wider than Python's int <-> str limit
    (``_str_digits_limit``) is read in pieces of at most that many
    digits.

    Every coefficient is an exact sum of products floored once, so it is
    off by under 1 unit from the product of a and b.  If a and b are off
    by eps_a and eps_b units, with coefficient sums |a|_1 and |b|_1 in
    value, the join is off by under |a|_1 eps_b + |b|_1 eps_a + 1 units,
    plus min(len) eps_a eps_b 2^-bits: to first order what sweeping b's
    factors into a would give, so joined groups keep the 2 m M bound of
    ``_sweep`` plus a unit per join.
    """
    size = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    # 30103 / 100000 exceeds log10(2), so 10^width > 2^size
    width = size * 30103 // 100000 + 1
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])

    def pack(poly: Sequence[int]) -> decimal.Decimal:
        # Decimal(x) has exponent 0, and so has every sum with it at the low
        # end: str() of the sum below gives plain digits
        parts = [decimal.Decimal(x) for x in poly]
        shift = width
        while len(parts) > 1:
            parts = [context.add(parts[i], context.scaleb(parts[i + 1], shift))
                     if i + 1 < len(parts) else parts[i]
                     for i in range(0, len(parts), 2)]
            shift *= 2
        return parts[0]

    count = len(a) + len(b) - 1
    # the product lies within +-10^(w count) / 2, so adding 10^(w count)
    # makes it positive, of at least w count digits, and keeps its low
    # w count digits: the string needs no sign and no padding
    digits = str(context.fma(pack(a), pack(b), context.scaleb(1, width * count)))
    piece = _str_digits_limit() or width
    head = width % piece or piece
    scale = 10 ** piece
    slot = 10 ** width
    half = slot >> 1
    coeffs = []
    carry = 0
    for end in range(len(digits), len(digits) - width * count, -width):
        # the slot's digits, in pieces within the int <-> str limit
        start = end - width + head
        c = int(digits[end - width:start])
        for i in range(start, end, piece):
            c = c * scale + int(digits[i:i + piece])
        c += carry
        carry = c >= half
        if carry:
            c -= slot
        coeffs.append(c >> bits)
    return coeffs


def _children(groups: Sequence[Sequence[Factor]]) -> Tuple[Sequence, Sequence]:
    """The two children of a node of w >= 2 groups: the first
    2^(ceil(log2 w) - 1) groups and the rest.  The first child is a power
    of two of groups, so the tree joins neighbours pairwise, level by
    level, an odd one out carried up a level.  Every join floors, so a
    tree of any other shape would move low bits."""
    cut = 1 << (len(groups) - 1).bit_length() >> 1
    return groups[:cut], groups[cut:]


def _product(groups: Sequence[Sequence[Factor]], bits: int) -> List[int]:
    """The ascending fixed-point coefficients of the monic product of the
    factors of ``groups``: one node of the join tree, which is its list
    of groups, formed in this process.  A node of one group is that
    group swept in its order (``_sweep``), a wider node the ``_join`` of
    its two children (``_children``), the first formed first."""
    if len(groups) == 1:
        return _sweep(groups[0], bits)
    first, second = _children(groups)
    return _join(_product(first, bits), _product(second, bits), bits)


def _degree(factors: Sequence[Factor]) -> int:
    """The degree of the product of the factors."""
    return sum(1 if p is None else 2 for _, p in factors)


def _expand_and_round(values: Sequence[Tuple[int, int]], paired: Sequence[bool], bits: int,
                      product: Callable[..., List[int]]) -> Tuple[Tuple[int, ...], int]:
    """Expand prod(t - v) over the reals and round to integers: the
    rounded coefficients, constant term first, and the residual in units
    of 2^-bits.

    Each value is a Gaussian fixed-point pair of ints in units of
    2^-bits.  ``paired[i]`` says that ``values[i]`` stands for itself and
    its complex conjugate, and contributes t^2 - 2 Re(v) t + |v|^2; any
    other value is real and contributes t - Re(v).  The factors, sorted
    by size, are dealt round-robin into g = max(1, m // GROUP_SIZE)
    groups for m values, here and only here: that list of groups is the
    root of the join tree, whose coefficients ``product(groups, bits)``
    forms (``_product``, or a root that gives its coefficients bit for
    bit).  The residual is the largest distance of a coefficient from
    its nearest integer or of a real value's imaginary part from 0.
    """
    # (size, s, p) until the sort, then the Factor (s, p)
    factors = []
    drift = 0
    for (vr, vi), pair in zip(values, paired):
        size = max(abs(vr), abs(vi)).bit_length()
        if pair:
            factors.append((size, -2 * vr, (vr * vr + vi * vi) >> bits))
        else:
            drift = max(drift, abs(vi))
            factors.append((size, -vr, None))
    factors = [(s, p) for _, s, p in sorted(factors, key=lambda factor: factor[0])]
    count = max(1, len(factors) // GROUP_SIZE)
    coeffs = product([factors[g::count] for g in range(count)], bits)
    half = 1 << (bits - 1)
    rounded = tuple((a + half) >> bits for a in coeffs)
    return rounded, max(drift, max(abs(a - (r << bits)) for a, r in zip(coeffs, rounded)))

"""Exact truncated Laurent expansions in u = exp(2*pi*i*tau/72).

Coefficients live in the cyclotomic field of 72nd roots of unity, so the
expansions of the six level-72 eta quotients, their shifts tau -> tau+1
(u -> z*u), and coefficientwise Galois maps can all be compared exactly.
This gives an independent check on the substitution matrices: an
identity between series verified through hundreds of exact coefficients
leaves no room for a wrong root of unity.

A series stores coefficients for exponents val <= e < bound and is
interpreted as correct modulo u^bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import mpmath

from .cyclotomic import CycNum
from .numeval import ETA_QUOTIENTS, EtaFactor

_ZERO = CycNum.zero()
_ONE = CycNum.one()


@dataclass(frozen=True)
class QSeries:
    """Truncated Laurent series: coeffs[i] multiplies u^(val + i)."""

    val: int
    coeffs: Tuple[CycNum, ...]
    bound: int

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.bound - self.val:
            raise ValueError("coefficient count does not match bounds")

    def coefficient(self, exponent: int) -> CycNum:
        if exponent >= self.bound:
            raise ValueError("coefficient beyond truncation bound")
        if exponent < self.val:
            return _ZERO
        return self.coeffs[exponent - self.val]

    def normalized(self) -> "QSeries":
        """Strip leading zeros, raising val accordingly."""
        k = 0
        while k < len(self.coeffs) and not self.coeffs[k]:
            k += 1
        return QSeries(self.val + k, self.coeffs[k:], self.bound)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        val = min(self.val, other.val)
        bound = min(self.bound, other.bound)
        coeffs = tuple(
            self.coefficient(e) + other.coefficient(e) for e in range(val, bound)
        )
        return QSeries(val, coeffs, bound)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries(self.val, tuple(-c for c in self.coeffs), self.bound)

    def __mul__(self, other: "QSeries") -> "QSeries":
        val = self.val + other.val
        bound = min(self.bound + other.val, other.bound + self.val)
        acc = [_ZERO] * (bound - val)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            ea = self.val + i
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                e = ea + other.val + j
                if e >= bound:
                    break
                acc[e - val] = acc[e - val] + a * b
        return QSeries(val, tuple(acc), bound)

    def scale(self, factor: CycNum) -> "QSeries":
        return QSeries(self.val, tuple(factor * c for c in self.coeffs), self.bound)

    def inverse(self) -> "QSeries":
        """Reciprocal series; the leading coefficient must be nonzero."""
        f = self.normalized()
        if not f.coeffs or not f.coeffs[0]:
            raise ZeroDivisionError("series with zero leading term")
        m = f.bound - f.val  # relative precision
        lead_inv = f.coeffs[0].inverse()
        out = [lead_inv] + [_ZERO] * (m - 1)
        for k in range(1, m):
            acc = _ZERO
            for i in range(1, k + 1):
                if f.coeffs[i] and out[k - i]:
                    acc = acc + f.coeffs[i] * out[k - i]
            out[k] = -(lead_inv * acc)
        return QSeries(-f.val, tuple(out), m - f.val)

    # -- symmetries ------------------------------------------------------

    def twist(self, j: int) -> "QSeries":
        """Substitute u -> z^j * u, the expansion of tau -> tau + j."""
        zeta = CycNum.zeta_pow
        coeffs = tuple(
            zeta(j * (self.val + i)) * c if c else _ZERO
            for i, c in enumerate(self.coeffs)
        )
        return QSeries(self.val, coeffs, self.bound)

    def galois(self, d: int) -> "QSeries":
        """Apply z -> z^d to every coefficient, fixing u."""
        return QSeries(
            self.val, tuple(c.galois(d) for c in self.coeffs), self.bound
        )

    # -- comparisons and numerics ------------------------------------------

    def agrees_with(self, other: "QSeries") -> bool:
        """Exact equality of all coefficients below both bounds."""
        bound = min(self.bound, other.bound)
        val = min(self.val, other.val)
        return all(
            self.coefficient(e) == other.coefficient(e) for e in range(val, bound)
        )

    def eval_numeric(self, tau, dps: Optional[int] = None) -> mpmath.mpc:
        """Numeric value of the truncated series at tau."""
        digits = dps if dps is not None else mpmath.mp.dps
        with mpmath.workdps(digits + 10):
            u = mpmath.expjpi(mpmath.mpmathify(tau) / 36)
            total = mpmath.mpc(0)
            for i, c in enumerate(self.coeffs):
                if c:
                    total += c.embed(digits + 10) * u ** (self.val + i)
            return total


def euler_product(step: int, zeta_twist: int, bound: int) -> QSeries:
    """prod_{n>=1} (1 - (z^zeta_twist * u^step)^n), by the pentagonal theorem."""
    coeffs = [_ZERO] * bound
    k = 0
    while True:
        done = True
        for pent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            e = step * pent
            if e < bound:
                done = False
                sign = -1 if k % 2 else 1
                term = CycNum.zeta_pow(zeta_twist * pent) * sign
                coeffs[e] = coeffs[e] + term
        if k and done:
            break
        k += 1
    # remove the double count of the k = 0 term
    coeffs[0] = coeffs[0] - _ONE
    return QSeries(0, tuple(coeffs), bound)


@lru_cache(maxsize=None)
def eta_series(bound: int) -> QSeries:
    """Expansion of eta(tau): u^3 * prod(1 - u^(72n))."""
    body = euler_product(72, 0, bound - 3)
    return QSeries(3, body.coeffs, bound)


@lru_cache(maxsize=None)
def eta_triple_series(bound: int) -> QSeries:
    """Expansion of eta(3*tau): u^9 * prod(1 - u^(216n))."""
    body = euler_product(216, 0, bound - 9)
    return QSeries(9, body.coeffs, bound)


@lru_cache(maxsize=None)
def eta_shift_series(j: int, bound: int) -> QSeries:
    """Expansion of eta(tau/3 + j/3): z^j * u * prod(1 - (z^(24j) u^24)^n)."""
    body = euler_product(24, 24 * j, bound - 1)
    return QSeries(1, body.coeffs, bound).scale(CycNum.zeta_pow(j))


@lru_cache(maxsize=None)
def _eta_inverse_squared(bound: int) -> QSeries:
    inv = eta_series(bound).inverse()
    return inv * inv


def _factor_series(factor: EtaFactor, bound: int) -> QSeries:
    scale, shift = factor
    return eta_triple_series(bound) if scale == 3 else eta_shift_series(shift, bound)


@lru_cache(maxsize=None)
def r_series(index: int, bound: int = 120) -> QSeries:
    """Exact expansion of the eta quotient F_index of ``ETA_QUOTIENTS``."""
    if not 0 <= index < len(ETA_QUOTIENTS):
        raise ValueError("index out of range")
    first, second = ETA_QUOTIENTS[index]
    return (_factor_series(first, bound) * _factor_series(second, bound)
            * _eta_inverse_squared(bound))

"""Arbitrary-precision evaluation of eta products and class invariants.

All functions take an optional decimal-digit count and run mpmath at
that precision plus a fixed guard margin.  The Dedekind eta function is
summed with the pentagonal number theorem, so the series is sparse: the
number of terms needed grows with the square root of the target digits.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import mpmath

GUARD_DIGITS = 10
"""Extra working digits carried by every routine."""


def _to_tau(tau) -> mpmath.mpc:
    value = mpmath.mpmathify(tau)
    if mpmath.im(value) <= 0:
        raise ValueError("not in upper half-plane")
    return value


def eta(tau, dps: Optional[int] = None) -> mpmath.mpc:
    """Dedekind eta, e(tau) = q^(1/24) * prod(1 - q^n) with q = exp(2*pi*i*tau)."""
    digits = dps if dps is not None else mpmath.mp.dps
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        q = mpmath.expjpi(2 * t)
        prefactor = mpmath.expjpi(t / 12)
        # 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)), pentagonal exponents
        total = mpmath.mpc(1)
        log_qabs = -2 * mpmath.pi * mpmath.im(t) / mpmath.log(10)
        cutoff = -(digits + GUARD_DIGITS)
        k = 1
        while True:
            low = k * (3 * k - 1) // 2
            high = k * (3 * k + 1) // 2
            term = q ** low + q ** high
            total = total - term if k % 2 else total + term
            if low * log_qabs < cutoff:
                break
            k += 1
        return prefactor * total


EtaFactor = Tuple[int, int]
"""(3, 0) is eta(3*tau); (1, j) is eta(tau/3 + j/3)."""

ETA_QUOTIENTS: Tuple[Tuple[EtaFactor, EtaFactor], ...] = (
    ((3, 0), (1, 0)),
    ((3, 0), (1, 1)),
    ((3, 0), (1, 2)),
    ((1, 0), (1, 2)),
    ((1, 0), (1, 1)),
    ((1, 2), (1, 1)),
)
"""The six level-72 eta quotients F_0, ..., F_5: F_i is the product of
the two factors in row i divided by eta(tau)^2.  The numeric
evaluation here, the exact expansions in ``qseries`` and the action in
``etarep`` all index the quotients by this table."""


def _eta_factor(factor: EtaFactor, t: mpmath.mpc) -> mpmath.mpc:
    scale, shift = factor
    if scale == 3:
        return eta(3 * t)
    third = mpmath.mpf(1) / 3
    return eta(t * third + shift * third)


def r_vector(tau, dps: Optional[int] = None) -> Tuple[mpmath.mpc, ...]:
    """All six eta quotients at tau, sharing the eta evaluations."""
    digits = dps if dps is not None else mpmath.mp.dps
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        factors = {f: _eta_factor(f, t) for f in set().union(*ETA_QUOTIENTS)}
        denom = eta(t) ** 2
        return tuple(
            factors[f1] * factors[f2] / denom for f1, f2 in ETA_QUOTIENTS
        )


def r_value(index: int, tau, dps: Optional[int] = None) -> mpmath.mpc:
    """One of the six eta quotients at tau."""
    digits = dps if dps is not None else mpmath.mp.dps
    if not 0 <= index < len(ETA_QUOTIENTS):
        raise ValueError("index out of range")
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        f1, f2 = ETA_QUOTIENTS[index]
        return _eta_factor(f1, t) * _eta_factor(f2, t) / eta(t) ** 2


def ramanujan_value(n: int, dps: Optional[int] = None) -> mpmath.mpf:
    """The class invariant t_n, a real number in (0, 1) for n > 3.

    Evaluated as sqrt(3) times the index-2 quotient at (-1 + sqrt(-n))/2,
    which agrees with the defining product in exp(-pi*sqrt(n)).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    digits = dps if dps is not None else mpmath.mp.dps
    with mpmath.workdps(digits + GUARD_DIGITS):
        tau = (mpmath.mpc(-1, 0) + mpmath.sqrt(mpmath.mpf(n)) * 1j) / 2
        value = mpmath.sqrt(3) * r_value(2, tau)
        return mpmath.re(value)


def _sigma3(k: int) -> int:
    total = 0
    for d in range(1, int(math.isqrt(k)) + 1):
        if k % d == 0:
            total += d ** 3
            e = k // d
            if e != d:
                total += e ** 3
    return total


def j_invariant(tau, dps: Optional[int] = None) -> mpmath.mpc:
    """Klein's j, computed as E4(q)^3 / eta(tau)^24."""
    digits = dps if dps is not None else mpmath.mp.dps
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        q = mpmath.expjpi(2 * t)
        decay = 2 * mpmath.pi * mpmath.im(t) / mpmath.log(10)
        nterms = int((digits + GUARD_DIGITS) / decay) + 2
        e4 = mpmath.mpc(1)
        qk = mpmath.mpc(1)
        for k in range(1, nterms + 1):
            qk *= q
            e4 += 240 * _sigma3(k) * qk
        return e4 ** 3 / eta(t) ** 24

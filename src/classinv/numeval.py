"""Arbitrary-precision evaluation of eta products and class invariants.

All functions take an optional decimal-digit count (at least 1) and run
mpmath at that precision plus a fixed guard margin.  The Dedekind eta
function is summed with the pentagonal number theorem, so the series is
sparse: the number of terms needed grows with the square root of the
target digits.  No term is a fresh power of q: the k-th pair of
pentagonal powers q^(k(3k-1)/2), q^(k(3k+1)/2) comes from the previous
pair by multiplication, which costs a few products per term instead of
a complex exp and log.  Klein's j is the eta quotient
(1 + 256 h)^3 / h with h = (eta(2 tau) / eta(tau))^24, which is Weber's
j = (f2^24 + 16)^3 / f2^24, so it needs two eta series and no
Eisenstein series.
"""

from __future__ import annotations

from typing import Optional, Tuple

import mpmath

GUARD_DIGITS = 10
"""Extra working digits carried by every routine."""


def check_digits(dps: int) -> int:
    """Reject a precision below one decimal digit."""
    if dps < 1:
        raise ValueError(f"precision must be at least 1 digit, got {dps}")
    return dps


def _digits(dps: Optional[int]) -> int:
    return check_digits(dps) if dps is not None else mpmath.mp.dps


def _to_tau(tau) -> mpmath.mpc:
    value = mpmath.mpmathify(tau)
    if mpmath.im(value) <= 0:
        raise ValueError("not in upper half-plane")
    return value


def eta(tau, dps: Optional[int] = None) -> mpmath.mpc:
    """Dedekind eta, e(tau) = q^(1/24) * prod(1 - q^n) with q = exp(2*pi*i*tau)."""
    digits = _digits(dps)
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        q = mpmath.expjpi(2 * t)
        prefactor = mpmath.expjpi(t / 12)
        # 1 + sum_k (-1)^k (q^low + q^high), low = k(3k-1)/2, high = low + k;
        # low(k+1) = low(k) + 3k + 1, so q^low, q^k and q^(3k+1) step by products
        total = mpmath.mpc(1)
        log_qabs = -2 * mpmath.pi * mpmath.im(t) / mpmath.log(10)
        cutoff = -(digits + GUARD_DIGITS)
        q3 = q * q * q
        q_low, q_k, q_step = q, q, q3 * q
        k, low = 1, 1
        while True:
            term = q_low * (1 + q_k)
            total = total - term if k % 2 else total + term
            if low * log_qabs < cutoff:
                break
            low += 3 * k + 1
            k += 1
            q_low *= q_step
            q_k *= q
            q_step *= q3
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
    digits = _digits(dps)
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        factors = {f: _eta_factor(f, t) for f in set().union(*ETA_QUOTIENTS)}
        denom = eta(t) ** 2
        return tuple(
            factors[f1] * factors[f2] / denom for f1, f2 in ETA_QUOTIENTS
        )


def r_value(index: int, tau, dps: Optional[int] = None) -> mpmath.mpc:
    """One of the six eta quotients at tau."""
    digits = _digits(dps)
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
    digits = _digits(dps)
    with mpmath.workdps(digits + GUARD_DIGITS):
        tau = (mpmath.mpc(-1, 0) + mpmath.sqrt(mpmath.mpf(n)) * 1j) / 2
        value = mpmath.sqrt(3) * r_value(2, tau)
        return mpmath.re(value)


def j_invariant(tau, dps: Optional[int] = None) -> mpmath.mpc:
    """Klein's j, computed as (1 + 256 h)^3 / h with h = (eta(2 tau) / eta(tau))^24."""
    digits = _digits(dps)
    with mpmath.workdps(digits + GUARD_DIGITS):
        t = _to_tau(tau)
        # products, not **: mpmath takes high integer powers of a long
        # complex number through exp and log
        ratio = eta(2 * t) / eta(t)
        for _ in range(3):
            ratio *= ratio
        h = ratio * ratio * ratio
        u = 1 + 256 * h
        return u * u * u / h

"""Contention-corrected timing on a shared host.

On a host whose other tenants slow this process by a third or more for
seconds to minutes at a time, the wall time of a fixed workload drifts
by more than any change worth detecting.  ``SpeedProbe`` samples the
host's current speed every ``INTERVAL`` seconds by timing a fixed
kernel from a SIGALRM handler, which runs in the main thread between
bytecodes.  ``reference_seconds`` turns a measured interval into the
time it would have taken at reference speed: it removes the kernel's
own time from the interval and scales the rest by ``REFERENCE_KERNEL_S``
over the mean kernel time around the interval.

The kernel uses only ints, fractions and dicts, never classinv or
mpmath, so no change to the package moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

INTERVAL = 0.02
"""Seconds between speed samples; the kernel costs about 4% of them."""

WINDOW = 0.05
"""Samples this many seconds before or after an interval also count
towards its speed, so that a short call still sees about five.  The
host's speed changes within a second, so a wider window tracks it
worse."""

REFERENCE_KERNEL_S = 0.0007
"""Kernel time inside the handler at reference speed: an uncontended
Intel Xeon core with Python 3.11.7.  It only fixes the unit."""


def kernel():
    """Fixed work resembling the package's: fractions, big ints, dicts."""
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, 7) * Fraction(3, k + 1)
    x = 3 ** 400
    for _ in range(20):
        x = x * x % 7 ** 800
    table = {k: (k, k + 1) for k in range(300)}
    return acc, x, table


class SpeedProbe:
    """Records (start, duration) of the kernel while installed."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def net_seconds(self, start: float, end: float) -> float:
        """Length of [start, end) without the kernel runs inside it."""
        return end - start - sum(d for s, d in self.samples if start <= s < end)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds [start, end) would take at reference speed, without the
        kernel runs that interrupted it."""
        near = [d for s, d in self.samples if start - WINDOW <= s < end + WINDOW]
        if not near:
            raise ValueError("no speed sample near the interval")
        return self.net_seconds(start, end) * REFERENCE_KERNEL_S / statistics.fmean(near)


def reference_factor(runs: int = 10) -> float:
    """REFERENCE_KERNEL_S over the mean time of ``runs`` kernel runs now,
    after one warm-up run: multiply a just-measured time by it."""
    kernel()
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_KERNEL_S / statistics.fmean(times)

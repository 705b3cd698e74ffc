"""Machine-speed sampling, to state job times at a fixed reference speed.

Shared hosts run this benchmark's CPU at speeds that swing by up to 2x over
seconds: a fixed pure-Python loop took 40 ms in one phase and 70-90 ms in
the next, in wall and in CPU time alike.  Raw wall times of identical jobs
then spread by 30 % between runs.  While it is active, the sampler times a
small fixed Fraction loop (the kernel, the arithmetic the package spends
most of its time in) on SIGALRM every INTERVAL_S.  The cyclic GC is off
inside the kernel, so the size of the package's heap cannot slow it.

A job's time at reference speed is its wall time multiplied by its mean
relative speed (REF_KERNEL_S / kernel time) over the samples taken while it
ran, which approximates the integral of relative speed over the job.
Samples slowed more than OUTLIER times past the median (an interrupt
during the kernel) are dropped.  Time spent in the handler is taken out of
the job's wall time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.005
KERNEL_ITERS = 40
# kernel time at the reference speed: the fast phase of a 2-core Xeon VM
REF_KERNEL_S = 7.5e-5
OUTLIER = 2.5


def kernel() -> float:
    """Seconds taken by a fixed Fraction loop, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, KERNEL_ITERS):
        s += Fraction(1, i)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Samples the kernel on a timer while active (a context manager)."""

    def __init__(self):
        self.when = array("d")
        self.speed = array("d")  # REF_KERNEL_S / kernel time
        self.handler_s = 0.0
        self._previous = None

    def sample(self):
        # SIGALRM is held off so a timer sample cannot nest in this one
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = time.perf_counter()
            k = kernel()
            self.when.append(t0)
            self.speed.append(REF_KERNEL_S / k)
            self.handler_s += time.perf_counter() - t0
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple:
        """A point in time for ``reference_time``: (clock, handler seconds)."""
        return time.perf_counter(), self.handler_s

    def speed_between(self, t0: float, t1: float) -> float:
        """Mean relative speed over [t0, t1].

        Uses the samples taken inside the interval or, when it is shorter
        than INTERVAL_S, the last sample before it and the first after it.
        """
        lo = bisect.bisect_left(self.when, t0)
        hi = bisect.bisect_right(self.when, t1)
        inside = sorted(self.speed[lo:hi] or self.speed[max(lo - 1, 0): lo + 1])
        mid = inside[len(inside) // 2]
        kept = [v for v in inside if v * OUTLIER >= mid]
        return sum(kept) / len(kept)

    def reference_time(self, start: tuple, stop: tuple) -> tuple:
        """(wall, reference-speed) seconds between two marks, handler time excluded."""
        wall = (stop[0] - start[0]) - (stop[1] - start[1])
        return wall, wall * self.speed_between(start[0], stop[0])

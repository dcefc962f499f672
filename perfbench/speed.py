"""Calibration of the CPU's momentary speed, for timings on shared CPUs.

The benchmark's CPUs are shared with other tenants, and their speed drifts:
on the 2-CPU machine the benchmark was written on, ten fixed desk-scale
simulations took anywhere from 0.32 s to 0.60 s within one 40 s window, with
CPU time tracking wall time, so the CPU ran slower rather than the process
waiting. A short fixed kernel, run between operations, measures that speed.
Every timing the benchmark reports is scaled by REFERENCE_S over the kernel's
duration around it: the time the operation would have taken on a CPU that
runs the kernel in REFERENCE_S. Raw times are kept in the run record.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005     # nominal kernel duration on an unloaded CPU of that machine
EVERY_S = 0.25          # least wall time between two kernel runs


def kernel() -> float:
    """Fixed work in the program's own mix: interpreter loop, small numpy ops."""
    a = np.arange(64.0)
    acc = 0.0
    slots = {}
    for i in range(1600):
        b = a * 1.0001 + i
        acc += float(b[i & 63]) ** 0.5
        slots[i & 255] = acc
        if b[0] > acc:
            acc -= 1.0
    return acc


class SpeedClock:
    """Kernel samples (start time, seconds) taken through one run."""

    def __init__(self):
        self.times: list = []
        self.seconds: list = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> float:
        """Run the kernel if EVERY_S has passed since its last run (or if
        forced); return the seconds it took, to leave out of any timing."""
        start = perf_counter()
        if not force and start - self._last < EVERY_S:
            return 0.0
        kernel()
        end = perf_counter()
        self.times.append(start)
        self.seconds.append(end - start)
        self._last = end
        return end - start

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time of the samples taken
        within EVERY_S of [t0, t1], or of the nearest sample."""
        lo = bisect.bisect_left(self.times, t0 - EVERY_S)
        hi = bisect.bisect_right(self.times, t1 + EVERY_S)
        if lo >= hi:
            i = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            lo, hi = max(i - 1, 0), i + 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

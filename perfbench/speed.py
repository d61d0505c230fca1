"""Machine-speed reference for the timed workers.

The benchmark runs on shared hosts whose speed drifts.  On a 2-core VM the
same pure-Python loop took 7 ms in one second and 14 ms a few seconds later,
slow phases lasted from seconds to minutes, and CPU time slowed with wall
time, so neither clock nor a least-of-N estimate removed them.  The timed
workers therefore run a fixed reference kernel between ops, at most once per
GAP_S, and scale each op's time by REFERENCE_S over the median kernel time
around it: the NEAR samples before the op and the NEAR samples after it.
Reported times are reference seconds, the time the op would take on a host
where the kernel takes REFERENCE_S.  The kernel imports nothing from the
library, so no library change can move it.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 1.2e-3  # about the kernel's least time on a 2-core VM
GAP_S = 0.02
NEAR = 3


def kernel() -> int:
    # Tuple keys in a 3000-entry dict: allocation and memory traffic like the
    # library's set and memo work, so the kernel slows when the ops do.  The
    # collector is off so that the library's heap size cannot move it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        d: dict[tuple[int, int], int] = {}
        s = 0
        for i in range(3000):
            d[i, i * 7 % 13] = s
            s += d.get((i - 1, (i - 1) * 7 % 13), 0) & 1023
        return s
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []  # kernel start times, ascending
        self.took: list[float] = []
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            self.at.append(t0)
            self.took.append(t1 - t0)
            self._last = t1

    def tick(self) -> None:
        """Sample if GAP_S has passed since the last sample."""
        if perf_counter() - self._last >= GAP_S:
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in reference seconds."""
        i = bisect_left(self.at, t0)
        j = bisect_right(self.at, t1)
        near = self.took[max(0, i - NEAR):i] + self.took[j:j + NEAR]
        return (t1 - t0) * REFERENCE_S / statistics.median(near)

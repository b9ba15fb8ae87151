"""Machine-speed reference: a fixed kernel timed between the operations.

The benchmark runs on a few shared cores whose speed drifts with the load
of other tenants: ten back-to-back runs of one workload read plan times
1.6x apart, and ten runs of the same workload a quarter of an hour later
read them 1.6x slower than the first ten.  No statistic over a 30 s run
removes a drift that lasts minutes.  So the run times this kernel, which
never calls the library, between its operations, and reports the
end-to-end durations at a fixed reference speed: measured x ``NOMINAL_S``
/ (median kernel time of the run).  Paired with plan calls on a drifting
host, the ratio of plan time to kernel time spread half as much as the
plan time alone.  Calls cut by a wall-clock deadline are not scaled: their
length is set by the clock, not by the machine.

The kernel mixes the planner's two kinds of work: dictionary and tuple
churn in the interpreter, and numpy sort, gather and prefix sums over
arrays of a few MB.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on an unloaded 2-vCPU VM (x86-64, 2026): durations
#: reported at the reference speed read as wall time on such a machine.
NOMINAL_S = 0.015
#: Least time between two samples; each sample takes about ``NOMINAL_S``.
INTERVAL_S = 0.5

_ARRAYS: tuple[np.ndarray, np.ndarray] | None = None


def kernel() -> int:
    """The fixed reference work."""
    global _ARRAYS
    if _ARRAYS is None:
        rng = np.random.default_rng(0)
        _ARRAYS = (rng.integers(0, 1 << 20, size=200_000),
                   rng.integers(0, 200_000, size=200_000))
    values, index = _ARRAYS
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(20_000):
        key = (i % 613, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(table)
    for _ in range(3):
        np.cumsum(np.take(np.sort(values), index))
    return total


class SpeedProbe:
    """Samples the kernel at most every ``INTERVAL_S`` when asked to."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall time spent sampling, to take out of enclosing timings.
        self.spent_s = 0.0
        self.enabled = True
        self._last = -INTERVAL_S
        kernel()  # builds the arrays; untimed

    def maybe_sample(self) -> None:
        start = time.perf_counter()
        if not self.enabled or start - self._last < INTERVAL_S:
            return
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.spent_s += self._last - start

    def factor(self) -> float:
        """Reference speed over this run's speed: multiply a duration by it."""
        return NOMINAL_S / statistics.median(self.samples)

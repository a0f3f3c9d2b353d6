"""A speed gauge: how fast the CPU runs this process right now.

The benchmark's machine is shared. How fast one of its CPUs runs a
fixed piece of interpreter code changes by up to 40 % within a second
and drifts by as much over minutes, and the CPUs change independently
of each other. A workload process therefore samples the gauge, a fixed
piece of pure-Python reference work, between the operations it times,
on the same CPU. Every time it reports is in *reference seconds*: the
seconds the operation would take on a CPU that runs one gauge sample in
``REFERENCE_S``, that is its measured seconds times ``REFERENCE_S`` over
the mean gauge sample taken around it. Run next to a loop of repository
code, the ratio of the two held within 1 % over minutes while the loop's
own time moved by 25 %.

The reference work is part of the benchmark, not of the program, so a
change to the program moves the times it gauges and not the gauge.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import time
from typing import List

#: seconds of one sample on the reference CPU: the median sample taken
#: between the layer calls of a workload on the 2-core development
#: machine, so that reference seconds read close to seconds there
REFERENCE_S = 0.004
#: the shortest gap between two samples a tick takes
EVERY_S = 0.05

#: one full-period congruential cycle through 2**16 slots: stepping
#: along it reads a working set (2.3 MB of list and int objects) in a
#: scattered order, past the L2 cache, as the program's own data
#: structures do
_SLOTS = 1 << 16
_NEXT = [(40501 * slot + 1) & (_SLOTS - 1) for slot in range(_SLOTS)]

#: steps of one sample (2-4 ms on the development machine)
STEPS = 8000


def reference_work() -> int:
    """Pointer chasing, dict updates, integer arithmetic and a sort: a
    mix of what the interpreter spends the program's time on."""
    slot = 0
    counts = {}
    total = 0
    for step in range(STEPS):
        slot = _NEXT[slot]
        key = slot & 255
        counts[key] = counts.get(key, 0) + 1
        total += slot * step % 13
    ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    return total + ranked[0][0]


class Gauge:
    """The samples one process took, with when each started."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        #: seconds spent sampling, which timed spans leave out
        self.spent = 0.0
        self._last_end = float("-inf")

    def sample(self) -> None:
        started = time.perf_counter()
        reference_work()
        ended = time.perf_counter()
        self.starts.append(started)
        self.durations.append(ended - started)
        self.spent += ended - started
        self._last_end = ended

    def tick(self) -> None:
        """Sample unless the last sample ended less than EVERY_S ago."""
        if time.perf_counter() - self._last_end >= EVERY_S:
            self.sample()

    def seconds(self, start: float, end: float,
                reference: bool = True) -> float:
        """The seconds of [start, end] outside the samples taken in it.
        In reference seconds, each gap between two samples counts
        REFERENCE_S over the mean of those two samples per second. The
        interval must lie between two samples."""
        first = bisect.bisect_right(self.starts, start) - 1
        last = bisect.bisect_left(self.starts, end)
        if first < 0 or last >= len(self.starts):
            raise ValueError("no gauge sample on one side of the interval")
        total = 0.0
        for k in range(first, last):
            gap = (min(self.starts[k + 1], end)
                   - max(self.starts[k] + self.durations[k], start))
            if gap > 0:
                total += gap * (2.0 * REFERENCE_S / (
                    self.durations[k] + self.durations[k + 1])
                    if reference else 1.0)
        return total

    def factor(self) -> float:
        """Reference seconds per second over every sample so far."""
        return REFERENCE_S / statistics.fmean(self.durations)


class GaugeTracer:
    """The untraced run's tracer: it records no spans, but the gauge may
    sample where each would open (before it, outside it)."""

    enabled = False
    _NOOP = contextlib.nullcontext()

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge

    def span(self, name: str):
        self.gauge.tick()
        return self._NOOP

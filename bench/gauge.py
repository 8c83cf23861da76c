"""Host speed gauge: scales measured times to one fixed host speed.

The machines this benchmark runs on are shared.  Timed with a fixed
pure-Python loop, a 2-vCPU Intel Xeon host ran up to 1.8x slower for
stretches of tens of seconds to minutes, so no statistic taken inside one
run can remove the drift.  Every timed request is therefore bracketed by
short probes of a fixed loop that shares no code with nhjc, and its time is
multiplied by REFERENCE_S over the mean of the two probes around it.  A
faster program lowers the scaled time exactly as it lowers the raw one; a
slower host does not raise it.  Raw times are reported next to the scaled
ones.
"""

from __future__ import annotations

import bisect
import math
import time

# Probe duration at the reference speed: its median on the host above when
# that host was at its fastest.
REFERENCE_S = 2.4e-4
# Least wall time between two probes; a probe costs about REFERENCE_S.
INTERVAL_S = 0.02


def probe() -> float:
    """Wall time of a fixed loop of float math, dict stores and formatting."""
    t0 = time.perf_counter()
    acc = 0.0
    row = {}
    for i in range(300):
        x = 0.37 * i + 1.0
        acc += math.sqrt(x) * math.cos(x)
        row[i & 15] = "%.17g" % acc
        acc += len(row) * 1e-3
    return time.perf_counter() - t0


class Gauge:
    """Timeline of probes; `scale(t)` is the factor for a request started at t."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def probe(self) -> None:
        self.times.append(time.perf_counter())
        self.values.append(probe())

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.probe()

    def scale(self, t: float) -> float:
        i = bisect.bisect_right(self.times, t)
        around = self.values[max(0, i - 1): i + 1]
        return REFERENCE_S / (sum(around) / len(around))

"""Machine-speed calibration: a fixed kernel timed between pieces of work.

On a shared machine the same work takes up to twice as long from one second
to the next, and both processors slow down together, so a fixed piece of
code slows down with the program.  The benchmark times this kernel (small
numpy calls and interpreter arithmetic, like the program's own hot path,
and independent of uwbnav) between pieces of the program's work and scales
each piece by REFERENCE_S / (kernel time).  Times are thereby expressed on a
machine where the kernel takes REFERENCE_S; the raw times are reported
alongside.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 1.0e-3
_A = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.1, 0.0, 1.0]])
_V = np.array([0.3, -0.2, 0.1])


def kernel() -> float:
    s = 0.0
    for i in range(45):
        b = _A @ _A.T
        w = np.cross(_V, b[0])
        s += float(np.linalg.norm(w)) + math.sqrt(i + s % 7.0)
    return s


def factor() -> float:
    """REFERENCE_S over the time of one kernel run, now."""
    start = time.perf_counter()
    kernel()
    return REFERENCE_S / (time.perf_counter() - start)


def median_factor(runs: int = 15) -> float:
    return statistics.median(factor() for _ in range(runs))


class SpeedMeter:
    """Wall time of one round, raw and scaled, split at checkpoints.

    ``checkpoint`` closes the segment of work since the previous one, times
    the kernel (excluded from both totals) and scales the segment by the
    resulting factor.  ``mark`` records how many step latencies the closed
    segment ends at, so that each latency can be scaled by its own segment's
    factor.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.factors = []
        self.marks = []
        self._start = time.perf_counter()

    def checkpoint(self, mark: int = 0, runs: int = 1):
        segment = time.perf_counter() - self._start
        f = median_factor(runs)
        self.raw += segment
        self.scaled += segment * f
        self.factors.append(f)
        self.marks.append(mark)
        self._start = time.perf_counter()

    def scale(self, latencies) -> np.ndarray:
        lat = np.asarray(latencies, dtype=float)
        segment = np.searchsorted(self.marks, np.arange(lat.size), side="right")
        return lat * np.asarray(self.factors)[np.minimum(segment, len(self.factors) - 1)]

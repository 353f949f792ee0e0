"""Host speed gauges: fixed work, independent of finiteqg, shaped like
each workload's ops.

On a shared 2-core machine the same op drifts by tens of percent from
one minute to the next while its CPU time equals its wall time, so run
medians of raw wall times spread more than any useful regression bound.
A gauge is sampled before every op; each op time is reported rescaled by
``nominal_s / g``, where ``g`` is the median of the samples taken within
a few seconds of the op, i.e. in seconds on a host at nominal speed.
Raw wall times are printed beside the rescaled ones.
"""
from __future__ import annotations

import bisect
import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(0)
_DENSE = _RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal(
    (256, 256))
_TINY = [_RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
         for _ in range(8)]


def dense() -> float:
    """Best of two 256x256 complex SVDs, the size of the tensor-square
    norms at d = 16."""
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        np.linalg.svd(_DENSE)
        best = min(best, time.perf_counter() - t)
    return best


def tiny() -> float:
    """Two hundred rounds of tiny numpy calls from Python."""
    t = time.perf_counter()
    for i in range(200):
        m = _TINY[i % 8]
        np.linalg.svd(m)
        np.einsum("ab,bc->ac", m, m)
        np.linalg.norm(m, 2)
    return time.perf_counter() - t


def spawn() -> float:
    """A fresh interpreter that imports numpy and does a little BLAS."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import numpy as np; a = np.random.default_rng(0)."
                    "standard_normal((96, 96)); "
                    "[np.linalg.svd(a) for _ in range(20)]"], check=True)
    return time.perf_counter() - t


# typical gauge value between ops on the reference host (2 cores, OpenBLAS
# 0.3.31, single-threaded BLAS), so rescaled times read as seconds there
NOMINAL_S = {dense: 0.032, tiny: 0.013, spawn: 0.200}


class Gauge:
    """Samples one gauge kernel; ``scale`` rescales intervals by it."""

    window_s = 4.0

    def __init__(self, kernel):
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        self.times, self.values = [], []
        self.sample()

    def sample(self):
        value = self.kernel()
        self.times.append(time.perf_counter())
        self.values.append(value)

    def scale(self, start: float, end: float) -> float:
        """Rescaling factor for an interval: the gauge is the median of the
        samples within ``window_s`` of it, at least the one just before and
        the one just after.  Sample once more after the last interval."""
        lo = bisect.bisect_left(self.times, start - self.window_s)
        hi = bisect.bisect_right(self.times, end + self.window_s)
        lo = min(lo, bisect.bisect_right(self.times, start) - 1)
        hi = max(hi, bisect.bisect_left(self.times, end) + 1)
        return self.nominal_s / float(np.median(self.values[lo:hi]))

    def median_s(self) -> float:
        return float(np.median(self.values))

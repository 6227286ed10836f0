"""Machine-speed calibration for a shared host.

On a small shared VM the speed of the same code drifts by 15-50% over
minutes, in step for every workload (neighbours contend for the physical
cores, caches and memory bandwidth), which is wider than any bound a
regression check can use.  A fixed NumPy kernel that does not touch
``conewise`` is therefore timed between ops; its three parts mirror what the
workloads spend time on: normal draws, a small dense ``eigh`` and a memory
stream larger than the caches.  Measured over four minutes of interleaved
ops, their geometric mean followed the ops' block medians with correlation
0.86-0.87 and cut the block-to-block variation of the ops by half or more.

Calibrated figures rescale wall-clock ones to the speed at which the kernel
takes ``REFERENCE_S`` (its median when the benchmark was written, on a 2-core
Xeon VM at 2.1 GHz), so they keep their units and their order of magnitude.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 2.3e-3
STREAM_DOUBLES = 1 << 21


class Calibration:
    def __init__(self):
        self.rng = np.random.default_rng(0)
        a = self.rng.standard_normal((128, 128))
        self.sym = a + a.T
        self.stream = np.ones(STREAM_DOUBLES)
        self.out = np.ones_like(self.stream)
        self.samples: list[float] = []

    @property
    def resident_bytes(self) -> int:
        """Memory the kernel holds from process start to exit."""
        return self.stream.nbytes + self.out.nbytes + self.sym.nbytes

    def sample(self) -> float:
        t0 = perf_counter()
        g = self.rng.standard_normal((256, 256))
        g += g.T
        t1 = perf_counter()
        np.linalg.eigh(self.sym)
        t2 = perf_counter()
        np.cumsum(self.stream, out=self.out)
        t3 = perf_counter()
        t = ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1.0 / 3.0)
        self.samples.append(t)
        return t

    def slowdown(self) -> float:
        """Median kernel time over the reference; > 1 means a slow host."""
        return statistics.median(self.samples) / REFERENCE_S

"""Host-speed reference: a fixed kernel timed next to every measured interval.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts by 1.3-2x over seconds to minutes, with CPU time rising as much
as wall time (the process is not descheduled; each instruction gets
slower).  Averaging inside a run does not remove a drift that outlasts
the run, so each timed interval (a set-up, an epoch, a chunk of a
serving pass) is bracketed by two samples of a fixed reference kernel
and reported in *reference seconds*: its host seconds scaled by
``NOMINAL_S`` over the mean of the two samples.  A program that gets
faster or slower moves both numbers by the same factor; a host that
gets slower moves only the raw one.

The kernel mixes the program's kinds of work: an ``np.add.at``
scatter-add and a row gather on cache-sized arrays, a row gather from an
array larger than the cache, a Python loop of tiny numpy calls, and a
plain Python dict loop.  Among candidate mixes timed next to full-batch
epochs and serving chunks, the mixes without a BLAS matmul tracked both
best.  Its data is fixed (seed 0), independent of the workload seed, and
none of it is the program's code, so a change under ``src/`` cannot
change the reference.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

import numpy as np

# The kernel's median host seconds on the host the benchmark was written
# on (2-vCPU x86_64, Python 3.11, numpy 2.4):
# normalised times read as that host's seconds at its median speed.
NOMINAL_S = 0.090


class Reference:
    """The fixed kernel and its data (built once per process)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, 16384, 40960)
        self.src = rng.standard_normal((40960, 32)).astype(np.float32)
        self.small = rng.standard_normal((64, 16)).astype(np.float32)
        self.big = rng.standard_normal((100000, 64)).astype(np.float32)
        self.big_rows = rng.integers(0, 100000, 40000)
        # Preallocated outputs: a sample allocates no large array, so
        # the allocator's state (which the program changes) cannot
        # change its time.
        self.out = np.zeros((16384, 32), np.float32)
        self.gathered = np.empty((40960, 32), np.float32)
        self.big_gathered = np.empty((40000, 64), np.float32)

    def sample(self) -> float:
        """Host seconds of one pass of the kernel."""
        t0 = time.perf_counter()
        self.out.fill(0.0)
        np.add.at(self.out, self.rows, self.src)
        for _ in range(3):
            np.take(self.src, self.rows, axis=0, out=self.gathered)
            self.gathered.sum(axis=0)
        for _ in range(3):
            np.take(self.big, self.big_rows, axis=0, out=self.big_gathered)
            self.big_gathered.sum(axis=0)
        acc = 0.0
        for i in range(3000):
            acc += float((self.small[i % 64] * 0.5 + 1.0).sum())
        counts = {}
        for i in range(20000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        return time.perf_counter() - t0


class CalibratedClock:
    """Times intervals next to reference samples.

    Consecutive intervals share the sample between them, so a run of n
    intervals takes n + 1 samples.  ``speeds`` keeps every sample as a
    multiple of ``NOMINAL_S`` (above 1: the host ran slow).
    """

    def __init__(self) -> None:
        self.reference = Reference()
        self.reference.sample()  # first-touch of its pages, untimed
        self.last = self.reference.sample()
        self.speeds: List[float] = [self.last / NOMINAL_S]

    def resync(self) -> None:
        """Take a fresh sample before an interval that does not follow one."""
        self.last = self.reference.sample()
        self.speeds.append(self.last / NOMINAL_S)

    def measure(self, interval: Callable[[], float]) -> Tuple[float, float]:
        """Run ``interval`` (which returns its own host seconds).

        Returns ``(host_s, reference_s)``.
        """
        before = self.last
        host_s = interval()
        self.last = self.reference.sample()
        self.speeds.append(self.last / NOMINAL_S)
        return host_s, host_s * NOMINAL_S / ((before + self.last) / 2)

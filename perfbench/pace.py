"""Host speed during a run, read from a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts by a third or more
over minutes, with the same code and inputs: a run's raw times follow the
host, not the program.  While a run measures, a timer interrupts it every
``INTERVAL_S`` and times one pass of a fixed kernel: numpy operations on
arrays of 512 entries called from the interpreter, the kind of work a
trellis sweep does, on data small enough to stay in cache, so that the
workload's own memory traffic barely moves it.  Of the kernels tried (an
interpreter loop, these small-array operations, passes over 2 MB), this
one followed the Monte Carlo workloads' slowdowns most closely.
The kernel never changes with the program, so the ratio of its mean time
in the run to ``REFERENCE_S`` is the host's slowness during the run, and
dividing a measured time by it gives the time at the reference speed.
The kernel takes about two per cent of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The kernel's mean time on the reference host (2 shared cores, Python
# 3.11.7, numpy 2.4.6); the scaled metrics read as times on that host.
REFERENCE_S = 0.0008
MIN_SAMPLES = 20


class Pace:
    """Times the reference kernel on a timer while the ``with`` block runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.integers(0, 1000, 512)
        self._perm = rng.permutation(512)
        self.samples = []
        self._busy = False
        self._previous = None

    def kernel(self):
        x = self._values.copy()
        for _ in range(60):
            x = np.minimum(x, x[self._perm] + 1)
            x = np.where(x > 500, x - 1, x)
        return int(x[0])

    def sample(self):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives while the kernel runs
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def __enter__(self):
        for _ in range(5):  # warm-up, not counted
            self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:  # a run shorter than the timer
            self.sample()

    def slowness(self, start: int = 0) -> float:
        """Mean kernel time over ``REFERENCE_S``, from sample ``start`` on
        (from the first sample when fewer than ``MIN_SAMPLES`` were taken
        since): a measured time divided by it is the time at the
        reference speed."""
        if not self.samples:
            self.sample()
        window = self.samples[start:]
        if len(window) < MIN_SAMPLES:
            window = self.samples
        return statistics.fmean(window) / REFERENCE_S

"""Host-speed calibration.

The reference host's speed drifts in phases: a fixed piece of work takes
up to 1.6 times longer in a slow phase than in a fast one, for seconds
to minutes at a time.  A short fixed kernel of Python and numpy work
tracks that drift.  It runs right before and right after each timed
span, and every INTERVAL seconds inside it, from a SIGALRM handler on
the one thread the benchmark has.  The span's wall time, minus the time
spent in the handler, is scaled by REFERENCE_S over the mean kernel
time, which gives its time on a host where the kernel takes REFERENCE_S:
about the reference host in a fast phase.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.008  # the kernel's time on the reference host in a fast phase
INTERVAL = 0.2


@dataclass
class Span:
    seconds: float = 0.0  # reference seconds
    factor: float = 1.0  # reference seconds per wall second


class Calibrator:
    def __init__(self):
        self._data = np.random.default_rng(0).random(20000)
        self.factors: list[float] = []
        self.problems: list[str] = []
        self._samples = [self._kernel()]
        self._paused = 0.0

    def _kernel(self) -> float:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        total = 0
        for i in range(30000):
            total += i * i
        x = self._data
        for _ in range(20):
            x = np.sin(x) + np.sqrt(x * x + 1.0)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        # the scaling holds only while nothing else in the process runs
        if cpu > 1.25 * wall + 0.002:
            self.problems.append(
                f"calibration took {cpu / wall:.2f} CPU seconds per second: another thread was busy"
            )
        return wall

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(self._kernel())
        self._paused += time.perf_counter() - start

    @contextmanager
    def span(self):
        """Time the body; the Span is filled in when the body ends."""
        result = Span()
        self._samples = self._samples[-1:]
        self._paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            yield result
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            elapsed -= self._paused
            self._samples.append(self._kernel())
            result.factor = REFERENCE_S / statistics.fmean(self._samples)
            result.seconds = elapsed * result.factor
            self.factors.append(result.factor)

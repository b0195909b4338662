"""Machine speed, measured next to and during every timed step.

On a shared host the CPU runs at different speeds from minute to minute.
The same fit took 2.5 s in one stretch and 4.9 s in the next, with CPU time
equal to wall time, so it was not waiting for the CPU.  Any statistic of
raw times then mostly measures the neighbours.  The benchmark therefore
times a fixed piece of reference work and scales each time by
``REFERENCE_S / pace``, which gives it at the speed where the reference
work takes ``REFERENCE_S``.  The reference work is the benchmark's own
code, so no change to the program moves it.

A short step (a batch, a chunk of point queries) is scaled by the mean of
the two samples taken just before and after it (:meth:`Pacer.scale`).  A
step of a second or more (a build, a load) outlasts the speed those
samples saw, so :meth:`Pacer.long_step` samples the speed *during* it: a
``SIGALRM`` timer runs a quarter of the reference work every
``INTERVAL_S`` in the benchmark's own thread, between two bytecodes of the
program.  The step's time is its wall time minus the time those samples
took, scaled by the median of the samples.  Over 14 consecutive builds on
a 2-CPU host whose speed swung 1.8x, the paced build time varied by 7.6 %
(coefficient of variation) with samples from inside the build, against
12.7 % with samples just before and after it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.010  # reference work on an idle 2-CPU x86 host, Python 3.11
PARTS = 4  # one reference sample is this many parts
INTERVAL_S = 0.05  # between two in-step samples of a long step
_TABLE = np.arange(0.0, 4000.0, 2.0)


def reference_work(parts: int = PARTS) -> float:
    """Seconds taken by ``parts`` repeats of a fixed mix of dict, sort and small-array work."""
    start = time.perf_counter()
    for _ in range(parts):
        table: dict[int, int] = {}
        for i in range(10000):
            key = (i * 7919) % 4099
            table[key] = table.get(key, 0) + i
        rows = [(i, float(i)) for i in range(2500)]
        rows.sort(key=lambda row: -row[1])
        values = np.arange(2000.0)
        for _ in range(38):
            values = np.floor(np.sqrt(values * values + 1.0))[::-1].copy()
            np.searchsorted(_TABLE, values[:64])
    return time.perf_counter() - start


class LongStep:
    """Time and pace of one long step; filled in when its ``with`` block ends."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # in-step samples, scaled to a whole reference sample
        self.sampling_s = 0.0
        self.seconds = 0.0  # wall time minus the time the samples took
        self.factor = 1.0

    @property
    def paced_s(self) -> float:
        return self.seconds * self.factor


class Pacer:
    """Speed factors for the timed steps of one round, a reference sample between each."""

    def __init__(self) -> None:
        self.samples = [self._sample()]

    @staticmethod
    def _sample() -> float:
        # The fastest of three: single samples jitter by a third even when
        # the machine's speed holds still.
        return min(reference_work() for _ in range(3))

    def scale(self) -> float:
        """Factor for the short step timed since the last call (or since creation)."""
        self.samples.append(self._sample())
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2.0)

    @contextmanager
    def long_step(self, sampling: bool = True):
        """Time the ``with`` block, sampling the speed inside it; yields a :class:`LongStep`.

        The samples around the step (the last one taken and a fresh one
        after it) join the in-step samples, so a step shorter than
        ``INTERVAL_S`` still gets a pace.  With ``sampling`` false (a traced
        round, whose spans must not hold reference work) only those two
        pace it.
        """
        step = LongStep()

        def sample(signum, frame):
            taken = reference_work(1)
            step.samples.append(taken * PARTS)
            step.sampling_s += taken

        interval = INTERVAL_S if sampling else 0.0
        previous = signal.signal(signal.SIGALRM, sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield step
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        step.seconds = elapsed - step.sampling_s
        self.samples.append(self._sample())
        around = [self.samples[-2], self.samples[-1]]
        step.factor = REFERENCE_S / statistics.median(step.samples + around)

"""The machine's speed while a pass runs, for rescaling measured times.

The benchmark shares a few cores of a host whose speed changes from second to
second and, for minutes at a time, by a third or more: the same pass can take
4 s or 8 s.  Every time the benchmark reports is therefore rescaled to one
nominal speed.  While a pass runs, `Ticker` interrupts it every
``INTERVAL_S`` of wall time and times one call of `reference`, a fixed
pure-Python loop that shares nothing with the engine.  The typical sample
over the pass (`typical`), divided by ``NOMINAL_S``, is how much slower than
nominal the machine ran during the pass; the pass's time, less the ticks' own
time, is divided by it.  The loop makes no objects the cyclic garbage
collector tracks, so a collection never lands in a sample.  A change to the
engine moves the rescaled time as it moves the raw one, because the
reference loop runs no engine code.
"""

from __future__ import annotations

import signal
import time

# one reference() call, in seconds, at the nominal speed: about its typical
# time on the 2-vCPU Xeon with Python 3.11.7 on which NOTES.md's baseline was taken
NOMINAL_S = 3.3e-4
INTERVAL_S = 0.02
KEPT = 0.8  # typical() keeps the fastest four fifths of the samples


def reference() -> int:
    total = 0
    for i in range(4000):
        total += (i * i) % 7
    return total


def time_reference(calls: int) -> list:
    """Seconds of each of ``calls`` reference() calls in a row."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - start)
    return samples


def typical(samples) -> float:
    """Mean of the fastest KEPT of the samples.

    The slowest samples are those in which the process was pre-empted or
    interrupted; one such 5 ms sample among 0.3 ms ones would move a plain
    mean far more than the lost time moves the pass.
    """
    ordered = sorted(samples)
    kept = ordered[:max(1, int(len(ordered) * KEPT))]
    return sum(kept) / len(kept)


class Ticker:
    """Times reference() every INTERVAL_S of wall time inside a ``with`` block.

    ``samples`` holds each tick's time and ``spent`` the time the ticks took
    away from the block.  The previous SIGALRM handler is restored on exit.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self.samples = time_reference(10)
        return False

    def slowdown(self) -> float:
        """How many times slower than nominal the machine ran in the block."""
        return typical(self.samples) / NOMINAL_S

    def rescale(self, seconds: float) -> float:
        """A time measured over the block, less the ticks, at nominal speed."""
        return (seconds - self.spent) / self.slowdown()

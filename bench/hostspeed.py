"""Host speed, from a fixed piece of interpreter work, to scale timings by.

The 2-vCPU VM this benchmark was tuned on runs the same work at speeds
that differ by up to two times, from one tenth of a second to the next
and in phases that last minutes.  CPU time tracks wall time through them:
the process is not descheduled, the host executes slower.  A fixed
calibration workload slows down with it.  Chunks of it run between the
library's calls, one for every SAMPLE_EVERY_S of other work, and every
timing is scaled to the speed at which a chunk takes REFERENCE_S:

    scaled = seconds * REFERENCE_S / mean chunk seconds around that moment

On the tuning host, 16 passes over the same 500 `enum-sweep` instances
spread 0.30 (interquartile range over median) in wall time and 0.04
scaled.  The calibration never calls the library, so a change to the
library moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

import bisect
import time

# Seconds one calibration chunk takes at the reference speed, about the
# mean on the 2-vCPU VM (Python 3.11.7) the benchmark was tuned on, so
# that scaled times read close to its wall times.
REFERENCE_S = 0.0005
WORK_ROUNDS = 20
# One chunk runs for each SAMPLE_EVERY_S of other work, about 4% of the
# run.  The host's speed changes within tens of milliseconds, so sparse
# samples miss it; chunks in proportion to the time track it.
SAMPLE_EVERY_S = 0.01
# The speed at a moment is the mean chunk time within WINDOW_S to either
# side, and over at least MIN_SAMPLES chunks.  A mean, not a median or a
# minimum: the library runs through the slow moments as the chunks do.
WINDOW_S = 1.5
MIN_SAMPLES = 100


class _Ring:
    """Residues mod m through method calls, as the library's Zpr works."""

    __slots__ = ("m",)

    def __init__(self, m: int) -> None:
        self.m = m

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.m

    def mul(self, a: int, b: int) -> int:
        return a * b % self.m


def calibration_work(rounds: int = WORK_ROUNDS) -> int:
    """Polynomial products mod m on tuples and lists, keyed into a dict.

    The same kinds of interpreter operations the library spends its time
    on: small-int arithmetic, method calls, tuple and list building and
    dict lookups.  It never calls the library.
    """
    ring = _Ring(65521)
    seen: dict[tuple, int] = {}
    f = tuple(range(1, 9))
    for i in range(rounds):
        g = tuple((c * (i + 3) + 1) % 251 for c in f)
        prod = [0] * (len(f) + len(g) - 1)
        for a, x in enumerate(f):
            for b, y in enumerate(g):
                prod[a + b] = ring.add(prod[a + b], ring.mul(x, y))
        key = tuple(prod[:4])
        seen[key] = seen.get(key, 0) + 1
        f = tuple(prod[-8:])
    return len(seen)


class HostSpeed:
    """Calibration chunks over a run, and timings scaled by them."""

    def __init__(self) -> None:
        self.times: list[float] = []  # middle of each chunk
        self.total = [0.0]  # seconds of the chunks before each index
        self.last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_work()
        self.last = time.perf_counter()
        self.times.append((start + self.last) / 2)
        self.total.append(self.total[-1] + self.last - start)

    def keep_up(self) -> None:
        """One chunk for each SAMPLE_EVERY_S since the last chunk ended."""
        if not self.times:
            self.sample()
        for _ in range(int((time.perf_counter() - self.last) / SAMPLE_EVERY_S)):
            self.sample()

    def scaled_since(self, start: float) -> float:
        """Wall time since start, in seconds at the reference speed."""
        k = bisect.bisect_left(self.times, start)
        chunks = len(self.times) - k
        if not chunks:
            return time.perf_counter() - start
        return (time.perf_counter() - start) * REFERENCE_S * chunks / (self.total[-1] - self.total[k])

    def at(self, t: float) -> float:
        """Mean chunk seconds around time t."""
        n = len(self.times)
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            k = bisect.bisect_left(self.times, t)
            lo = max(0, min(lo, k - MIN_SAMPLES // 2))
            hi = min(n, max(hi, lo + MIN_SAMPLES))
            lo = max(0, min(lo, hi - MIN_SAMPLES))
        return (self.total[hi] - self.total[lo]) / (hi - lo)

    def scale(self, start: float, seconds: float) -> float:
        """A timing that began at start, in seconds at the reference speed."""
        return seconds * REFERENCE_S / self.at(start + seconds / 2)

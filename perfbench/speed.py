"""Machine speed, sampled alongside the measured work.

On a shared host, other tenants slow pure-Python code by a quarter or more
for seconds at a time, and process CPU time slows just as much.  So a fixed
reference task is timed every `interval` seconds between requests, and every
time the benchmark reports is scaled to a nominal speed:

    reported = measured * nominal / median(reference samples near it)

The reference is a piece of exact rational arithmetic, the kind of work
limitlab does.  It runs in a helper process of its own, so that the heap
the measured program grows does not change its speed; the caller waits for
it, so the two never run at once.  On the 2-core host the bounds were set
on, raw times spread by 10-40 % across runs of one workload, and scaled
ones by 2-9 %.

Run as a script, this file is that helper: it times the arithmetic once per
line read from stdin and prints the seconds.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path


def arithmetic_seconds() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)
    return time.perf_counter() - t0


class SpeedProbe:
    nominal = 0.0025  # the reference's typical seconds on the 2-core host the bounds were set on
    interval = 0.25

    def __init__(self):
        self.helper = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.samples: list[float] = []
        self._reference()  # the first one pays for warming up

    def _reference(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        return float(self.helper.stdout.readline())

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(self._reference())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.interval:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a time measured over [start, end] to nominal speed;
        samples within two intervals of it describe its speed."""
        lo = bisect.bisect_left(self.times, start - 2 * self.interval)
        hi = bisect.bisect_right(self.times, end + 2 * self.interval)
        if lo == hi:  # no sample close by: use the nearest one
            lo = min(max(lo - 1, 0), len(self.samples) - 1)
            hi = lo + 1
        return self.nominal / statistics.median(self.samples[lo:hi])

    def speed(self) -> float:
        """Median speed over the run, as a share of nominal."""
        return self.nominal / statistics.median(self.samples)

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(arithmetic_seconds(), flush=True)

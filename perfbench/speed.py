"""Host speed meter: scales measured times to a nominal host speed.

The benchmark host shares its CPUs with other machines' work, and its speed
drifts by tens of percent within seconds. The drift is common to all code the
process runs, so while a :class:`SpeedMeter` is active a timer signal
interrupts the process every ``TICK_S`` and runs a fixed reference computation
twice, timing the second run (about 0.08 ms): the first brings the reference's
code and data back into the caches, so the timing depends on the host and not
on what the program left in the caches. A program interval is then reported
as its own time (the ticks inside it taken out) scaled by ``NOMINAL_S`` over
the median reference time inside it: what the interval would have taken at
nominal speed. Each tick also reads the process's resident set size from
``/proc/self/statm``, so the peak RSS of the operations leaves out the
set-ups.
"""
from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

TICK_S = 0.02
NOMINAL_S = 80e-6  # reference duration at nominal host speed
MIN_SAMPLES = 5  # a shorter interval borrows its neighbours' ticks


class SpeedMeter:
    def __init__(self):
        import numpy

        self._matmul = numpy.matmul
        self._matrix = numpy.random.default_rng(0).random((48, 48))
        self._product = numpy.empty_like(self._matrix)  # ticks allocate no arrays
        self.starts: list[float] = []
        self.durations: list[float] = []  # the timed (second) reference run
        self.costs: list[float] = []  # the whole tick, taken out of program time
        self.rss: list[int] = []  # resident bytes at each tick
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._statm = None
        self._previous = None

    def __enter__(self):
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        os.close(self._statm)
        return False

    def _reference(self):
        total = 0
        for k in range(1500):
            total += k
        self._matmul(self._matrix, self._matrix, out=self._product)
        self._matmul(self._matrix, self._matrix, out=self._product)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._reference()
        warm = time.perf_counter()
        self._reference()
        self.rss.append(int(os.pread(self._statm, 128, 0).split()[1]) * self._page)
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - warm)
        self.costs.append(end - start)

    def nominal(self, start: float, end: float) -> float:
        """Seconds the program spent in [start, end], at nominal host speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = (end - start) - sum(self.costs[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.durations)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.durations))
        if hi == lo:
            return own
        return own * NOMINAL_S / statistics.median(self.durations[lo:hi])

    def peak_rss(self, windows) -> tuple[int, int]:
        """Largest resident set, in bytes, sampled inside any (start, end) of
        ``windows``, and the number of samples."""
        samples = []
        for start, end in windows:
            samples += self.rss[bisect.bisect_left(self.starts, start) : bisect.bisect_left(self.starts, end)]
        return max(samples), len(samples)

    def summary(self) -> dict:
        q1, q2, q3 = statistics.quantiles(self.durations, n=4)
        return {"ticks": len(self.durations), "nominal_s": NOMINAL_S, "median_s": q2, "q1_s": q1, "q3_s": q3}

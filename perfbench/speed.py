"""Host-speed sampling, so that job times can be given at a fixed speed.

The benchmark runs on a share of a larger host whose speed drifts by up to
1.5x over periods of ten seconds to a few minutes; a whole 30 s run can
fall in a slow or a fast period, and medians within a run cannot absorb
that.  So the run samples the host's speed while it measures: an interval
timer (SIGALRM) interrupts the program every SAMPLE_S of wall time, between
two bytecodes, and times a fixed pure-Python loop of about a millisecond.
The time spent in the handler is kept off the job clock.

A job that took `raw` seconds is reported as

    raw * REF_LOOP_S / median(loop times sampled from MARGIN_S before the
                              job to MARGIN_S after it)

that is, in seconds at the host speed on which the loop takes REF_LOOP_S.
The loop is the benchmark's own code, so a change to wob moves `raw` and
leaves the loop alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_S = 0.05
MARGIN_S = 0.25
LOOP_N = 12_000
# median loop time on a 2-vCPU Intel Xeon at 2.1 GHz under Python 3.11.7;
# a fixed constant, it only sets the unit of the scaled times
REF_LOOP_S = 0.00109


def spin_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - start


def sample_now(k: int = 9) -> float:
    """Median of k loop times taken back to back."""
    return statistics.median(spin_loop() for _ in range(k))


class SpeedSampler:
    """Samples the loop time every SAMPLE_S while started."""

    def __init__(self):
        self.at: list = []     # perf_counter at each sample
        self.loop_s: list = []  # loop time of each sample
        self.stolen_s = 0.0    # total time spent in the handler

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.loop_s.append(spin_loop())
        self.at.append(start)
        self.stolen_s += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_LOOP_S / the median loop time around [start, end]."""
        lo = bisect.bisect_left(self.at, start - MARGIN_S)
        hi = bisect.bisect_right(self.at, end + MARGIN_S)
        if hi == lo:  # no sample near: take the nearest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return REF_LOOP_S / statistics.median(self.loop_s[lo:hi])

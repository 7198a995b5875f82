"""Calibration of the benchmark's times against the machine's speed.

On a shared host the same work can take from one to twice as long, in
spells of a few seconds, so a raw wall time measures the neighbours as much
as the program.  The runner times `reference()`, a fixed piece of
pure-Python work that does not touch `pointfree`, next to every query and
every set-up, and scales each wall time by REF_S / (reference time).  A
reported time is thus the wall time on a machine where the reference takes
REF_S seconds: a slower program still reads slower, while a slow spell of
the machine slows the reference alike and cancels out.
"""

import bisect
import gc
import statistics
import time
from fractions import Fraction

# reference() takes about this long on the 2-vCPU x86-64 shared host the
# benchmark was defined on
REF_S = 0.002


def reference():
    """Work of the kind pointfree does: hashing frozensets, dicts, sorting
    and Fraction arithmetic."""
    table = {}
    for i in range(3000):
        table[frozenset((i % 37, i % 41, i % 7))] = i
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i, i + 2)
    return len(sorted(table.values())), acc


def time_reference():
    """Wall time of one reference() call, with the collector off so that
    the program's heap does not change the reference's cost."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def median_reference(k):
    """Median of k reference times; a fresh set-up interpreter reports it."""
    return statistics.median(time_reference() for _ in range(k))


class References:
    """Reference times of a closed loop, taken before its first query and
    after each one, with the times they were taken at."""

    def __init__(self):
        self.at, self.s = [], []
        self.take()

    def take(self):
        self.at.append(time.perf_counter())
        self.s.append(time_reference())

    def calibrate(self, spans):
        """The wall time of each query (start, end) scaled by REF_S over
        the mean of the reference times taken from one query-length before
        its start to one query-length after its end, and at least the two
        right around it.  A query of a second spans several spells of the
        machine's speed, which the two alone would not sample."""
        out = []
        for i, (start, end) in enumerate(spans):
            wall = end - start
            lo = min(bisect.bisect_left(self.at, start - wall), i)
            hi = max(bisect.bisect_right(self.at, end + wall), i + 2)
            out.append(wall * REF_S / statistics.fmean(self.s[lo:hi]))
        return out

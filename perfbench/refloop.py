"""A reference loop timed between ops, to factor the machine's speed out.

The benchmark runs on a shared VM whose speed drifts by up to 1.8x in
phases of seconds to minutes (see README, "Noise").  A phase that outlasts
a run moves every time the run measures, and no amount of repetition
inside the run undoes it.  So a measured pass also times this fixed loop,
a few milliseconds of dict, tuple and sort work owned by the benchmark,
every PERIOD_S of op time.  The loop slows with the machine as the engine
does: over six minutes of drifting 10-s windows, an engine workload's time
spread by 0.28 of its median and its ratio to this loop by 0.04.

Dividing a stretch of a pass by the loop's time at that moment gives the
stretch in *ref* units: how many reference loops it is worth.  A change to
the engine moves that figure as it moves the time, because the loop runs
no engine code.  The loop runs with the cyclic garbage collector off, so
its time does not depend on the size of the engine's heap.
"""

from __future__ import annotations

import bisect
import gc
import statistics

PERIOD_S = 0.04  # op time between two reference loops
NEIGHBOURS = 15  # loops whose median gives the speed at one moment


def reference_loop():
    table = {}
    for i in range(3000):
        table[(i * 7919) % 100003, i & 31] = (i, i >> 3)
    rows = sorted(table.items())
    return frozenset(k for k, _v in rows[::3])


class SpeedProbe:
    """Runs and times `reference_loop` when called, if one is due.

    Call it where the work may pause.  An op that a loop runs inside of
    must take the loop's time out of its latency (see `spent`).
    """

    def __init__(self, clock):
        self.clock = clock
        self.mids = []  # midpoint of each loop, in clock time
        self.durations = []
        self.spans = []  # (start, end) of each loop
        self._due = clock()

    def __call__(self, force=False):
        t0 = self.clock()
        if t0 < self._due and not force:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_loop()
        finally:
            if collecting:
                gc.enable()
        t1 = self.clock()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.spans.append((t0, t1))
        self._due = t1 + PERIOD_S

    def speed_at(self, t):
        """Median loop time of the NEIGHBOURS loops nearest to time t."""
        i = bisect.bisect_left(self.mids, t)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.mids) - NEIGHBOURS))
        return statistics.median(self.durations[lo:lo + NEIGHBOURS])

    def in_refs(self, t0, t1):
        """The time from t0 to t1, less the loops run in it, in ref units."""
        total, start = 0.0, t0
        for a, b in self.spans[bisect.bisect_left(self.mids, t0):]:
            if a >= t1:
                break
            total += max(0.0, a - start) / self.speed_at((start + a) / 2)
            start = max(start, b)
        if t1 > start:
            total += (t1 - start) / self.speed_at((start + t1) / 2)
        return total

    def spent(self, t0, t1):
        """Seconds of reference loops run between t0 and t1."""
        total = 0.0
        for a, b in self.spans[bisect.bisect_left(self.mids, t0):]:
            if a >= t1:
                break
            total += min(b, t1) - max(a, t0)
        return total

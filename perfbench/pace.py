"""The machine's momentary speed, from a fixed probe run between operations.

The benchmark's host is shared, and its speed drifts by a third or more over
seconds to minutes; a whole run can fall in a slow stretch. Every timing the
benchmark reports is therefore scaled to a reference speed: an operation's
latency is multiplied by ``REFERENCE_PROBE_S`` over the mean duration of the
probes taken just before and just after it. The probe is a fixed loop of
`fractions.Fraction` additions, the same kind of work as gitloci's exact
arithmetic, written here and not in gitloci, so a change to gitloci cannot
speed it up or slow it down.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_TERMS = 1500
# The probe's duration at the reference speed: about its duration on the
# machine that REFERENCE.md describes, when that machine runs at full speed.
REFERENCE_PROBE_S = 0.0045
# A probe runs before an operation when this long has passed since the last.
PROBE_INTERVAL_S = 0.05


def probe():
    """Duration of one run of the fixed probe loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


class Pace:
    """Probes on a schedule, and the scale factor of each timed interval."""

    def __init__(self):
        self.probes = []
        self.last_end = None

    def take(self):
        """Run a probe now; returns its index."""
        self.probes.append(probe())
        self.last_end = time.perf_counter()
        return len(self.probes) - 1

    def before(self):
        """Index of the probe that precedes the next interval, taking a new
        one when the last is older than PROBE_INTERVAL_S."""
        if self.last_end is None or time.perf_counter() - self.last_end >= PROBE_INTERVAL_S:
            return self.take()
        return len(self.probes) - 1

    def scale(self, first, last):
        """Factor that takes an interval between probes `first` and `last`
        to the reference speed."""
        return REFERENCE_PROBE_S * 2 / (self.probes[first] + self.probes[last])

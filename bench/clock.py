"""A clock in reference seconds, corrected for the machine's current speed.

On a shared host the same pure-Python work can take 20-40% longer for
minutes at a time, whatever the code does.  Every duration the
benchmark reports is therefore read from ``RefClock``: measured seconds
scaled by ``PROBE_REFERENCE_S / probe time``, where the probe is a fixed
piece of the benchmark's own pure-Python code (the oracle's arrow table
of the six-point crown) timed every ``PROBE_EVERY_S`` seconds.  The probe does
not touch the library, so a faster library still reads faster.  On an
unloaded core of the machine in ``records/`` one reference second is
about one second.  Time spent probing is left out.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

import oracle

# Probe time that counts as one reference second per second.
PROBE_REFERENCE_S = 0.001
# Seconds between probes, and how many recent probes the speed factor averages.
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 4
_CROWN = oracle.closure(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])


def probe_seconds() -> float:
    """Time of the probe on warm caches, so that it does not depend on
    what the library left in the caches before it."""
    oracle.arrow_table(_CROWN)
    start = perf_counter()
    oracle.arrow_table(_CROWN)
    return perf_counter() - start


class RefClock:
    def __init__(self):
        self._recent: deque[float] = deque(maxlen=PROBE_WINDOW)
        self._ref = 0.0
        self._raw = perf_counter()
        self.factor = 1.0
        self.factors: list[float] = []
        self.probe()

    def now(self) -> float:
        return self._ref + (perf_counter() - self._raw) * self.factor

    def probe(self) -> None:
        """Measure the machine's speed; the probe itself takes no reference time."""
        start = perf_counter()
        self._ref += (start - self._raw) * self.factor
        self._recent.append(probe_seconds())
        self.factor = PROBE_REFERENCE_S * len(self._recent) / sum(self._recent)
        self.factors.append(self.factor)
        self._raw = perf_counter()

    def probe_if_due(self) -> None:
        if perf_counter() - self._raw >= PROBE_EVERY_S:
            self.probe()

"""Spans around the benchmark's calls into the library.

A span records a name, its start and end (read from a ``RefClock``),
the span that was open when it started, and the id of the item being
worked on.  Spans stay in memory until the run ends.  A layer's self
time is its spans' durations minus the part covered by their child
spans.

Both tracers expose ``call(name, fn, *args)``; the untraced one just
calls ``fn``, so the workloads run the same code in both modes.
"""

from __future__ import annotations

import json
from collections import defaultdict


class Untraced:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def rename_last(self, name: str) -> None:
        pass


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self._open: list[int] = []
        self.item = None

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.item]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock.now()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock.now()
            self._open.pop()

    def rename_last(self, name: str) -> None:
        """Rename the most recent span, for names that depend on the call's outcome."""
        self.spans[-1][0] = name

    def layer_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: summed self time in seconds and number of calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += end - start - child_time[sid]
            acc[1] += 1
        return {name: (s, calls) for name, (s, calls) in out.items()}

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - origin, 9), round(end - origin, 9), parent, item]
            for name, start, end, parent, item in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "item"],
                       "spans": rows}, handle)

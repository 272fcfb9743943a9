"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start and end (perf_counter_ns), its parent span and the
id of the operation it belongs to, plus the counts taken at that boundary.
Spans stay in a list until the run ends. A layer's self time is its span's
duration minus the durations of its child spans (children never overlap:
one thread makes every call).
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "counts")

    def __init__(self, sid, name, parent, op):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.counts = {}
        self.start = self.end = 0

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        span = Span(len(self.spans), name, self._open[-1].id if self._open else None, self.op)
        self.spans.append(span)
        self._open.append(span)
        span.start = perf_counter_ns()
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> list:
        """Self time of every span, indexed by span id."""
        out = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ns
        return out

    def by_name(self, name) -> list:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": s.id, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                 "parent": s.parent, "op": s.op, "counts": s.counts} for s in self.spans]
        path.write_text(json.dumps(rows))


class NullTracer:
    """Stands in for Tracer in the untraced phase; records nothing."""

    def span(self, name):
        return nullcontext()

"""Spans recorded by the benchmark around its calls into the library.

A span is ``[name, start, end, parent, case]``: ``parent`` is the index of
the enclosing span or -1, ``case`` names the operation it belongs to.  Spans
stay in memory and are written out once the run ends.  With tracing off,
``span`` hands back one shared do-nothing context, so the untraced run pays
only for a method call.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter

_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, case: str):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.record = [name, 0.0, 0.0, parent, case]

    def __enter__(self):
        t = self.tracer
        t.stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[1] = perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, case: str = ""):
        return _Span(self, name, case) if self.enabled else _OFF

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"], "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """Self time of spans[first:]: each span's duration minus the time its
    child spans cover.  Children of one span never overlap (one thread)."""
    own = [s[2] - s[1] for s in spans[first:]]
    for s in spans[first:]:
        if s[3] >= first:
            own[s[3] - first] -= s[2] - s[1]
    return own

"""Spans around the benchmark's calls into effalg, kept in memory.

A span is (name, start, end, parent, input id); children of a span are the
calls made while it was open.  A layer's self time is its span's duration
minus the time its child spans cover.  Nothing inside effalg is
instrumented: spans sit at the public calls the benchmark makes.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """The untraced path: calls go straight through, counts are dropped."""

    input_id = ""
    spans = ()

    def call(self, name, fn, *args):
        return fn(*args)

    @contextmanager
    def span(self, name):
        yield

    def count(self, key, n=1):
        pass

    def add_self_times(self, first, scale):
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()  # self time per span name, seconds
        self.calls: Counter = Counter()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.input_id)

    def count(self, key, n=1):
        self.counts[key] += n

    def add_self_times(self, first: int, scale: float) -> None:
        """Add the self time, times ``scale``, and the call count of every
        span from index ``first`` on to ``busy`` and ``calls``."""
        for name, start, end, parent, _ in self.spans[first:]:
            self.busy[name] += (end - start) * scale
            self.calls[name] += 1
            if parent >= 0:
                self.busy[self.spans[parent][0]] -= (end - start) * scale

    def write(self, path) -> None:
        """Write every span as one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

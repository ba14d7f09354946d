"""In-memory spans around the benchmark's calls into holocode.

A span is (name, start, end, parent).  Names are "<layer>.<call>", where
the layer is a module of ``src/holocode/`` ("bench" marks the benchmark's
own grouping spans).  Spans stay in memory until the run ends and are
written out in one piece.  With tracing off, ``span`` returns a shared no-op
context manager.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def durations(self, name: str) -> list:
        """Durations in seconds of every span called ``name``."""
        return [(e - s) * 1e-9 for n, s, e, _ in self.spans if n == name]

    def self_times(self) -> dict:
        """Seconds per layer, each span's duration minus its children's."""
        child = defaultdict(int)
        for _, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out = defaultdict(float)
        for i, (name, s, e, _) in enumerate(self.spans):
            out[name.split(".")[0]] += (e - s - child[i]) * 1e-9
        return dict(out)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh)
            fh.write("\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0, 0, stack[-1] if stack else -1]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter_ns()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter_ns()
        self.tracer._stack.pop()


class _NoSpan:
    def __enter__(self):
        pass

    def __exit__(self, *exc):
        pass


_NO_SPAN = _NoSpan()


def span_cost_us(samples: int = 20000) -> float:
    """Mean cost of opening and closing one empty span, in microseconds."""
    tracer = Tracer(True)
    start = time.perf_counter_ns()
    for _ in range(samples):
        with tracer.span("bench.empty"):
            pass
    return (time.perf_counter_ns() - start) * 1e-3 / samples


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q (0..100) of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


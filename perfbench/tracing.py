"""Spans timed from outside the program, for the benchmark's traced run.

A traced layer is a function replaced, under the module attribute its caller
looks it up by, with a wrapper that records a span (name, start, end, parent)
in memory. Patching the defining module instead would record nothing when the
caller imported the name, so a wrapped name that no longer exists is an error.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts recorded in memory during one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, count=None):
        """fn recording a span per call; count(counts, args, result) runs after it."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def self_seconds(self, root: str, children: tuple[str, ...]) -> float:
        """Summed time of `root` spans not covered by any `children` span."""
        intervals = sorted(
            (s.start, s.end) for s in self.spans if s.name in children
        )
        total = 0.0
        for r in (s for s in self.spans if s.name == root):
            covered = 0.0
            cursor = r.start
            for lo, hi in intervals:
                lo, hi = max(lo, cursor), min(hi, r.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total += r.seconds - covered
        return total

    def closure_error(self, root: str, children: tuple[str, ...]) -> float:
        """|children busy + root self - root wall| as a share of root wall.

        Zero when every child span lies inside a root span and no two child
        spans overlap; a layer wrapped twice or timed outside its root shows
        here.
        """
        wall = self.busy(root)
        busy = math.fsum(self.busy(c) for c in children)
        return abs(busy + self.self_seconds(root, children) - wall) / wall


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap each (module, attribute, span name, count) target for the block."""
    originals = []
    try:
        for module, attr, name, count in targets:
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise LookupError(
                    f"{module.__name__}.{attr} no longer exists, so layer "
                    f"{name!r} cannot be traced; update perfbench/run.py"
                )
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def tail_percentile(n: int) -> float:
    """Highest of TAIL_PERCENTILES leaving at least TAIL_MIN_BEYOND samples above it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(round(p * n / 100.0, 9)) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 9)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0

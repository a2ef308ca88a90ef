"""In-memory spans for the traced benchmark run.

A span records a name, a start, an end, the span that opened it and the
op it belongs to.  A span opened while no other is open starts a new op.
Spans stay in memory; the harness writes them out when the run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Records spans; ``memory=True`` also records the tracemalloc peak of the span."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ops = 0
        self._clock = clock

    @contextmanager
    def span(self, name: str, memory: bool = False, **attrs):
        if self._open:
            parent = self._open[-1]
            op_id = self.spans[parent].op_id
        else:
            parent, op_id = None, self._ops
            self._ops += 1
        span = Span(name, op_id, parent, self._clock(), attrs=attrs)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        if memory:
            tracemalloc.start()
        try:
            yield span.attrs
        finally:
            if memory:
                span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            span.end = self._clock()
            self._open.pop()


class NullTracer:
    """The untraced run: same interface, records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, memory: bool = False, **attrs):
        yield {}


def self_times_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((s.end - s.start - covered) * 1000.0)
    return out

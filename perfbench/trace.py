"""In-memory spans around lieforge's public calls, and per-layer aggregates.

Wrappers are installed on the names where lieforge looks them up at call
time, so calls from inside the package are seen too.  Each span records its
name, start, end, parent and the id of the benchmark operation (a verdict
or a query) it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 at top level
    op: int       # benchmark operation id
    count: int    # rows, points or matrices handled, by layer
    weight: float = 1.0  # drift correction of the unit the span ran in


def _rows(pts) -> int:
    return int(np.atleast_2d(np.asarray(pts, dtype=float)).shape[0])


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []
        # one (evaluated rows, distinct rows) pair per riemann_ricci call
        self.stencils: list[tuple[int, int]] = []
        self._stencil_rows: list[np.ndarray] | None = None

    def open(self, name: str, count: int = 0) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op, count))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            idx = self.open(name, count(*args) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_field_call(self, fn):
        def traced(field, pts):
            rows = np.atleast_2d(np.asarray(pts, dtype=float))
            if self._stencil_rows is not None:
                self._stencil_rows.append(rows.copy())
            idx = self.open("metric.field", len(rows))
            try:
                return fn(field, pts)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_riemann_ricci(self, fn):
        def traced(*args, **kwargs):
            outer = self._stencil_rows
            self._stencil_rows = []
            idx = self.open("curvature.riemann_ricci", 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                rows = np.concatenate(self._stencil_rows) if self._stencil_rows else np.empty((0, 0))
                distinct = len(np.unique(rows, axis=0)) if len(rows) else 0
                self.stencils.append((len(rows), distinct))
                self._stencil_rows = outer

        traced.__wrapped__ = fn
        return traced


# (module, attribute, span name, count of the call's work)
_TARGETS = (
    ("lieforge.charts", "expm_dual", "kernel.expm_dual",
     lambda a: int(np.asarray(a).size // (np.asarray(a).shape[-1] ** 2))),
    ("lieforge.metric", "mat_inverse", "kernel.mat_inverse", None),
    ("lieforge.charts", "exp_chart_batch", "charts.exp_chart_batch", lambda spec, th: _rows(th)),
    ("lieforge.metric", "exp_chart_batch", "charts.exp_chart_batch", lambda spec, th: _rows(th)),
    ("lieforge.charts", "euler_chart_batch", "charts.euler_chart_batch", _rows),
    ("lieforge.metric", "euler_chart_batch", "charts.euler_chart_batch", _rows),
    ("lieforge.metric", "metric", "metric.metric", None),
    ("lieforge.sphere", "hyperspherical_batch", "sphere.hyperspherical_batch",
     lambda n, th, *rest: _rows(th)),
    ("lieforge.scan", "sample_safe_points", "scan.sample_safe_points", None),
    ("lieforge.catalog", "parse_group_name", "catalog.parse_group_name", None),
    ("lieforge.scan", "parse_group_name", "catalog.parse_group_name", None),
)


def install(tracer: Tracer):
    """Patch every traced name; return a function that restores them all.

    ``lieforge.metric`` is reached through ``sys.modules`` because the
    package attribute of that name is the ``metric`` function.
    """
    saved = []
    wrapped = {}

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        if id(original) not in wrapped:
            wrapped[id(original)] = make(original)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped[id(original)])

    for module, attr, name, count in _TARGETS:
        patch(sys.modules[module], attr, lambda fn, name=name, count=count: tracer.wrap(name, fn, count))
    patch(sys.modules["lieforge.curvature"], "riemann_ricci", tracer.wrap_riemann_ricci)
    patch(sys.modules["lieforge.metric"].MetricField, "__call__", tracer.wrap_field_call)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed count, busy and self seconds.

    Busy time sums the spans not nested in a span of the same name; self
    time is each span's duration minus the time its children cover.  Both
    are scaled by each span's weight.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        w = s.weight
        row = out.setdefault(s.name, {"calls": 0, "count": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["count"] += s.count
        dur = s.end - s.start
        row["self_s"] += w * (dur - _covered(children.get(i, ())))
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["busy_s"] += w * dur
    return out

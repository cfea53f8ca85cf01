"""Self-tests for the benchmark's own pieces.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys

import numpy as np
import pytest

from lieforge.catalog import make_group, structure_constants
from lieforge.metric import exp_metric_field
from perfbench import oracles, stats
from perfbench.probe import Meter, corrected
from perfbench.trace import Tracer, install, layer_totals


@pytest.mark.parametrize("family,n,expected", [
    ("su", 2, 1 / 4), ("su", 3, 3 / 8), ("su", 4, 1 / 2),
    ("so", 3, 1 / 16), ("so", 4, 1 / 8), ("so", 5, 3 / 16), ("so", 6, 1 / 4),
    ("sp", 1, 1 / 4), ("sp", 2, 3 / 8), ("sp", 3, 1 / 2),
])
def test_killing_lambda_table(family, n, expected):
    spec = make_group(family, n)
    assert oracles.killing_lambda(structure_constants(spec).f) == pytest.approx(expected, abs=1e-12)
    assert oracles.killing_lambda_closed_form(spec.family, n) == pytest.approx(expected, abs=1e-15)


def test_exp_chart_oracle_is_identity_at_origin():
    spec = make_group("so", 4)
    g = oracles.exp_chart_metric(spec.generators, np.zeros(spec.dim))
    assert np.max(np.abs(g - np.eye(spec.dim))) < 1e-14


def test_p99_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        stats.percentile(list(range(999)), 99)
    assert stats.percentile(list(range(100)), 99, min_tail=1) == 98
    assert stats.percentile([5.0] * 20, 50) == 5.0


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert stats.spread([10.0] * 8) == 0.0


class _FixedProbe:
    def __init__(self, readings):
        self._readings = iter(readings)

    def measure(self):
        return next(self._readings)


def test_drift_correction_arithmetic():
    assert corrected(2.0, probe_now=0.02, probe_ref=0.01) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        corrected(1.0, probe_now=0.0, probe_ref=0.01)
    # readings 10 ms before and 30 ms after: the unit ran at half the reference speed
    meter = Meter(_FixedProbe([0.010, 0.030, 0.020]), probe_ref=0.010)
    _, raw, factor = meter.time(lambda: None)
    assert factor == pytest.approx(0.5)
    # the after-reading of one unit is the before-reading of the next
    assert meter.stop(meter.start()) == pytest.approx(0.010 / 0.025)
    assert meter.readings == [0.010, 0.030, 0.020]


def test_self_time_from_nested_spans():
    clock = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(clock))
    a = tracer.open("a")          # [0, 10]
    b = tracer.open("b")          # [1, 4]
    tracer.close(b)
    c = tracer.open("c")          # [5, 9]
    d = tracer.open("c")          # [6, 7], nested in a span of the same name
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    totals = layer_totals(tracer.spans)
    assert totals["a"]["self_s"] == pytest.approx(10 - 3 - 4)
    assert totals["a"]["busy_s"] == pytest.approx(10)
    assert totals["b"]["self_s"] == pytest.approx(3)
    assert totals["c"]["calls"] == 2
    assert totals["c"]["busy_s"] == pytest.approx(4)       # the nested span is not counted twice
    assert totals["c"]["self_s"] == pytest.approx(3 + 1)


def test_span_weights_rescale_times():
    clock = iter([0.0, 2.0])
    tracer = Tracer(clock=lambda: next(clock))
    tracer.close(tracer.open("x"))
    tracer.spans[0].weight = 0.5
    assert layer_totals(tracer.spans)["x"]["busy_s"] == pytest.approx(1.0)


def test_traced_stencil_counts_and_restore():
    curvature = sys.modules["lieforge.curvature"]
    original = curvature.riemann_ricci
    field = exp_metric_field(make_group("su", 2))
    tracer = Tracer()
    restore = install(tracer)
    try:
        curvature.riemann_ricci(field, np.array([0.3, -0.2, 0.4]))
    finally:
        restore()
    assert curvature.riemann_ricci is original
    d = 3
    evals, distinct = tracer.stencils[0]
    assert evals == 36 * d * d + 12 * d + 2
    assert 0 < distinct < evals
    totals = layer_totals(tracer.spans)
    assert totals["metric.field"]["count"] == evals
    assert totals["charts.exp_chart_batch"]["count"] == evals
    assert totals["curvature.riemann_ricci"]["calls"] == 1

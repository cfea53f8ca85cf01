"""The lieforge names the benchmark harness in ``perfbench/`` reaches stay in place.

The harness patches functions by module attribute and builds configs and
fields through the public calls below, so a rename or deletion here would
break the traced benchmark run or the point-queries workload.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from lieforge.catalog import parse_group_name  # noqa: E402
from lieforge.charts import ChartPoint  # noqa: E402
from lieforge.metric import MetricConfig, exp_metric_field  # noqa: E402
from perfbench.trace import Tracer, install  # noqa: E402


def test_trace_installs_and_restores():
    metric_module = sys.modules["lieforge.metric"]
    names = ("metric", "mat_inverse", "exp_chart_batch", "euler_chart_batch")
    originals = {name: getattr(metric_module, name) for name in names}
    su2 = parse_group_name("su2")
    tracer = Tracer()
    restore = install(tracer)
    try:
        # called through the module, as the workloads do, so the wrappers see it
        metric_module.metric(MetricConfig(su2, chart="euler"),
                             ChartPoint("euler", [1.0, 0.2, -0.4], su2))
        exp_metric_field(su2)(np.array([[0.3, -0.2, 0.4]]))
    finally:
        restore()
    assert {"metric.metric", "charts.euler_chart_batch", "metric.field"} <= {
        s.name for s in tracer.spans}
    assert all(getattr(metric_module, name) is fn for name, fn in originals.items())

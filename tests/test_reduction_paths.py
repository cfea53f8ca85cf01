"""Per-call paths reduce through numpy's ufuncs, not its Python-level wrappers.

``ndarray.sum``, ``np.all``, ``np.cumprod``, ``np.swapaxes``,
``np.atleast_2d`` and their kind only forward to a C loop through a Python
frame in numpy's ``_methods.py``, ``fromnumeric.py`` or ``shape_base.py``.
Each case below runs once to fill the caches, then again under a profiler
that records every such frame entered directly from the package's source.
"""

import os
import sys

import numpy as np
import pytest

import lieforge
from lieforge.catalog import make_group
from lieforge.charts import ChartPoint, safe_domain
from lieforge.curvature import riemann_ricci
from lieforge.metric import MetricConfig, metric, metric_field
from lieforge.scan import verdict
from lieforge.sphere import pullback_metric, sphere_einstein_check

PACKAGE_DIR = os.path.dirname(os.path.abspath(lieforge.__file__)) + os.sep
WRAPPER_FILES = {
    os.path.join(core, name)
    for core in ("numpy/_core", "numpy/core")  # numpy 2.x, then 1.x
    for name in ("_methods.py", "fromnumeric.py", "shape_base.py")
}


def _is_wrapper(filename: str) -> bool:
    return any(filename.replace(os.sep, "/").endswith(f) for f in WRAPPER_FILES)


def wrapper_entries(call) -> list[str]:
    """'caller -> wrapper' for each numpy wrapper frame that a frame in the
    package's source enters while ``call()`` runs."""
    entries = []

    def profile(frame, event, arg):
        if event == "call" and _is_wrapper(frame.f_code.co_filename):
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(PACKAGE_DIR):
                entries.append(f"{caller.f_code.co_name}:{caller.f_lineno} -> "
                               f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_code.co_name}")

    call()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entries


def _exp_verdict():
    return verdict(metric_field(make_group("so", 5), "exp", 1.0), 1, 1e-6, 3)


def _euler_verdict():
    return verdict(metric_field(make_group("su", 2), "euler", 1.0), 2, 1e-6, 4)


def _sphere_verdict():
    return sphere_einstein_check(6, 2, 1e-6, 5)


def _exp_metric():
    spec = make_group("so", 5)
    return metric(MetricConfig(spec), ChartPoint("exp", np.linspace(0.1, 1.0, 10), spec))


def _euler_metric():
    spec = make_group("su", 2)
    return metric(MetricConfig(spec, chart="euler"), ChartPoint("euler", [1.0, 0.5, -0.3], spec))


def _pullback():
    return pullback_metric(8, [0.5, 1.0, 1.5, 2.0, 2.5, 0.7, 0.3])


def _ricci():
    return riemann_ricci(metric_field(make_group("su", 3), "exp", 2.0), np.full((2, 8), 0.2))


def _contains_one_point():
    # a single 1-D point, as the benchmark's point pool passes it
    return [safe_domain(make_group(*g), chart).contains(np.full(d, 0.5))
            for g, chart, d in ((("su", 3), "exp", 8), (("su", 2), "euler", 3))]


@pytest.mark.parametrize("call", [_exp_verdict, _euler_verdict, _sphere_verdict, _exp_metric,
                                  _euler_metric, _pullback, _ricci, _contains_one_point])
def test_no_numpy_python_wrapper_on_per_call_paths(call):
    assert wrapper_entries(call) == []


def test_the_guard_sees_a_wrapper():
    # the profiler hook does catch a wrapper call made from a package frame
    code = compile("lambda x: x.sum()", PACKAGE_DIR + "probe.py", "eval")
    assert wrapper_entries(lambda: eval(code)(np.ones(3))) == ["<lambda>:1 -> _methods.py:_sum"]


def test_exp_contains_takes_one_point():
    # the polar domains' single points are tested with their pole margins
    dom = safe_domain(make_group("su", 3), "exp")
    assert dom.contains(np.full(8, 0.5)).tolist() == [True]
    assert dom.contains(np.full(8, 2.5)).tolist() == [False]

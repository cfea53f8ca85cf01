#!/usr/bin/env python3
"""Run one benchmark workload against the lieforge sources in ``src/``.

    python3 perfbench/run.py --probe-ref <as in BENCHMARK.json> \\
        --workload scan-classical --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of ``BENCHMARK.json``.  The line before it records the machine and
diagnostics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the host has two cores shared
# with other tenants, and the kernels' matrices are at most 5x5.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import importlib.metadata
import json
import math
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402
from perfbench.probe import Meter, Probe  # noqa: E402
from perfbench.trace import Tracer, install, layer_totals  # noqa: E402
from perfbench.workloads import GROUPS, WORKLOADS, Tally  # noqa: E402

SETUP_REPEATS = 11
MIN_PASSES = 3


def load_lieforge() -> None:
    """Import lieforge afresh from ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "lieforge" or m.startswith("lieforge.")]:
        del sys.modules[name]
    importlib.import_module("lieforge")


def parse_probe_ref(text: str) -> dict[str, float]:
    refs = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        refs[name.strip()] = float(value) / 1000.0
    return refs


def measure_setup(wl, seed: int, meter: Meter):
    corrected, raw = [], []
    for _ in range(SETUP_REPEATS):
        token = meter.start()
        t0 = time.perf_counter()
        load_lieforge()
        wl.setup(seed)
        dt = time.perf_counter() - t0
        raw.append(dt)
        corrected.append(dt * meter.stop(token))
    return stats.median(corrected), stats.median(raw)


def per_layer(wl, tally: Tally, tracer: Tracer) -> dict[str, tuple[float, str]]:
    layers = layer_totals(tracer.spans)

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    out = {
        "kernel.expm_dual.calls": (get("kernel.expm_dual", "calls"), "count"),
        "kernel.expm_dual.matrices": (get("kernel.expm_dual", "count"), "count"),
        "kernel.expm_dual.busy_s": (get("kernel.expm_dual", "busy_s"), "s"),
        "kernel.mat_inverse.calls": (get("kernel.mat_inverse", "calls"), "count"),
        "kernel.mat_inverse.busy_s": (get("kernel.mat_inverse", "busy_s"), "s"),
        "charts.exp_chart_batch.rows": (get("charts.exp_chart_batch", "count"), "count"),
        "charts.exp_chart_batch.self_s": (get("charts.exp_chart_batch", "self_s"), "s"),
        "charts.euler_chart_batch.rows": (get("charts.euler_chart_batch", "count"), "count"),
        "charts.euler_chart_batch.busy_s": (get("charts.euler_chart_batch", "busy_s"), "s"),
        "metric.field.points": (get("metric.field", "count"), "count"),
        "metric.field.self_s": (get("metric.field", "self_s"), "s"),
        "metric.metric.calls": (get("metric.metric", "calls"), "count"),
        "metric.metric.self_s": (get("metric.metric", "self_s"), "s"),
        "curvature.riemann_ricci.calls": (get("curvature.riemann_ricci", "calls"), "count"),
        "curvature.riemann_ricci.self_s": (get("curvature.riemann_ricci", "self_s"), "s"),
        "curvature.evals_per_point": (max((e for e, _ in tracer.stencils), default=0), "count"),
        "curvature.distinct_ratio": (
            sum(d for _, d in tracer.stencils) / max(1, sum(e for e, _ in tracer.stencils)), "ratio"),
        "sphere.hyperspherical_batch.rows": (get("sphere.hyperspherical_batch", "count"), "count"),
        "sphere.hyperspherical_batch.busy_s": (get("sphere.hyperspherical_batch", "busy_s"), "s"),
        "scan.sample_safe_points.busy_s": (get("scan.sample_safe_points", "busy_s"), "s"),
        "catalog.parse_group_name.calls": (get("catalog.parse_group_name", "calls"), "count"),
        "catalog.parse_group_name.busy_s": (get("catalog.parse_group_name", "busy_s"), "s"),
    }
    for g in GROUPS:
        times = tally.unit_times.get(g)
        out[f"scan.group.{g}.s"] = (stats.median(times) if times else 0.0, "s")
    return out


def _json_number(v):
    """JSON has no inf or nan; a failed verdict's infinite gap prints as null."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def machine_record(refs) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "probe_ref_ms": {k: v * 1000.0 for k, v in refs.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-ref", required=True,
                    help="reference probe time per workload in ms, as name=ms,name=ms")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    refs = parse_probe_ref(args.probe_ref)
    if args.workload not in refs or not refs[args.workload] > 0:
        ap.error(f"--probe-ref has no positive entry for {args.workload}")
    if not os.path.isfile(os.path.join(SRC, "lieforge", "__init__.py")):
        print(f"lieforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl = WORKLOADS[args.workload]()
    meter = Meter(Probe(wl.probe_mix), refs[args.workload])
    setup_s, setup_raw_s = measure_setup(wl, args.seed, meter)
    oracle_ok = wl.prepare_oracles()

    tally = Tally()
    t_start = time.perf_counter()
    r = 0
    while r < MIN_PASSES or len(tally.latencies) < wl.min_ops or time.perf_counter() - t_start < args.seconds:
        wl.run_pass(r, meter, tally)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lat_ms = [t * 1000.0 for t in tally.latencies]
    checked = [tally]
    if args.trace:
        tracer = Tracer()
        traced = Tally()
        meter.tracer = tracer
        restore = install(tracer)
        try:
            for k in range(wl.trace_passes):
                wl.run_pass(k, meter, traced)
        finally:
            restore()
            meter.tracer = None
        checked.append(traced)
        metrics = per_layer(wl, tally, tracer)
        metrics.update({
            "bench.probe_ms": (stats.median(meter.readings) * 1000.0, "ms"),
            "bench.trace_overhead": (stats.median(traced.pass_times) / stats.median(tally.pass_times), "ratio"),
            "bench.query_count": (len(lat_ms), "count"),
            "wall_raw_s": (stats.median(tally.raw_pass_times), "s"),
            "setup_raw_s": (setup_raw_s, "s"),
            "check.lambda_err_max": (max(t.lambda_err_max for t in checked), "abs"),
            "check.residual_max": (max(t.residual_max for t in checked), "ratio"),
            "check.g_err_max": (max(t.g_err_max for t in checked), "abs"),
            "check.flag_false_fail": (sum(t.flag_false_fail for t in checked), "count"),
        })
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (stats.median(tally.pass_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "query_p50_ms": (stats.median(lat_ms), "ms"),
            "query_p99_ms": (stats.percentile(lat_ms, 99, min_tail=wl.p99_min_tail), "ms"),
        }

    attempted = sum(t.attempted for t in checked)
    failed = sum(t.failed for t in checked)
    diagnostics = {
        "workload": wl.name,
        "seed": args.seed,
        "passes": len(tally.pass_times),
        "queries": len(lat_ms),
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": stats.median(tally.raw_pass_times),
        "probe_ms": stats.median(meter.readings) * 1000.0,
        "probe_spread": stats.spread(meter.readings),
        "pass_spread_raw": stats.spread(tally.raw_pass_times),
        "pass_spread_corrected": stats.spread(tally.pass_times),
        "check.lambda_err_max": max(t.lambda_err_max for t in checked),
        "check.residual_max": max(t.residual_max for t in checked),
        "check.g_err_max": max(t.g_err_max for t in checked),
        "check.flag_false_fail": sum(t.flag_false_fail for t in checked),
        "oracle_tables_ok": oracle_ok,
    }
    diagnostics = {k: _json_number(v) for k, v in diagnostics.items()}
    print(json.dumps({"machine": machine_record(refs), "diagnostics": diagnostics}))
    print(json.dumps({
        "correct": bool(oracle_ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _json_number(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

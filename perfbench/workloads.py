"""The benchmark's three workloads.

All three are closed loops with one caller and no extra threads.  Each one
is split into passes over fixed-size inputs; a pass is made of units, and
every unit is bracketed by the probe (see ``probe.py``).  Every operation
is checked against an oracle from ``oracles.py`` outside its timed region.
An operation fails when it raises or misses its oracle.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracles, stats

GROUPS = ("su2", "su3", "so3", "so4", "so5", "sp1", "sp2")


@dataclass
class Tally:
    """What one run's operations did: latencies, failures and oracle gaps."""

    latencies: list[float] = field(default_factory=list)   # corrected seconds, one per operation
    pass_times: list[float] = field(default_factory=list)  # corrected seconds, one per pass
    raw_pass_times: list[float] = field(default_factory=list)
    unit_times: dict[str, list[float]] = field(default_factory=dict)  # corrected, by unit name
    attempted: int = 0
    failed: int = 0
    lambda_err_max: float = 0.0
    residual_max: float = 0.0
    g_err_max: float = 0.0
    flag_false_fail: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def lambda_gap(self, lam: float, ref: float, tol: float) -> bool:
        """Record the gap to the exact Einstein constant; True when within ``tol``."""
        err = abs(lam - ref)
        if not math.isfinite(err):
            self.lambda_err_max = math.inf
            return False
        self.lambda_err_max = max(self.lambda_err_max, err)
        return err <= tol


def _seeds(seed: int, count: int) -> list[int]:
    return np.random.default_rng(seed).integers(2**31 - 1, size=count).tolist()


def _timed_twice(calls, meter, tally: Tally) -> list[list]:
    """Run ``calls`` in order, twice, inside one probe bracket.

    Returns both results of each call (None where it raised) and records
    each call's lesser time as its latency: a host disturbance seldom hits
    the same call in both runs, while a slow path of the program does.  The
    pass time is the sum of those lesser times.
    """
    results = [[None, None] for _ in calls]
    best = [math.inf] * len(calls)
    token = meter.start()
    for rep in range(2):
        for i, call in enumerate(calls):
            if meter.tracer:
                meter.tracer.op = tally.attempted + rep * len(calls) + i
            t0 = time.perf_counter()
            try:
                results[i][rep] = call()
            except Exception:  # any escape from the program is a failed operation
                pass
            best[i] = min(best[i], time.perf_counter() - t0)
    factor = meter.stop(token)
    tally.latencies.extend(t * factor for t in best)
    tally.pass_times.append(sum(best) * factor)
    tally.raw_pass_times.append(sum(best))
    return results


class ScanClassical:
    """Einstein verdicts for the seven classical groups, one sample per group
    per round, through ``scan.scan_one_group``.  Each group verdict is a unit."""

    name = "scan-classical"
    probe_mix = {"stack": 1, "stream": 1, "dual": 1}
    # A run holds about a hundred verdicts, so its p99 has one verdict beyond
    # it, not ten, and the run goes on until that one exists.
    min_ops = 100
    p99_min_tail = 1
    trace_passes = 1

    def setup(self, seed: int) -> None:
        catalog = sys.modules["lieforge.catalog"]
        scan = sys.modules["lieforge.scan"]
        self.specs = [catalog.parse_group_name(g) for g in GROUPS]
        self.configs = [
            scan.ScanConfig(groups=GROUPS, samples=1, seed=s) for s in _seeds(seed, 256)
        ]

    def prepare_oracles(self) -> bool:
        catalog = sys.modules["lieforge.catalog"]
        self.lambdas = [oracles.killing_lambda(catalog.structure_constants(s).f) for s in self.specs]
        return all(
            abs(lam - oracles.killing_lambda_closed_form(s.family, s.n)) <= 1e-12
            for lam, s in zip(self.lambdas, self.specs)
        )

    def run_pass(self, r: int, meter, tally: Tally) -> None:
        scan = sys.modules["lieforge.scan"]
        cfg = self.configs[r % len(self.configs)]
        total = raw_total = 0.0
        for i, (spec, lam) in enumerate(zip(self.specs, self.lambdas)):
            if meter.tracer:
                meter.tracer.op = tally.attempted
            try:
                row, raw, factor = meter.time(lambda: scan.scan_one_group(spec, cfg, i))
                ok = row.passed and tally.lambda_gap(row.lambda_hat, lam, oracles.LAMBDA_TOL)
                tally.residual_max = max(tally.residual_max, row.max_residual)
            except Exception:  # any escape from the program is a failed operation
                raw, factor, ok = 0.0, 1.0, False
            tally.record(ok)
            tally.latencies.append(raw * factor)
            tally.unit_times.setdefault(spec.name, []).append(raw * factor)
            total += raw * factor
            raw_total += raw
        tally.pass_times.append(total)
        tally.raw_pass_times.append(raw_total)


class SphereLadder:
    """Einstein verdicts on the unit spheres S^2 .. S^7 (N = 3..8), two
    samples each.  One round of the ladder, run twice, is a unit.

    S^7 comes twice per round: with six equally frequent sphere sizes the
    median verdict sits on the gap between the S^4 and S^5 verdict times
    and jumps between them; with seven verdicts it lies inside the S^5 ones.
    """

    name = "sphere-ladder"
    ladder = (3, 4, 5, 6, 7, 8, 8)
    samples = 2
    probe_mix = {"stack": 1, "dual": 1, "interp": 1}
    min_ops = 1000
    p99_min_tail = stats.MIN_TAIL_SAMPLES
    trace_passes = 24

    def setup(self, seed: int) -> None:
        self.seeds = _seeds(seed, 4096)

    def prepare_oracles(self) -> bool:
        self.lambdas = {n: oracles.sphere_lambda(n) for n in self.ladder}
        return True

    def run_pass(self, r: int, meter, tally: Tally) -> None:
        sphere = sys.modules["lieforge.sphere"]
        base = self.seeds[r % len(self.seeds)]
        calls = [
            lambda n=n, k=k: sphere.sphere_einstein_check(n, self.samples, oracles.VERDICT_TOL, base * 16 + k)
            for k, n in enumerate(self.ladder)
        ]
        for n, runs in zip(self.ladder, _timed_twice(calls, meter, tally)):
            lam = self.lambdas[n]
            for v in runs:
                ok = v is not None and tally.lambda_gap(v.lambda_hat, lam, oracles.SPHERE_LAMBDA_TOL * lam)
                if v is not None:
                    tally.residual_max = max(tally.residual_max, v.residual)
                ok = ok and v.residual < oracles.SPHERE_RICCI_TOL
                if ok and not v.passed:
                    tally.flag_false_fail += 1
                tally.record(ok)


class PointQueries:
    """Single-point ``parse_group_name`` + ``metric`` queries, uniformly
    interleaved over the exp chart of all seven groups and the SU(2) Euler
    chart.  A block of 32 queries, four of each kind, run twice, is a unit:
    the host's speed changes within 100 ms, and finer brackets keep the p99
    steadier."""

    name = "point-queries"
    kinds = tuple((g, "exp") for g in GROUPS) + (("su2", "euler"),)
    per_kind = 4
    pool_blocks = 64
    probe_mix = {"interp": 1}
    min_ops = 1000
    p99_min_tail = stats.MIN_TAIL_SAMPLES
    trace_passes = 64

    def setup(self, seed: int) -> None:
        catalog = sys.modules["lieforge.catalog"]
        charts = sys.modules["lieforge.charts"]
        rng = np.random.default_rng(seed)
        domains = {}
        for g, chart in self.kinds:
            spec = catalog.parse_group_name(g)
            domains[g, chart] = (spec, charts.safe_domain(spec, chart))
        self.blocks = []
        for _ in range(self.pool_blocks):
            block = []
            for g, chart in self.kinds:
                spec, dom = domains[g, chart]
                for _ in range(self.per_kind):
                    x = rng.uniform(dom.lo, dom.hi)
                    while not dom.contains(x)[0]:
                        x = rng.uniform(dom.lo, dom.hi)
                    block.append((g, chart, x, spec))
            self.blocks.append([block[i] for i in rng.permutation(len(block))])

    def prepare_oracles(self) -> bool:
        metric = sys.modules["lieforge.metric"]
        self.oracle_g = [
            [
                oracles.exp_chart_metric(spec.generators, x) if chart == "exp"
                else metric.closed_form_metric_su2_euler(*x).g
                for _, chart, x, spec in block
            ]
            for block in self.blocks
        ]
        return True

    def run_pass(self, r: int, meter, tally: Tally) -> None:
        catalog = sys.modules["lieforge.catalog"]
        charts = sys.modules["lieforge.charts"]
        metric = sys.modules["lieforge.metric"]

        def query(name, chart, x):
            spec = catalog.parse_group_name(name)
            return metric.metric(metric.MetricConfig(spec, chart=chart), charts.ChartPoint(chart, x, spec)).g

        b = r % len(self.blocks)
        calls = [lambda q=q: query(*q[:3]) for q in self.blocks[b]]
        for runs, ref in zip(_timed_twice(calls, meter, tally), self.oracle_g[b]):
            for g in runs:
                ok = g is not None and g.shape == ref.shape
                if ok:
                    err = float(np.max(np.abs(g - ref)))
                    ok = err <= oracles.G_TOL
                    tally.g_err_max = max(tally.g_err_max, err) if math.isfinite(err) else math.inf
                tally.record(ok)


WORKLOADS = {w.name: w for w in (ScanClassical, SphereLadder, PointQueries)}

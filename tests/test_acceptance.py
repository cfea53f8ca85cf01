"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its measured numbers."""

import copy
import json
import time

import numpy as np
import pytest

from lieforge import cli
from lieforge.catalog import make_group, structure_constants
from lieforge.charts import ChartPoint, safe_domain
from lieforge.curvature import einstein_check, riemann_ricci
from lieforge.errors import SingularityError
from lieforge.metric import (
    MetricConfig,
    closed_form_metric_su2_euler,
    exp_metric_field,
    metric_field,
    metric,
)
from lieforge.scan import ScanConfig, emit_report, run_scan
from lieforge.sphere import pullback_metric, sphere_metric_field
from oracles import (FrameEvaluation, chart_transition_check, closed_form_metric_su2_exp,
                     closed_form_su2_exp_metric_derivative, euler_chart, exp_chart, expm,
                     isometry_residual, maurer_cartan, metric_jet, su2_log, symplectic_form,
                     with_stencil)

CATALOG = ["su2", "su3", "so3", "so4", "so5", "sp1", "sp2"]


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_metric_reproduction(su2):
    start = time.perf_counter()
    exp_field = exp_metric_field(su2, 2.0)
    euler_field = metric_field(su2, "euler", 2.0)
    rng = np.random.default_rng(100)

    worst = 0.0
    count = 0
    while count < 100:
        theta = rng.uniform(-2.0, 2.0, 3)
        if not 1e-3 < np.linalg.norm(theta) < 2 * np.pi - 0.05:
            continue
        count += 1
        cf = closed_form_metric_su2_exp(theta)
        g = exp_field(theta[None])[0]
        ginv = np.linalg.inv(g)
        worst = max(worst,
                    np.abs(g - cf.g).max() / np.abs(cf.g).max(),
                    np.abs(ginv - cf.g_inv).max() / np.abs(cf.g_inv).max())
    for _ in range(100):
        th = rng.uniform(0.05, np.pi - 0.05)
        ph, ps = rng.uniform(-np.pi, np.pi, 2)
        cf = closed_form_metric_su2_euler(th, ph, ps)
        g = euler_field(np.array([[th, ph, ps]]))[0]
        ginv = np.linalg.inv(g)
        worst = max(worst,
                    np.abs(g - cf.g).max() / np.abs(cf.g).max(),
                    np.abs(ginv - cf.g_inv).max() / np.abs(cf.g_inv).max())
    elapsed = time.perf_counter() - start
    report("criterion 1 (closed-form metric reproduction)",
           worst < 1e-9 and elapsed < 5.0,
           f"max rel err {worst:.3e}, runtime {elapsed:.2f}s")


def test_criterion_2_lambda_quarter(capsys):
    start = time.perf_counter()
    code = cli.main(["einstein", "--group", "su2", "--chart", "exp", "--k", "auto"])
    out = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    ok = (code == 0 and abs(out["lambda_hat"] - 0.25) < 1e-6
          and out["residual"] < 1e-6 and out["samples"] == 20 and elapsed < 10.0)
    with capsys.disabled():
        report("criterion 2 (Lambda = 1/4 for su2)", ok,
               f"lambda {out['lambda_hat']:.9f}, residual {out['residual']:.3e}, "
               f"runtime {elapsed:.2f}s")


def test_criterion_3_chart_invariance(su2):
    exp_field = exp_metric_field(su2, 2.0)
    euler_field = metric_field(su2, "euler", 2.0)
    dom = safe_domain(su2, "exp")
    rng = np.random.default_rng(103)
    worst = 0.0
    matched = 0
    while matched < 20:
        angles = np.array([rng.uniform(0.6, np.pi - 0.6),
                           rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)])
        v = su2_log(euler_chart(*angles).U)
        if not dom.contains(v[None])[0]:
            continue
        dist = chart_transition_check(ChartPoint("exp", v, su2),
                                      ChartPoint("euler", angles, su2))
        assert dist < 1e-10
        matched += 1
        for r in (riemann_ricci(exp_field, v).scalar,
                  riemann_ricci(euler_field, angles).scalar):
            worst = max(worst, abs(r - 1.5))
    report("criterion 3 (scalar curvature R = 1.5 in both charts)",
           worst < 1e-5, f"max |R - 1.5| = {worst:.3e} over 20 matched points")


def test_criterion_4_sphere_section():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(-np.pi, np.pi)
        g = pullback_metric(3, [th, ph]).g
        worst = max(worst, np.abs(g - np.diag([1.0, np.sin(th) ** 2])).max())
    field = sphere_metric_field(3)
    pts = np.stack([rng.uniform(0.4, np.pi - 0.4, 8), rng.uniform(-np.pi, np.pi, 8)], axis=1)
    lams = []
    for h in (1e-3, 5e-4):  # FD pipeline as its own oracle at two step sizes
        v = einstein_check(with_stencil(field, h), pts, 1e-5)  # FD, not the exact jet
        lams.append(v.lambda_hat)
        assert v.passed
    ok = worst < 1e-10 and all(abs(l - 0.5) < 1e-5 for l in lams)
    report("criterion 4 (S^2 pullback metric and Lambda = 0.5)", ok,
           f"metric err {worst:.3e}, lambda at two steps {lams[0]:.8f}/{lams[1]:.8f}")


def test_criterion_5_conjecture_scan():
    start = time.perf_counter()
    rep = run_scan(ScanConfig(groups=tuple(CATALOG), samples=20, tolerance=1e-6, seed=0))
    elapsed = time.perf_counter() - start
    rows = {r.name: r for r in rep.rows}
    ok = rep.passed and elapsed < 300.0
    ok = ok and all(r.verdict.lambda_spread < 1e-5 for r in rep.rows)
    sp1_su2 = abs(rows["sp1"].lambda_hat - rows["su2"].lambda_hat)
    ok = ok and sp1_su2 < 1e-6
    detail = ", ".join(f"{r.name}:{r.lambda_hat:.6f}" for r in rep.rows)
    report("criterion 5 (seven-group conjecture scan)", ok,
           f"{detail}; |sp1-su2| = {sp1_su2:.2e}; runtime {elapsed:.1f}s")


def test_criterion_6_invariant_suites(su2):
    worst_group = 0.0
    worst_mc = 0.0
    worst_jacobi = 0.0
    for name in CATALOG:
        spec = make_group(name[:2], int(name[2:]))
        rng = np.random.default_rng(106)
        # exponentiated generators land in the group
        for x in spec.generators:
            u = expm(x)
            err = np.linalg.norm(u.conj().T @ u - np.eye(spec.matrix_size))
            if spec.family == "SO":
                err = max(err, np.abs(u.imag).max())
            if spec.family == "Sp":
                j = symplectic_form(spec.n)
                err = max(err, np.abs(u.T @ j @ u - j).max())
            worst_group = max(worst_group, err)
        # Maurer-Cartan left-invariance under 20 random global translations
        theta = rng.uniform(-0.4, 0.4, spec.dim)
        frame = exp_chart(spec, theta)
        omega = maurer_cartan(frame)
        for _ in range(20):
            v = expm(np.einsum("a,aij->ij", rng.uniform(-1, 1, spec.dim),
                               spec.generators))
            shifted = FrameEvaluation(U=v @ frame.U, dU=v[None] @ frame.dU)
            worst_mc = max(worst_mc, np.abs(maurer_cartan(shifted) - omega).max())
        f = structure_constants(spec).f
        jac = (np.einsum("abe,ecd->abcd", f, f)
               + np.einsum("bce,ead->abcd", f, f)
               + np.einsum("cae,ebd->abcd", f, f))
        worst_jacobi = max(worst_jacobi, np.abs(jac).max())
    # Euler-chart isometry residuals
    cfg = MetricConfig(group=su2, chart="euler", k="auto")
    point = ChartPoint("euler", [1.0, 0.2, -0.6], su2)
    worst_iso = max(isometry_residual(cfg, point, w, xi)
                    for w in ("phi_shift", "psi_shift")
                    for xi in (0.7, -1.9, 3.1))
    ok = (worst_group < 1e-10 and worst_mc < 1e-10
          and worst_iso < 1e-10 and worst_jacobi < 1e-10)
    report("criterion 6 (invariant suites)", ok,
           f"group err {worst_group:.2e}, MC invariance {worst_mc:.2e}, "
           f"isometry {worst_iso:.2e}, jacobi {worst_jacobi:.2e}")


def test_criterion_7_numerics_hygiene(su2):
    # dual derivatives vs 4th-order finite differences, 100 random frames
    rng = np.random.default_rng(107)
    worst_rel = 0.0
    checked = 0
    while checked < 100:
        theta = rng.uniform(-1.5, 1.5, 3)
        if not 0.1 < np.linalg.norm(theta) < 2 * np.pi - 0.2:
            continue
        checked += 1
        frame = exp_chart(su2, theta)
        h = 1e-4
        for a in range(3):
            e = np.zeros(3)
            e[a] = 1.0

            def u_at(step_scale):
                return exp_chart(su2, theta + step_scale * h * e).U

            d_h = (u_at(-2) - 8 * u_at(-1) + 8 * u_at(1) - u_at(2)) / (12 * h)
            d_h2 = (u_at(-1) - 8 * u_at(-0.5) + 8 * u_at(0.5) - u_at(1)) / (6 * h)
            fd = (16 * d_h2 - d_h) / 15
            rel = np.abs(frame.dU[a] - fd).max() / max(np.abs(fd).max(), 1e-12)
            worst_rel = max(worst_rel, rel)

    # FD step-halving convergence order on the closed-form oracle field
    field = exp_metric_field(su2, 2.0)
    point = np.array([0.9, -0.4, 0.6])
    exact = closed_form_su2_exp_metric_derivative(point)
    errs = [np.abs(metric_jet(field, point, h=h)[1] - exact).max()
            for h in (0.4, 0.2, 0.1)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]

    # degenerate inputs must raise
    raised = 0
    cfg_exp = MetricConfig(group=su2, chart="exp", k="auto")
    cfg_euler = MetricConfig(group=su2, chart="euler", k="auto")
    for cfg, point_c in ((cfg_exp, ChartPoint("exp", [2 * np.pi, 0, 0], su2)),
                         (cfg_euler, ChartPoint("euler", [0.0, 0.4, 0.4], su2))):
        try:
            metric(cfg, point_c)
        except SingularityError:
            raised += 1
    ok = worst_rel < 1e-7 and min(orders) >= 3.0 and raised == 2
    report("criterion 7 (numerics hygiene)", ok,
           f"dual-vs-FD rel {worst_rel:.3e}, FD orders {orders[0]:.2f}/{orders[1]:.2f}, "
           f"degenerate raises {raised}/2")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def run_report(path):
        code = cli.main(["scan", "--groups", "su2,so3", "--samples", "3",
                         "--seed", "5", "--out", str(path)])
        data = json.loads(path.read_bytes())
        masked = copy.deepcopy(data)
        for row in masked["groups"]:
            row["wall_time_ms"] = 0.0
        return code, emit_report(masked, "json")

    code_a, bytes_a = run_report(tmp_path / "a.json")
    code_b, bytes_b = run_report(tmp_path / "b.json")
    deterministic = bytes_a == bytes_b and code_a == code_b == 0

    fail_code = cli.main(["einstein", "--group", "su2", "--samples", "2",
                          "--tol", "1e-20"])
    capsys.readouterr()
    try:
        cli.main(["scan", "--groups", "su2", "--frobnicate"])
        bad_flag_code = 0
    except SystemExit as exc:
        bad_flag_code = exc.code
    ok = deterministic and fail_code == 1 and bad_flag_code == 2
    with capsys.disabled():
        report("criterion 8 (CLI determinism and exit codes)", ok,
               f"byte-identical={bytes_a == bytes_b}, exits pass/fail/badflag = "
               f"0/{fail_code}/{bad_flag_code}")

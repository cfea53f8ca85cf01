import importlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import lieforge.errors
from conftest import fd_derivative, jet_points, phim
from oracles import (FrameEvaluation, chart_view, closed_form_metric_su2_exp,
                     closed_form_su2_exp_metric_derivative, exp_chart, exp_full_jet, expm,
                     isometry_residual, maurer_cartan, metric_jet, with_stencil)
from lie_fields import left_invariant_field
from lieforge.catalog import GRAM_CONSTANT, make_group, parse_group_name
from lieforge.charts import ChartPoint, euler_chart_batch, exp_chart_batch, safe_domain
from lieforge.curvature import riemann_ricci
from lieforge.errors import (InvalidInputError, LieForgeError, NumericRangeError,
                            SingularityError)
from lieforge.kernel import PAULI
from lieforge.metric import (
    JET_PEAK_D3_ARRAYS,
    METRIC_CONDITION_LIMIT,
    MetricConfig,
    _finish,
    _gram,
    closed_form_metric_su2_euler,
    exp_metric_batch,
    exp_metric_field,
    exp_frame_jet,
    metric,
    metric_field,
)
from lieforge.sphere import pullback_metric, sphere_metric_field

CATALOG = [("su", 2), ("su", 3), ("so", 3), ("so", 4), ("so", 5), ("sp", 1), ("sp", 2)]


def cfg_exp(su2):
    return MetricConfig(group=su2, chart="exp", k="auto")


def cfg_euler(su2):
    return MetricConfig(group=su2, chart="euler", k="auto")


class TestMaurerCartan:
    def test_small_theta_limit(self, su2):
        frame = exp_chart(su2, [1e-5, 0, 0])
        omega = maurer_cartan(frame)
        for a in range(3):
            assert np.abs(omega[a] - 0.5j * PAULI[a]).max() < 1e-4

    def test_printed_three_term_form(self, su2):
        # the three-term expansion of U^{-1} dU, coefficients at |theta| = 1
        theta = np.array([1.0, 0.0, 0.0])
        t = np.linalg.norm(theta)
        s, c = np.sin(t / 2), np.cos(t / 2)
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k], eps[j, i, k] = 1.0, -1.0
        sig_theta = sum(th * sig for th, sig in zip(theta, PAULI))
        omega = maurer_cartan(exp_chart(su2, theta))
        for b in range(3):
            dt = theta[b] / t  # d|theta| along direction b
            expected = 1j * sig_theta * (1 / (2 * t) - s * c / t ** 2) * dt \
                + 1j * (s * c / t) * PAULI[b] \
                + 1j * (s * s / t ** 2) * sum(
                    eps[a, b, cc] * theta[a] * PAULI[cc]
                    for a in range(3) for cc in range(3)
                )
            assert np.abs(omega[b] - expected).max() < 1e-10

    def test_antihermitian(self, su2):
        omega = maurer_cartan(exp_chart(su2, [0.7, -0.4, 1.1]))
        assert np.abs(omega + np.swapaxes(omega.conj(), -1, -2)).max() < 1e-9

    @pytest.mark.parametrize("family,n", CATALOG)
    def test_left_invariance(self, family, n):
        spec = make_group(family, n)
        rng = np.random.default_rng(10)
        theta = rng.uniform(-0.4, 0.4, spec.dim)
        frame = exp_chart(spec, theta)
        omega = maurer_cartan(frame)
        v = expm(np.einsum("a,aij->ij", rng.uniform(-1, 1, spec.dim), spec.generators))
        translated = FrameEvaluation(U=v @ frame.U, dU=v[None] @ frame.dU)
        assert np.abs(maurer_cartan(translated) - omega).max() < 1e-10


class TestPipelineMetric:
    def test_axis_point_value(self, su2):
        mt = metric(cfg_exp(su2), ChartPoint("exp", [1.2, 0, 0], su2))
        expected = 4 * np.sin(0.6) ** 2 / 1.44
        assert mt.g[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert mt.g[1, 1] == pytest.approx(expected, abs=1e-12)
        assert mt.g[2, 2] == pytest.approx(expected, abs=1e-12)

    def test_small_theta_is_identity(self, su2):
        mt = metric(cfg_exp(su2), ChartPoint("exp", [1e-5, 2e-5, -1e-5], su2))
        assert np.abs(mt.g - np.eye(3)).max() < 1e-8

    def test_euler_metric_values(self, su2):
        mt = metric(cfg_euler(su2), ChartPoint("euler", [np.pi / 3, 0.4, -0.9], su2))
        expected = np.array([[1, 0, 0], [0, 1, 0.5], [0, 0.5, 1]])
        assert np.abs(mt.g - expected).max() < 1e-12

    def test_point_must_match_config(self, su2):
        point = ChartPoint("euler", [1.0, 0.2, -0.4], su2)
        with pytest.raises(InvalidInputError):
            metric(cfg_exp(su2), point)
        so3 = make_group("so", 3)
        with pytest.raises(InvalidInputError):
            metric(MetricConfig(group=so3), ChartPoint("exp", [0.1, 0.2, 0.3], su2))

    def test_degenerate_exp_point_raises(self, su2):
        with pytest.raises(SingularityError):
            metric(cfg_exp(su2), ChartPoint("exp", [2 * np.pi, 0, 0], su2))

    def test_degenerate_euler_point_raises(self, su2):
        with pytest.raises(SingularityError):
            metric(cfg_euler(su2), ChartPoint("euler", [0.0, 0.3, 0.3], su2))

    @pytest.mark.parametrize("family,n", CATALOG)
    def test_positive_definite_and_identity_at_origin(self, family, n):
        spec = make_group(family, n)
        field = exp_metric_field(spec, 2.0)
        rng = np.random.default_rng(12)
        r = 0.9 * (np.pi / 2) / np.sqrt(spec.dim)
        g = field(rng.uniform(-r, r, (200, spec.dim)))
        assert np.min(np.linalg.eigvalsh(g)) > 0
        g0 = field(np.full((1, spec.dim), 1e-5))[0]
        assert np.abs(g0 - np.eye(spec.dim)).max() < 1e-6

    def test_k_auto_resolves_to_two(self, su2):
        assert cfg_exp(su2).resolve_k() == 2.0
        for family, n in CATALOG:
            assert MetricConfig(group=make_group(family, n)).resolve_k() == 2.0

    def test_reality(self, su2):
        # imaginary parts are asserted small inside the pipeline; a clean run
        # over random points is the observable contract
        field = exp_metric_field(su2, 2.0)
        pts = np.random.default_rng(3).uniform(-1.5, 1.5, (100, 3))
        g = field(pts)
        assert np.isrealobj(g)


def finish_cases():
    """(name, MetricTensor) at safe-domain points of every chart that reaches _finish."""
    rng = np.random.default_rng(40)
    for family, n in CATALOG:
        spec = make_group(family, n)
        dom, cfg = safe_domain(spec, "exp"), MetricConfig(group=spec)
        for theta in rng.uniform(dom.lo, dom.hi, (4, spec.dim)):
            yield spec.name, metric(cfg, ChartPoint("exp", theta, spec))
    su2 = make_group("su", 2)
    dom = safe_domain(su2, "euler")
    for angles in np.vstack([dom.lo, dom.hi, rng.uniform(dom.lo, dom.hi, (6, 3))]):
        yield "su2-euler", metric(cfg_euler(su2), ChartPoint("euler", angles, su2))
    for n_ambient in range(3, 9):
        dom = sphere_metric_field(n_ambient).domain
        for theta in rng.uniform(dom.lo, dom.hi, (4, n_ambient - 1)):
            yield f"s{n_ambient - 1}", pullback_metric(n_ambient, theta)


class TestFinish:
    """Condition number and inverse of a metric from one symmetric eigendecomposition."""

    def test_condition_and_inverse_match_numpy(self):
        names = set()
        for name, mt in finish_cases():
            names.add(name)
            cond = np.linalg.cond(mt.g)
            assert abs(mt.condition - cond) <= 1e-13 * mt.condition * cond
            resid = np.linalg.norm(mt.g @ mt.g_inv - np.eye(len(mt.g)))
            assert resid <= 1e-13 * mt.condition
        assert len(names) == len(CATALOG) + 1 + 6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_metric_is_a_lieforge_error(self, bad):
        g = np.eye(3)
        with pytest.raises(NumericRangeError, match="non-finite"):
            _finish(np.full((3, 3), bad), None)
        g[1, 2] = g[2, 1] = bad
        with pytest.raises(NumericRangeError, match="non-finite"):
            _finish(g, None)

    @pytest.mark.parametrize("g", [np.zeros((3, 3)), np.diag([1.0, 2.0, 0.0]),
                                   np.diag([1.0, -1e-12, 1.0])])
    def test_singular_metric_raises_without_warning(self, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError) as exc:
                _finish(g, None)
        assert exc.value.condition > METRIC_CONDITION_LIMIT


class TestClosedFormOracles:
    def test_inverse_axis_formula(self):
        t = 1.7
        mt = closed_form_metric_su2_exp(np.array([t, 0, 0]))
        val = t * t / (4 * np.sin(t / 2) ** 2)
        assert np.allclose(np.diag(mt.g_inv), [1.0, val, val], atol=1e-12)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            theta = rng.uniform(-1.8, 1.8, 3)
            mt = closed_form_metric_su2_exp(theta)
            assert np.abs(mt.g @ mt.g_inv - np.eye(3)).max() < 1e-12

    def test_pipeline_matches_closed_form_exp(self, su2):
        field = exp_metric_field(su2, 2.0)
        rng = np.random.default_rng(15)
        for _ in range(100):
            theta = rng.uniform(-1.8, 1.8, 3)
            if not 1e-3 < np.linalg.norm(theta) < 2 * np.pi - 0.1:
                continue
            g = field(theta[None])[0]
            assert np.abs(g - closed_form_metric_su2_exp(theta).g).max() < 1e-9

    def test_pipeline_matches_closed_form_euler(self, su2):
        field = metric_field(su2, "euler", 2.0)
        rng = np.random.default_rng(16)
        for _ in range(100):
            th = rng.uniform(0.2, np.pi - 0.2)
            ph, ps = rng.uniform(-np.pi, np.pi, 2)
            g = field(np.array([[th, ph, ps]]))[0]
            assert np.abs(g - closed_form_metric_su2_euler(th, ph, ps).g).max() < 1e-9

    def test_euler_theta_half_pi_is_identity(self):
        assert np.allclose(closed_form_metric_su2_euler(np.pi / 2, 0.1, 0.2).g,
                           np.eye(3), atol=1e-12)

    def test_euler_inverse_values(self):
        mt = closed_form_metric_su2_euler(np.pi / 3, 0.0, 0.0)
        assert mt.g_inv[1, 1] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert mt.g_inv[2, 2] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert mt.g_inv[1, 2] == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_line_element_identity(self):
        # grouped and expanded forms of the printed line element agree
        rng = np.random.default_rng(17)
        for _ in range(30):
            th = rng.uniform(0.1, np.pi - 0.1)
            d_th, d_ph, d_ps = rng.normal(size=3)
            grouped = (np.cos(th) * d_ph + d_ps) ** 2 + d_th ** 2 \
                + np.sin(th) ** 2 * d_ph ** 2
            expanded = d_th ** 2 + d_ps ** 2 + d_ph ** 2 \
                + 2 * np.cos(th) * d_ps * d_ph
            g = closed_form_metric_su2_euler(th, 0.3, -0.2).g
            v = np.array([d_th, d_ph, d_ps])
            assert grouped == pytest.approx(expanded, rel=1e-12, abs=1e-12)
            assert v @ g @ v == pytest.approx(grouped, rel=1e-12, abs=1e-12)

    def test_closed_form_rejects_degenerate(self):
        with pytest.raises(SingularityError):
            closed_form_metric_su2_exp(np.array([2 * np.pi, 0, 0]))
        with pytest.raises(SingularityError):
            closed_form_metric_su2_euler(np.pi, 0.1, 0.1)


class TestEulerGram:
    @pytest.mark.parametrize("k", [1.0, 1e9])
    def test_imaginary_guard_fires_off_anti_hermitian(self, k):
        # a frame that is not anti-Hermitian gives a complex Gram at any k
        u, du = euler_chart_batch(np.array([[1.0, 0.2, -0.4]]))
        omega = np.linalg.inv(u)[:, None, :, :] @ du
        ref = k / 2.0 * closed_form_metric_su2_euler(1.0, 0.2, -0.4).g
        assert np.abs(_gram(omega, k)[0] - ref).max() <= 1e-12 * k
        omega[0, 0, 0, 1] *= np.exp(1j * np.pi / 4)
        with pytest.raises(LieForgeError, match="imaginary parts"):
            _gram(omega, k)


class TestIsometries:
    @pytest.mark.parametrize("which", ["phi_shift", "psi_shift"])
    def test_shift_invariance(self, su2, which):
        point = ChartPoint("euler", [1.0, 0.3, -0.7], su2)
        for xi in (0.0, 0.5, -2.3, np.pi):
            assert isometry_residual(cfg_euler(su2), point, which, xi) < 1e-10

    def test_zero_shift_exact(self, su2):
        point = ChartPoint("euler", [1.2, 0.0, 0.4], su2)
        assert isometry_residual(cfg_euler(su2), point, "phi_shift", 0.0) == 0.0


ORACLE_GROUPS = CATALOG + [("su", 4), ("so", 6), ("sp", 3)]


def frame_metric(spec, pts, k=2.0):
    """g = k Tr(w^dag w) with w = U^{-1} dU from the exp chart's eigh frames."""
    u, du = exp_chart_batch(spec, pts)
    w = np.stack([maurer_cartan(FrameEvaluation(U=ui, dU=dui)) for ui, dui in zip(u, du)])
    return k * np.real(np.einsum("maji,mbji->mab", w.conj(), w))


def frechet_metric(spec, theta, k=2.0):
    """The same metric from scipy's expm_frechet, independent of lieforge's kernel."""
    from scipy.linalg import expm_frechet

    a = np.einsum("a,aij->ij", theta, spec.generators)
    w = np.stack([np.linalg.solve(*expm_frechet(a, x)) for x in spec.generators])
    return k * np.real(np.einsum("aji,bji->ab", w.conj(), w))


def phi_metric(spec, pts, k=2.0):
    """g = k J^T J / 2 with J = phi(M), M_ab = theta^c f_cba: the phi form."""
    j = phim(np.einsum("mc,cba->mab", pts, spec.structure))
    return (k * GRAM_CONSTANT) * (np.swapaxes(j, -1, -2) @ j)


def stencil_rows(spec, points):
    """Every row the curvature stencil asks the exp metric for at ``points``."""
    field = metric_field(spec, "exp", 2.0)
    rows = []

    def record(pts):
        rows.append(pts)
        return field.func(pts)

    for point in points:
        metric_jet(replace(field, func=record), point)
    return np.concatenate(rows)


class TestAdjointMetric:
    """The production exp-chart metric psi(ad^2) against three oracles."""

    @pytest.mark.parametrize("family,n", ORACLE_GROUPS)
    def test_matches_frames_and_frechet(self, family, n):
        spec = make_group(family, n)
        dom = safe_domain(spec, "exp")
        rng = np.random.default_rng(30)
        pts = np.vstack([np.zeros(spec.dim), rng.uniform(dom.lo, dom.hi, (8, spec.dim))])
        g = exp_metric_batch(spec, pts, 2.0)
        assert np.abs(g - frame_metric(spec, pts)).max() <= 1e-13
        for theta, gi in zip(pts[:4], g):
            assert np.abs(gi - frechet_metric(spec, theta)).max() <= 1e-13
        assert np.array_equal(g[0], np.eye(spec.dim))

    @pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("so", 5), ("sp", 2),
                                          ("su", 4), ("sp", 3)])
    def test_matches_phi_form_on_stencils(self, family, n):
        # k psi(ad^2) equals k phi(ad)^T phi(ad) / 2 row by row, origin included
        spec = make_group(family, n)
        dom = safe_domain(spec, "exp")
        rng = np.random.default_rng(33)
        pts = stencil_rows(spec, [np.zeros(spec.dim), rng.uniform(dom.lo, dom.hi, spec.dim)])
        assert len(pts) == 2 * (1 + 4 * spec.dim * spec.dim)
        g = exp_metric_batch(spec, pts, 3.0)
        ref = phi_metric(spec, pts, 3.0)
        err = np.abs(g - ref).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * np.abs(ref).max(axis=(1, 2)))

    def test_su2_near_chart_degeneracy(self, su2):
        rng = np.random.default_rng(31)
        v = rng.normal(size=(12, 3))
        pts = v / np.linalg.norm(v, axis=1)[:, None] * (2 * np.pi - 0.011)
        g = exp_metric_batch(su2, pts, 2.0)
        assert np.abs(g - frame_metric(su2, pts)).max() <= 1e-13
        for theta, gi in zip(pts, g):
            assert np.abs(gi - frechet_metric(su2, theta)).max() <= 1e-13
            assert np.abs(gi - closed_form_metric_su2_exp(theta).g).max() <= 1e-13

    def test_field_and_single_point_agree(self):
        rng = np.random.default_rng(32)
        for spec, chart in ((make_group("so", 5), "exp"), (make_group("su", 2), "euler")):
            dom = safe_domain(spec, chart)
            for theta in rng.uniform(dom.lo, dom.hi, (5, spec.dim)):
                g_field = metric_field(spec, chart, 2.0)(theta)[0]
                g_point = metric(MetricConfig(group=spec, chart=chart),
                                 ChartPoint(chart, theta, spec)).g
                assert np.array_equal(g_field, g_point)

    def test_rejects_wrong_coordinate_count(self, su2):
        with pytest.raises(InvalidInputError):
            exp_metric_batch(su2, np.zeros((2, 4)), 2.0)

    def test_rejects_overflowing_coordinates(self, su2):
        with np.errstate(over="ignore"), pytest.raises(NumericRangeError):  # ad^2 overflows
            exp_metric_batch(su2, np.array([1e300, 0.0, 0.0]), 2.0)

    @pytest.mark.parametrize("name", ["su2", "su3", "berger"])
    def test_stencil_jet_does_not_see_its_batch(self, name):
        # each row's metric comes from its own eigendecomposition (the Berger
        # control: its own phim scaling), so a point's finite-difference jet
        # is the same alone and next to a point at 1% of its norm, or at 100
        # times it
        if name == "berger":
            field = left_invariant_field(parse_group_name("su2"), np.diag([1.0, 1.0, 0.5]))
        else:
            field = with_stencil(metric_field(parse_group_name(name), "exp", 2.0))
        p = np.random.default_rng(37).uniform(field.domain.lo, field.domain.hi, field.dim)
        pair = metric_jet(field, np.stack([p, 0.01 * p]))
        for at, point in enumerate((p, 0.01 * p)):
            for one, both in zip(metric_jet(field, point), pair):
                assert np.array_equal(one, both[at])


class TestExactJet:
    """exp_frame_jet: psi(ad^2) and its contracted derivatives from one
    eigendecomposition; the full-ddg oracle exp_full_jet against differences."""

    @pytest.mark.parametrize("family,n", CATALOG + [("su", 4), ("sp", 3)])
    def test_matches_finite_differences(self, family, n):
        spec = make_group(family, n)
        field = metric_field(spec, "exp", 2.0)
        for p in jet_points(spec):
            for exact, fd, bound in zip(exp_full_jet(spec, p, 2.0), metric_jet(field, p),
                                        (1e-12, 1e-11, 1e-8)):
                assert np.abs(exact - fd).max() <= bound

    @pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("so", 5), ("sp", 2)])
    def test_matches_phi_oracle(self, family, n):
        spec = make_group(family, n)
        for p in jet_points(spec):
            g, dg, ddg = exp_full_jet(spec, p, 3.0)
            assert np.abs(g - phi_metric(spec, p[None], 3.0)[0]).max() <= 1e-14
            assert np.array_equal(g, g.T)
            assert np.array_equal(dg, np.swapaxes(dg, 1, 2))
            assert np.array_equal(ddg, np.swapaxes(ddg, 2, 3))
            assert np.abs(ddg - np.swapaxes(ddg, 0, 1)).max() <= 1e-14
            jet = exp_frame_jet(spec, p, 3.0)
            assert np.array_equal(jet.g[0], g)
            assert np.abs(chart_view(jet)[0][0] - dg).max() <= 1e-14
        oracle = [fd_derivative(lambda x: phi_metric(spec, x[None], 3.0)[0], p, e)
                  for e in range(spec.dim)]
        assert np.abs(dg - np.stack(oracle)).max() <= 1e-10

    def test_slope_matches_su2_closed_form(self, su2):
        rng = np.random.default_rng(36)
        for theta in rng.uniform(-1.5, 1.5, (8, 3)):
            exact = closed_form_su2_exp_metric_derivative(theta)
            assert np.abs(chart_view(exp_frame_jet(su2, theta, 2.0))[0][0] - exact).max() <= 1e-13

    @pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("so", 5), ("sp", 2)])
    def test_batch_matches_per_point(self, family, n):
        # one batched eigh and batched Hankel forms: only round-off moves
        spec = make_group(family, n)
        pts = jet_points(spec)
        jet = exp_frame_jet(spec, pts, 2.0)
        batch = (jet.g, jet.lam) + chart_view(jet)
        for i, p in enumerate(pts):
            one = exp_frame_jet(spec, p, 2.0)
            for b, x in zip(batch, (one.g, one.lam) + chart_view(one)):
                assert b[i].shape == x[0].shape
                assert np.abs(b[i] - x[0]).max() <= 1e-13

    def test_budget_counts_every_array_at_the_peak(self, monkeypatch):
        # a budget of eight su3 d^3 arrays: the jet holds more at once
        su3 = make_group("su", 3)
        monkeypatch.setattr(lieforge.errors, "ALLOC_BUDGET_BYTES", 8 * 8 * su3.dim ** 3)
        with pytest.raises(InvalidInputError, match="allocation budget"):
            exp_frame_jet(su3, np.full(su3.dim, 0.1), 2.0)

    @pytest.mark.parametrize("name,m", [("su4", 1), ("su5", 1), ("sp3", 3)])
    def test_peak_stays_within_the_budgeted_count(self, name, m, monkeypatch):
        # the bytes check_alloc is asked for cover what the jet and the traces
        # read from it really hold
        spec = parse_group_name(name)
        field = metric_field(spec, "exp", 2.0)
        pts = np.full((m, spec.dim), 0.05)
        asked = []
        monkeypatch.setattr(importlib.import_module("lieforge.metric"), "check_alloc",
                            lambda nbytes, _: asked.append(nbytes))
        riemann_ricci(field, pts)
        tracemalloc.start()
        try:
            riemann_ricci(field, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= asked[-1] == 8 * JET_PEAK_D3_ARRAYS * m * spec.dim ** 3

    def test_rejects_wrong_coordinate_count(self, su2):
        with pytest.raises(InvalidInputError):
            exp_frame_jet(su2, np.zeros(4), 2.0)
        with pytest.raises(InvalidInputError):
            exp_frame_jet(su2, np.zeros((5, 4)), 2.0)

    @pytest.mark.parametrize("family,n", CATALOG)
    def test_value_is_the_batch_metric(self, family, n):
        spec = make_group(family, n)
        pts = jet_points(spec)
        assert np.array_equal(exp_frame_jet(spec, pts, 2.0).g, exp_metric_batch(spec, pts, 2.0))

    def test_rejects_spectrum_past_the_series_range(self, su2):
        # |theta| = 6.5 puts an eigenvalue of ad^2 at -42.25 < -(2 pi)^2
        with pytest.raises(NumericRangeError):
            exp_frame_jet(su2, np.array([6.5, 0.0, 0.0]), 2.0)

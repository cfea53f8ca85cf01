import numpy as np
import pytest

from dataclasses import replace

from conftest import fd_derivative
from lie_fields import everywhere, flat_field, s2_field  # local helper module
from lieforge.catalog import parse_group_name
from lieforge.charts import ChartPoint, euler_chart, safe_domain, su2_log
from lieforge.curvature import (
    BASE_STEP,
    christoffel,
    einstein_check,
    metric_jet,
    riemann_ricci,
    sample_safe_points,
)
from lieforge.errors import DomainError, InvalidInputError, LieForgeError, SingularityError
from lieforge.metric import (
    MetricField,
    closed_form_su2_exp_metric_derivative,
    exp_metric_field,
    metric_field,
    resolve_k,
)


@pytest.fixture(scope="module")
def su2_field(su2):
    return exp_metric_field(su2, 2.0)


def safe_su2_points(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = rng.uniform(-1.5, 1.5, 3)
        if 0.3 < np.linalg.norm(p) < 2.3:
            out.append(p)
    return np.array(out)


class TestChristoffel:
    def test_flat_vanishes(self):
        gam = christoffel(flat_field(3), np.array([0.2, -0.1, 0.5]))
        assert np.abs(gam).max() < 1e-12

    def test_s2_component(self):
        gam = christoffel(s2_field(), np.array([0.7, 0.3]))
        assert gam[0, 1, 1] == pytest.approx(-np.sin(0.7) * np.cos(0.7), abs=1e-9)

    def test_lower_index_symmetry(self, su2_field):
        for p in safe_su2_points(50, seed=21):
            gam = christoffel(su2_field, p)
            assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() < 1e-9

    def test_stencil_domain_error(self, su2_field):
        near_edge = np.array([2 * np.pi - 0.0101, 0.0, 0.0])
        with pytest.raises(DomainError):
            christoffel(su2_field, near_edge)


class TestRiemannRicci:
    def test_flat_vanishes(self):
        b = riemann_ricci(flat_field(3), np.array([0.1, 0.2, 0.3]))
        assert np.abs(b.riemann).max() < 1e-8
        assert np.abs(b.ricci).max() < 1e-8
        assert abs(b.scalar) < 1e-8

    def test_su2_is_einstein_pointwise(self, su2_field):
        for p in safe_su2_points(5, seed=22):
            b = riemann_ricci(su2_field, p)
            assert np.abs(b.ricci - 0.5 * b.metric).max() < 1e-6

    def test_su2_scalar_both_charts(self, su2, su2_field):
        euler_field = metric_field(su2, "euler", 2.0)
        rng = np.random.default_rng(23)
        for _ in range(20):
            angles = np.array([rng.uniform(0.5, np.pi - 0.5),
                               rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
            assert riemann_ricci(euler_field, angles).scalar == pytest.approx(1.5, abs=1e-6)
        for p in safe_su2_points(20, seed=24):
            assert riemann_ricci(su2_field, p).scalar == pytest.approx(1.5, abs=1e-6)

    def test_symmetries(self, su2_field):
        b = riemann_ricci(su2_field, np.array([0.9, -0.3, 0.4]))
        assert np.abs(b.ricci - b.ricci.T).max() < 1e-7
        # antisymmetry in the last index pair, relative to the overall scale
        scale = np.abs(b.riemann).max()
        assert np.abs(b.riemann + np.transpose(b.riemann, (0, 1, 3, 2))).max() < 1e-7 * max(scale, 1.0)


    @pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5", "sp2"])
    def test_milnor_at_origin(self, name):
        # bi-invariant metric, g(0) = I: R(X, Y)Z = -[[X, Y], Z] / 4, so
        # R^d_cab = -f_abe f_ecd / 4 (Milnor 1976)
        spec = parse_group_name(name)
        field = exp_metric_field(spec, resolve_k("auto"))
        b = riemann_ricci(field, np.zeros(spec.dim))
        f = spec.structure
        assert np.abs(b.metric - np.eye(spec.dim)).max() < 1e-14
        assert np.abs(b.riemann + 0.25 * np.einsum("abe,ecd->dcab", f, f)).max() < 1e-6

    def test_matches_nested_differences(self):
        # the curvature as nested finite differences: Gamma by FD of g, then
        # d Gamma by FD of Gamma
        spec = parse_group_name("su3")
        field = exp_metric_field(spec, resolve_k("auto"))
        point = np.random.default_rng(31).uniform(-0.3, 0.3, spec.dim)

        def fd(f, x):  # [e, ...] = d_e f
            return np.stack([fd_derivative(f, x, e, h=BASE_STEP) for e in range(len(x))])

        def gamma_at(x):
            dg = fd(lambda y: field(y)[0], x)
            low = 0.5 * (np.einsum("adb->dab", dg) + np.einsum("bda->dab", dg) - dg)
            return np.einsum("cd,dab->cab", np.linalg.inv(field(x)[0]), low)

        gam = gamma_at(point)
        dgam = fd(gamma_at, point)
        riem = (np.transpose(dgam, (1, 3, 0, 2)) - np.transpose(dgam, (1, 3, 2, 0))
                + np.einsum("dae,ebc->dcab", gam, gam) - np.einsum("dbe,eac->dcab", gam, gam))
        b = riemann_ricci(field, point)
        assert np.abs(b.gamma - gam).max() < 1e-12
        assert np.abs(b.riemann - riem).max() < 1e-7


def counting_field(field):
    """field, recording the rows of every call."""
    calls = []

    def func(pts):
        calls.append(np.array(pts))
        return field(pts)

    return replace(field, func=func), calls


class TestSharedStencil:
    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_one_call_of_distinct_rows(self, d):
        field, calls = counting_field(flat_field(d))
        point = np.linspace(-0.3, 0.3, d)
        riemann_ricci(field, point)
        assert len(calls) == 1
        rows = calls[0]
        assert len(rows) == 1 + 6 * d + 8 * d * (d - 1)
        assert len(np.unique(rows, axis=0)) == len(rows)

    @pytest.mark.parametrize("case", ["s2", "conformal"])
    def test_second_derivative_order(self, case):
        # against the exact second derivatives; order >= 3 under step halving
        if case == "s2":
            field = s2_field()
            x, y = 0.7, 0.3
            exact = np.zeros((2, 2, 2, 2))
            exact[0, 0, 1, 1] = 2.0 * np.cos(2.0 * x)
        else:
            def func(pts):
                pts = np.atleast_2d(pts)
                w = 2.0 + np.sin(pts[:, 0]) * np.cos(2.0 * pts[:, 1])
                return w[:, None, None] * np.eye(2)

            field = MetricField(dim=2, func=func, domain=everywhere(2))
            x, y = 0.4, -0.2
            dxx = -np.sin(x) * np.cos(2 * y)
            dxy = -2.0 * np.cos(x) * np.sin(2 * y)
            exact = np.array([[dxx, dxy], [dxy, 4.0 * dxx]])[:, :, None, None] * np.eye(2)
        errs = [np.abs(metric_jet(field, np.array([x, y]), h=h)[2] - exact).max()
                for h in (4e-2, 2e-2, 1e-2)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.0, (errs, orders)

    def test_first_derivatives_match_fd_oracle(self, su2_field):
        point = np.array([0.9, -0.4, 0.6])
        g, dg, _ = metric_jet(su2_field, point)
        assert np.array_equal(g, su2_field(point)[0])
        # same offsets and weights; only the kernel's per-batch scaling may differ
        oracle = [fd_derivative(lambda x: su2_field(x)[0], point, e, h=BASE_STEP)
                  for e in range(3)]
        assert np.abs(dg - np.stack(oracle)).max() < 1e-12


class TestEinsteinCheck:
    def test_su2(self, su2_field):
        v = einstein_check(su2_field, safe_su2_points(20, seed=25), 1e-6)
        assert v.passed
        assert v.lambda_hat == pytest.approx(0.25, abs=1e-6)
        assert v.field_residual < 1e-6

    def test_flat(self):
        pts = np.random.default_rng(26).uniform(-1, 1, (5, 3))
        v = einstein_check(flat_field(3), pts, 1e-6)
        assert v.passed
        assert v.lambda_hat == pytest.approx(0.0, abs=1e-9)
        assert v.residual < 1e-8

    def test_unit_sphere(self):
        pts = np.array([[0.7, 0.1], [1.3, -2.0], [2.2, 1.1]])
        v = einstein_check(s2_field(), pts, 1e-6)
        assert v.passed
        assert v.lambda_hat == pytest.approx(0.5, abs=1e-6)

    def test_contracted_identity(self, su2_field):
        pts = safe_su2_points(5, seed=27)
        v = einstein_check(su2_field, pts, 1e-6)
        d = su2_field.dim
        for p in pts:
            assert riemann_ricci(su2_field, p).scalar == pytest.approx(
                2 * v.lambda_hat * d, abs=1e-5)

    def test_failing_sample_recorded(self, su2_field):
        bad = np.array([[2 * np.pi - 0.0101, 0.0, 0.0]])
        v = einstein_check(su2_field, bad, 1e-6)
        assert not v.passed
        assert v.failure is not None

    def test_empty_points_rejected(self, su2_field):
        with pytest.raises(InvalidInputError):
            einstein_check(su2_field, np.empty((0, 3)), 1e-6)


def stiff_field(eps):
    """The constant metric diag(1, eps): ||g||_1 ||g^-1||_1 = 1 / eps."""
    def func(pts):
        return np.broadcast_to(np.diag([1.0, eps]), (len(pts), 2, 2)).copy()

    return MetricField(dim=2, func=func, domain=everywhere(2), name="stiff")


class TestConditionGuard:
    def test_riemann_ricci_raises_above_limit(self):
        assert np.abs(riemann_ricci(stiff_field(1e-7), np.zeros(2)).ricci).max() < 1e-9
        for eps in (1e-9, 0.0):  # 0.0: exactly singular, no inverse
            with pytest.raises(SingularityError) as exc:
                riemann_ricci(stiff_field(eps), np.zeros(2))
            assert exc.value.condition > 1e8

    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    def test_christoffel_raises_above_limit(self, eps):
        # Gamma needs g^-1 as much as Riemann does, so it takes the same guard
        with pytest.raises(SingularityError) as exc:
            christoffel(stiff_field(eps), np.zeros(2))
        assert exc.value.condition > 1e8

    def test_einstein_check_names_the_sample(self):
        v = einstein_check(stiff_field(1e-9), np.array([[0.5, 0.0], [0.0, 0.0]]), 1e-6)
        assert not v.passed
        assert v.failure.startswith("sample [0.5")  # the first sample fails
        assert "failed: metric condition 1.000e+09 exceeds 1e+08" in v.failure
        assert np.isnan(v.lambda_hat) and v.residual == np.inf and v.samples == 2


class TestSampleSafePoints:
    @pytest.mark.parametrize("name,chart", [("su2", "exp"), ("su2", "euler"), ("so5", "exp")])
    def test_group_box_is_one_uniform_draw(self, name, chart, monkeypatch):
        def boom(*_):
            raise AssertionError("the sampler evaluated the metric")

        spec = parse_group_name(name)
        field = replace(metric_field(spec, chart, 2.0), func=boom)
        monkeypatch.setattr(np.linalg, "cond", boom)
        pts = sample_safe_points(field, 7, np.random.default_rng(5))
        dom = safe_domain(spec, chart)
        expected = np.random.default_rng(5).uniform(dom.lo, dom.hi, (7, spec.dim))
        assert np.array_equal(pts, expected)

    def test_rows_accumulate_across_attempts(self):
        every_other = replace(everywhere(3), contains=lambda x: np.arange(len(x)) % 2 == 0)
        field = replace(flat_field(3), domain=every_other)
        pts = sample_safe_points(field, 5, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        first, second = (rng.uniform(-1.0, 1.0, (5, 3))[::2] for _ in range(2))
        assert np.array_equal(pts, np.concatenate([first, second])[:5])

    def test_gives_up_after_200_attempts(self):
        calls = []

        def nowhere(x):
            calls.append(len(x))
            return np.zeros(len(x), bool)

        field = replace(flat_field(2), domain=replace(everywhere(2), contains=nowhere))
        with pytest.raises(LieForgeError, match="200 attempts"):
            sample_safe_points(field, 3, np.random.default_rng(7))
        assert calls == [3] * 200


def jet_dg_error(field, point):
    """Worst deviation of the jet's dg from the analytic SU(2) exp-chart form."""
    dg = metric_jet(field, point)[1]
    return np.abs(dg - closed_form_su2_exp_metric_derivative(point)).max()


class TestFdCrossCheck:
    def test_interior(self, su2_field):
        assert jet_dg_error(su2_field, np.array([1.0, 0.0, 0.0])) < 1e-7

    def test_near_edge_looser(self, su2_field):
        assert jet_dg_error(su2_field, np.array([2 * np.pi - 0.05, 0.0, 0.0])) < 1e-5

    def test_constant_component(self, su2_field):
        # g_11 along the radial axis is identically 1
        dg = metric_jet(su2_field, np.array([1.3, 0.0, 0.0]))[1]
        assert abs(dg[0, 0, 0]) < 1e-10


def test_step_halving_convergence(su2_field):
    # the production dg against the analytic closed-form derivative; at the
    # steps where the Richardson stencil is still above round-off
    point = np.array([0.9, -0.4, 0.6])
    exact = closed_form_su2_exp_metric_derivative(point)
    errs = [np.abs(metric_jet(su2_field, point, h=h)[1] - exact).max()
            for h in (0.4, 0.2, 0.1)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 3.0, (errs, orders)


def test_chart_invariance_of_scalar(su2, su2_field):
    euler_field = metric_field(su2, "euler", 2.0)
    rng = np.random.default_rng(30)
    checked = 0
    while checked < 10:
        angles = np.array([rng.uniform(0.6, np.pi - 0.6),
                           rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)])
        v = su2_log(euler_chart(*angles).U)
        if not safe_domain(su2, "exp").contains(v[None])[0]:
            continue
        r_exp = riemann_ricci(su2_field, v).scalar
        r_euler = riemann_ricci(euler_field, angles).scalar
        assert r_exp == pytest.approx(r_euler, abs=1e-5)
        checked += 1

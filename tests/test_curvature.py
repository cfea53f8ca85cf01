import math

import numpy as np
import pytest

from conftest import besse_ricci, fd_derivative, phim, riemann_tensor
from lie_fields import everywhere, flat_field, left_invariant_field, s2_field  # local helper module
from oracles import (BASE_STEP, christoffel, closed_form_su2_euler_full_jet,
                     closed_form_su2_exp_metric_derivative, euler_chart, exp_full_jet, metric_jet,
                     sphere_full_jet, stencil_field, su2_log, uniform_sample_points,
                     with_stencil)
from lieforge.catalog import make_group, parse_group_name
from lieforge.charts import EXP_NORM_MAX, safe_domain
from lieforge import curvature, scan
from lieforge.curvature import CHUNK_BYTES, einstein_check, riemann_ricci, sample_safe_points
from lieforge.errors import ALLOC_BUDGET_BYTES, DomainError, InvalidInputError, SingularityError
from lieforge.sphere import sphere_frame_jet, sphere_metric_field
from lieforge.metric import (
    JET_PEAK_D3_ARRAYS,
    K_MAX,
    K_MIN,
    MetricField,
    contract_jet,
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
        # inside the domain, but the finite-difference stencil reaches past it
        near_edge = np.array([2 * np.pi - 0.0101, 0.0, 0.0])
        with pytest.raises(DomainError):
            christoffel(with_stencil(su2_field), near_edge)

    def test_jet_domain_error(self, su2_field):
        christoffel(su2_field, np.array([2 * np.pi - 0.0101, 0.0, 0.0]))
        with pytest.raises(DomainError):
            christoffel(su2_field, np.array([2 * np.pi - 0.0099, 0.0, 0.0]))


class TestRiemannRicci:
    def test_flat_vanishes(self):
        point = np.array([0.1, 0.2, 0.3])
        b = riemann_ricci(flat_field(3), point)
        assert np.abs(riemann_tensor(flat_field(3), point)).max() < 1e-8
        assert np.abs(b.ricci).max() < 1e-8
        assert abs(b.scalar) < 1e-8

    def test_su2_is_einstein_pointwise(self, su2_field):
        for p in safe_su2_points(5, seed=22):
            b = riemann_ricci(su2_field, p)
            assert np.abs(b.ricci - 0.5 * su2_field(p)[0]).max() < 1e-6

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
        point = np.array([0.9, -0.3, 0.4])
        b = riemann_ricci(su2_field, point)
        assert np.abs(b.ricci - b.ricci.T).max() < 1e-7
        # antisymmetry in the last index pair, relative to the overall scale
        riem = riemann_tensor(su2_field, point, lambda p: exp_full_jet(parse_group_name("su2"), p, 2.0))
        scale = np.abs(riem).max()
        assert np.abs(riem + np.transpose(riem, (0, 1, 3, 2))).max() < 1e-7 * max(scale, 1.0)


    @pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5", "sp2"])
    def test_milnor_at_origin(self, name):
        # bi-invariant metric, g(0) = I: R(X, Y)Z = -[[X, Y], Z] / 4, so
        # R^d_cab = -f_abe f_ecd / 4 (Milnor 1976)
        spec = parse_group_name(name)
        field = exp_metric_field(spec, resolve_k("auto"))
        b = riemann_ricci(field, np.zeros(spec.dim))
        f = spec.structure
        assert np.abs(field(np.zeros(spec.dim))[0] - np.eye(spec.dim)).max() < 1e-14
        riem = riemann_tensor(field, np.zeros(spec.dim),
                              lambda p: exp_full_jet(spec, p, resolve_k("auto")))
        assert np.abs(riem + 0.25 * np.einsum("abe,ecd->dcab", f, f)).max() < 1e-6

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
        assert np.abs(christoffel(field, point) - gam).max() < 1e-12
        exact = riemann_tensor(field, point, lambda p: exp_full_jet(spec, p, resolve_k("auto")))
        assert np.abs(exact - riem).max() < 1e-7


def ricci_cases():
    """(field, full jet) pairs: exact jets with their full-ddg oracle, and
    finite-difference (FD) and flat fields, whose oracle is the stencil."""
    cases = {}
    for name in ("su3", "so5", "sp2"):
        spec = parse_group_name(name)
        cases[name] = (exp_metric_field(spec, resolve_k("auto")),
                       lambda p, spec=spec: exp_full_jet(spec, p, resolve_k("auto")))
    cases["s7"] = (sphere_metric_field(8), sphere_full_jet)
    euler = metric_field(parse_group_name("su2"), "euler", 2.0)
    cases["su2-euler"] = (euler, lambda p: tuple(x[0] for x in closed_form_su2_euler_full_jet(p)))
    cases["su2-euler-fd"] = (with_stencil(euler), None)
    cases["berger-fd"] = (left_invariant_field(parse_group_name("su2"), np.diag([1.0, 1.0, 0.5])),
                          None)
    cases["flat"] = (flat_field(3), None)
    return cases


class TestRicciByTraces:
    """riemann_ricci contracts Ricci from traces; the Riemann oracle agrees."""

    @pytest.mark.parametrize("name", list(ricci_cases()))
    def test_matches_riemann_contraction(self, name):
        field, jet = ricci_cases()[name]
        # one point per call, so both sides contract the same jet
        for p in sample_safe_points(field, 3, np.random.default_rng(50)):
            ref = np.einsum("cacb->ab", riemann_tensor(field, p, jet))
            ric = riemann_ricci(field, p).ricci
            assert np.abs(ric - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_single_point_keeps_shapes(self, su2_field):
        b = riemann_ricci(su2_field, np.array([0.4, -0.2, 0.9]))
        assert b.ricci.shape == (3, 3)
        assert isinstance(b.scalar, float)

    def test_leading_axes_match_per_point(self, su2_field):
        pts = safe_su2_points(6, seed=51).reshape(2, 3, 3)
        b = riemann_ricci(su2_field, pts)
        assert b.ricci.shape == (2, 3, 3, 3) and b.scalar.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = riemann_ricci(su2_field, pts[idx])
            assert np.abs(b.ricci[idx] - one.ricci).max() <= 1e-13
            assert b.scalar[idx] == pytest.approx(one.scalar, abs=1e-13)

    def test_batch_names_first_singular_point(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.7, 0.0]])
        with pytest.raises(SingularityError) as exc:
            riemann_ricci(stiff_where(0.25, 1e-9), pts)
        assert np.array_equal(exc.value.point, pts[1])

    def test_batch_names_first_point_outside(self, su2_field):
        pts = np.array([[0.5, 0.0, 0.0], [2 * np.pi - 0.0099, 0.0, 0.0], [7.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match=r"^\[6\.27"):
            riemann_ricci(su2_field, pts)


def counting_field(field):
    """field, recording the rows of every call."""
    calls = []

    def func(pts):
        calls.append(np.array(pts))
        return field(pts)

    return stencil_field(func, field.domain, field.name), calls


def polynomial_derivative(x, k, powers, coef):
    """d^k of sum_m coef_m x^powers_m at one point, k the order per axis."""
    falling = np.array([np.prod([math.perm(n, j) for n, j in zip(row, k)]) for row in powers])
    monomials = falling * np.prod(x ** np.maximum(powers - np.asarray(k), 0), axis=1)
    return np.einsum("m,mab->ab", monomials, coef)


class TestSharedStencil:
    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_one_call_of_distinct_rows(self, d):
        field, calls = counting_field(flat_field(d))
        point = np.linspace(-0.3, 0.3, d)
        riemann_ricci(field, point)
        assert len(calls) == 1
        rows = calls[0]
        assert len(rows) == 1 + 4 * d * d
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

            field = stencil_field(func=func, domain=everywhere(2))
            x, y = 0.4, -0.2
            dxx = -np.sin(x) * np.cos(2 * y)
            dxy = -2.0 * np.cos(x) * np.sin(2 * y)
            exact = np.array([[dxx, dxy], [dxy, 4.0 * dxx]])[:, :, None, None] * np.eye(2)
        errs = [np.abs(metric_jet(field, np.array([x, y]), h=h)[2] - exact).max()
                for h in (4e-2, 2e-2, 1e-2)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.0, (errs, orders)

    def test_exact_on_quartic_polynomials(self):
        # every stencil formula is exact on degree <= 4, so only round-off is left
        d = 4
        rng = np.random.default_rng(40)
        powers = np.array([e for e in np.ndindex(*(5,) * d) if sum(e) <= 4])
        coef = rng.normal(size=(len(powers), d, d))
        coef = coef + np.swapaxes(coef, 1, 2)
        field = stencil_field(
            domain=everywhere(d),
            func=lambda pts: np.stack([polynomial_derivative(x, [0] * d, powers, coef)
                                       for x in pts]) + 10.0 * np.eye(d))
        point = np.array([0.3, -0.2, 0.5, 0.1])
        _, dg, ddg = metric_jet(field, point)
        eye = np.eye(d, dtype=int)
        dg_exact = np.stack([polynomial_derivative(point, eye[e], powers, coef)
                             for e in range(d)])
        ddg_exact = np.stack([[polynomial_derivative(point, eye[e] + eye[f], powers, coef)
                               for f in range(d)] for e in range(d)])
        assert np.abs(dg - dg_exact).max() < 1e-10
        assert np.abs(ddg - ddg_exact).max() < 1e-7

    def test_first_derivatives_match_fd_oracle(self, su2_field):
        point = np.array([0.9, -0.4, 0.6])
        g, dg, _ = metric_jet(su2_field, point)
        assert np.array_equal(g, su2_field(point)[0])
        # the plain 4th-order central difference: the production axis line's
        # offsets and weights, one point per field call; the field evaluates
        # each row from its own eigendecomposition, so the batch does not enter
        oracle = [fd_derivative(lambda x: su2_field(x)[0], point, e, h=BASE_STEP,
                                richardson=False) for e in range(3)]
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
        v = einstein_check(with_stencil(su2_field), bad, 1e-6)
        assert not v.passed
        assert v.failure is not None

    def test_empty_points_rejected(self, su2_field):
        with pytest.raises(InvalidInputError):
            einstein_check(su2_field, np.empty((0, 3)), 1e-6)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_tolerance_must_be_positive_and_finite(self, su2_field, tol):
        with pytest.raises(InvalidInputError, match="tolerance must be positive and finite"):
            einstein_check(su2_field, safe_su2_points(2, seed=27), tol)

    def test_field_residual_fails_where_lambda_steps(self):
        # S^7's jet with g scaled by 1 + 1e-7 where t1 > pi/2: Ricci and hess
        # are scale-free, so Ric = 2 Lambda g holds at every sample with two
        # values of Lambda.  Ric - (R / 2 - Lambda (d - 2)) g is (d - 2) / 2
        # times Ric - 2 Lambda g there, so the field residual fails first
        def jet(pts):
            j, s = sphere_frame_jet(pts), np.where(pts[:, 0] > np.pi / 2, 1 + 1e-7, 1.0)
            return j._replace(lam=j.lam * s[:, None], dg=j.dg * s[:, None, None, None])

        field = sphere_metric_field(8)._replace(jet=jet)
        v = einstein_check(field, sample_safe_points(field, 20, np.random.default_rng(0)), 1e-6)
        assert v.residual < 1e-6 <= v.field_residual
        assert v.field_residual == pytest.approx(2.5 * v.residual, rel=1e-6)
        assert not v.passed and v.failure.startswith("field residual")


class TestMetricConstantRange:
    """Ricci does not depend on k and Lambda scales as 1 / k: both hold to
    round-off across [K_MIN, K_MAX], and k outside it is an input error."""

    @pytest.mark.parametrize("name,chart", [("su2", "exp"), ("su3", "exp"), ("so5", "exp"),
                                            ("sp2", "exp"), ("su2", "euler")])
    @pytest.mark.parametrize("k", [K_MIN, K_MAX])
    def test_ricci_and_lambda_k_at_the_ends(self, name, chart, k):
        spec = parse_group_name(name)
        ref = metric_field(spec, chart, 2.0)
        pts = sample_safe_points(ref, 3, np.random.default_rng(61))
        field = metric_field(spec, chart, resolve_k(k))
        want, got = riemann_ricci(ref, pts), riemann_ricci(field, pts)
        for a, b in zip(got.ricci, want.ricci):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        assert got.scalar * k == pytest.approx(want.scalar * 2.0, rel=1e-12)
        lam_k = einstein_check(field, pts, 1.0).lambda_hat * k
        assert lam_k == pytest.approx(2.0 * einstein_check(ref, pts, 1.0).lambda_hat, rel=1e-12)

    @pytest.mark.parametrize("k", [K_MIN / 2, K_MAX * 2, 1e-160, 1e200, 1e308, "1e-300"])
    def test_outside_the_range_is_rejected(self, k):
        with pytest.raises(InvalidInputError, match=r"1e-100, 1e\+100"):
            resolve_k(k)

    def test_the_ends_are_accepted(self):
        assert resolve_k(K_MIN) == K_MIN and resolve_k(str(K_MAX)) == K_MAX


class TestBatchedVerdict:
    @pytest.mark.parametrize("name", ["su2", "so5", "s7"])
    def test_lambda_is_per_sample_mean(self, name):
        field = sphere_metric_field(8) if name == "s7" else exp_metric_field(parse_group_name(name))
        pts = sample_safe_points(field, 20, np.random.default_rng(52))
        v = einstein_check(field, pts, 1e-6)
        lambdas = [riemann_ricci(field, p).scalar / (2 * field.dim) for p in pts]
        assert v.passed
        assert v.lambda_hat == pytest.approx(np.mean(lambdas), abs=1e-13)
        assert v.lambda_spread == pytest.approx(np.ptp(lambdas), abs=1e-13)

    def test_fd_jet_is_bitwise_per_point(self, su2):
        # the stencil rows of every point go through one field call
        for field in (metric_field(su2, "euler", 2.0), s2_field(),
                      with_stencil(sphere_metric_field(6))):
            pts = sample_safe_points(field, 4, np.random.default_rng(53))
            batch = metric_jet(field, pts)
            for i, p in enumerate(pts):
                for b, one in zip(batch, metric_jet(field, p)):
                    assert np.array_equal(b[i], one)

    def test_chunks_respect_the_budget(self):
        spec = parse_group_name("su4")
        field = exp_metric_field(spec)
        sizes = []

        def recording(pts):
            sizes.append(len(pts))
            return field.jet(pts)

        v = einstein_check(field._replace(jet=recording),
                           sample_safe_points(field, 20, np.random.default_rng(54)), 1e-6)
        assert v.passed and sum(sizes) == 20
        assert max(sizes) == 1 or max(sizes) * 8 * spec.dim ** 3 <= CHUNK_BYTES

    def test_a_nested_batch_is_chunked_as_its_points(self):
        # (2, 20, 10) so5 points are 40 points, sent in chunks of 16 at d = 10, not as one of 40
        field = exp_metric_field(parse_group_name("so5"))
        sizes = []
        recording = field._replace(jet=lambda p: sizes.append(len(p)) or field.jet(p))
        pts = sample_safe_points(field, 40, np.random.default_rng(56)).reshape(2, 20, 10)
        assert einstein_check(recording, pts, 1e-6).passed
        assert sizes == [16, 16, 8]

    def test_chunked_verdict_matches_one_call(self, monkeypatch):
        field = exp_metric_field(parse_group_name("su2"))
        pts = sample_safe_points(field, 20, np.random.default_rng(55))
        whole = einstein_check(field, pts, 1e-6)
        sizes = []
        monkeypatch.setattr(curvature, "CHUNK_BYTES", 3 * 8 * 3 ** 3)
        recording = field._replace(jet=lambda p: sizes.append(len(p)) or field.jet(p))
        split = einstein_check(recording, pts, 1e-6)
        assert sizes == [3] * 6 + [2]
        assert split.lambda_hat == pytest.approx(whole.lambda_hat, abs=1e-13)
        assert split.residual <= 1e-12 and split.passed

    @pytest.mark.parametrize("case", ["jet-domain", "stencil-domain", "singular",
                                      "singular-before-outside"])
    def test_failure_names_the_second_sample(self, su2_field, case):
        if case.startswith("singular"):
            field, bad = stiff_where(0.25, 1e-9), np.array([0.5, 0.0])
            good, message = np.zeros(2), "failed: metric condition 1.000e+09 exceeds 1e+08"
        else:
            field = su2_field if case == "jet-domain" else with_stencil(su2_field)
            good = np.array([0.5, 0.0, 0.0])
            bad = np.array([2 * np.pi - (0.0099 if case == "jet-domain" else 0.0101), 0.0, 0.0])
            message = ("is outside the safe domain" if case == "jet-domain"
                       else "stencil leaves the safe domain")
        pts = [good, bad, good]
        if case == "singular-before-outside":
            # a third sample leaves the domain: the samples are still named in order
            field = field._replace(domain=everywhere(2)._replace(
                contains=lambda x: np.atleast_2d(x)[:, 0] < 1.0))
            pts = [good, bad, np.array([2.0, 0.0]), good]
        v = einstein_check(field, np.array(pts), 1e-6)
        assert not v.passed
        assert v.failure.startswith(f"sample {bad} failed: ")
        assert message in v.failure


def counting_contains(field):
    """``field`` with a domain whose ``contains`` records each call's row count."""
    calls, dom = [], field.domain
    return field._replace(domain=dom._replace(
        contains=lambda pts: calls.append(len(pts)) or dom.contains(pts))), calls


@pytest.mark.parametrize("make", [
    lambda: metric_field(parse_group_name("so5"), "exp", 2.0),
    lambda: metric_field(parse_group_name("su2"), "euler", 2.0),
    lambda: sphere_metric_field(6),
], ids=["so5-exp", "su2-euler", "S5"])
def test_the_domain_is_tested_once_on_caller_points_only(make):
    # a verdict's draws come from a box inside the domain, so the verdict tests
    # none of them; einstein_check and riemann_ricci test their points once
    field, calls = counting_contains(make())
    v = scan.verdict(field, 3, 1e-6, 7)
    assert v.passed and calls == []
    pts = sample_safe_points(field, 3, np.random.default_rng(7))
    assert einstein_check(field, pts, 1e-6) == v and calls == [3]
    riemann_ricci(field, pts)
    assert calls == [3, 3]


class TestNonEinsteinControl:
    """The left-invariant Berger metric Q = diag(1, 1, 1/2) on su2 is not Einstein."""

    def test_identity_q_is_the_bi_invariant_metric(self, su2, su2_field):
        pts = np.vstack([np.zeros(3), sample_safe_points(su2_field, 8, np.random.default_rng(41))])
        g = left_invariant_field(su2, np.eye(3))(pts)
        assert np.abs(g - su2_field(pts)).max() < 1e-13

    def test_berger_ricci_at_origin(self, su2):
        # Milnor 1976: Ric = diag(3/4, 3/4, 1/8) in the orthonormal frame of Q
        ric = riemann_ricci(left_invariant_field(su2, np.diag([1.0, 1.0, 0.5])), np.zeros(3)).ricci
        assert np.abs(ric - np.diag([0.75, 0.75, 0.125])).max() < 1e-6

    def test_berger_verdict_fails_on_residual(self, su2):
        field = left_invariant_field(su2, np.diag([1.0, 1.0, 0.5]))
        v = einstein_check(field, sample_safe_points(field, 5, np.random.default_rng(42)), 1e-6)
        assert not v.passed
        assert v.failure.startswith("residual")
        assert v.residual > 0.1
        # a left-invariant metric has constant scalar curvature, here R = 7/4
        assert v.lambda_hat == pytest.approx(7.0 / 24.0, abs=1e-6)



def jensen_q():
    """Jensen's Einstein metric on su3: 1/11 on so(3) (catalog indices 1, 3, 5), 1 elsewhere."""
    q = np.ones(8)
    q[[1, 3, 5]] = 1.0 / 11.0
    return np.diag(q)


def random_q(d):
    a = np.random.default_rng(7).normal(size=(d, d))
    return a @ a.T / d + np.eye(d)


class TestBesseRicci:
    """Left-invariant metrics against Besse's closed-form Ricci (``conftest.besse_ricci``)."""

    def test_milnor_berger_ricci(self, su2):
        ric = besse_ricci(su2, np.diag([1.0, 1.0, 0.5]))
        assert np.abs(ric - np.diag([0.75, 0.75, 0.125])).max() <= 1e-15

    def test_jensen_metric_is_einstein(self):
        q = jensen_q()
        assert np.abs(besse_ricci(parse_group_name("su3"), q) - 63.0 / 44.0 * q).max() <= 1e-14

    @pytest.mark.parametrize("name", ["su2", "su3"])
    def test_pipeline_ricci_matches(self, name):
        # the chart frame d_a = J_ea X_e at theta, J = phi(M), carries the
        # algebra's Ricci to chart coordinates: Ric = J^T Ric_X J
        spec = parse_group_name(name)
        q = random_q(spec.dim)
        field, want = left_invariant_field(spec, q), besse_ricci(spec, q)
        pts = np.vstack([np.zeros(spec.dim),
                         sample_safe_points(field, 3, np.random.default_rng(1))])
        for p in pts:
            j = phim(np.einsum("c,cbe->eb", p, spec.structure))
            got = riemann_ricci(field, p).ricci
            assert np.abs(got - j.T @ want @ j).max() <= 1e-8 * np.abs(want).max()

    def test_jensen_verdict_passes(self):
        field = left_invariant_field(parse_group_name("su3"), jensen_q())
        v = einstein_check(field, sample_safe_points(field, 5, np.random.default_rng(0)), 1e-6)
        assert v.passed
        assert v.lambda_hat == pytest.approx(63.0 / 88.0, abs=1e-8)

    def test_random_q_verdict_fails_on_residual(self):
        field = left_invariant_field(parse_group_name("su3"), random_q(8))
        v = einstein_check(field, sample_safe_points(field, 5, np.random.default_rng(0)), 1e-6)
        assert not v.passed
        assert v.failure.startswith("residual")

def stiff_field(eps):
    """The constant metric diag(1, eps): ||g||_1 ||g^-1||_1 = 1 / eps."""
    def func(pts):
        return np.broadcast_to(np.diag([1.0, eps]), (len(pts), 2, 2)).copy()

    return stencil_field(func=func, domain=everywhere(2), name="stiff")


def stiff_where(x0, eps):
    """diag(1, eps) where the first coordinate exceeds x0, the identity elsewhere."""
    def func(pts):
        g = np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()
        g[:, 1, 1] = np.where(pts[:, 0] > x0, eps, 1.0)
        return g

    return stencil_field(func=func, domain=everywhere(2), name="stiff-where")


def constant_field(g):
    """The constant metric g on R^d: its exact jet, dg = ddg = 0, through ``contract_jet``."""
    d = len(g)

    def func(pts):
        return np.broadcast_to(g, (len(pts), d, d)).copy()

    def jet(pts):
        m = len(pts)
        return contract_jet(func(pts), np.zeros((m, d, d, d)), np.zeros((m, d, d, d, d)))

    return MetricField(func=func, domain=everywhere(d), jet=jet, name="constant")


def one_norm_condition(g):
    """||g||_1 ||g^-1||_1, an upper bound on the 2-norm condition of g."""
    return np.linalg.norm(g, 1) * np.linalg.norm(np.linalg.inv(g), 1)


class TestConditionGuard:
    """The guard reads only the jet's lam: max lam / min lam, +inf where min lam <= 0."""

    def test_indefinite_metric_is_singular(self):
        # diag(1, -1): ||g||_1 ||g^-1||_1 = 1, but lam = (-1, 1) has no condition
        g = np.diag([1.0, -1.0])
        assert one_norm_condition(g) == 1.0
        with pytest.raises(SingularityError, match="metric condition inf exceeds 1e[+]08") as exc:
            riemann_ricci(constant_field(g), np.zeros(2))
        assert exc.value.condition == np.inf
        assert np.array_equal(exc.value.point, np.zeros(2))

    def test_non_diagonal_metric_is_judged_by_its_eigenvalues(self):
        # lam = (1, 1, 1, 1.25e-8) in a Hadamard frame: max lam / min lam = 8e7
        # passes, where the 1-norm product, 1.2e8, would fail
        q = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        g = (q * [1.0, 1.0, 1.0, 1.25e-8]) @ q.T
        assert one_norm_condition(g) > 1e8
        assert np.linalg.cond(g) == pytest.approx(8e7, rel=1e-6)
        b = riemann_ricci(constant_field(g), np.zeros(4))
        assert np.abs(b.ricci).max() == 0.0 and b.scalar == 0.0

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
        assert np.isnan(v.lambda_hat) and v.residual == np.inf


class TestSampleSafePoints:
    @pytest.mark.parametrize("name,chart", [("su2", "exp"), ("su2", "euler"), ("so5", "exp")])
    def test_group_box_is_one_uniform_draw(self, name, chart, monkeypatch):
        def boom(*_):
            raise AssertionError("the sampler evaluated the metric")

        spec = parse_group_name(name)
        field = metric_field(spec, chart, 2.0)._replace(func=boom)
        monkeypatch.setattr(np.linalg, "cond", boom)
        pts = sample_safe_points(field, 7, np.random.default_rng(5))
        dom = safe_domain(spec, chart)
        expected = np.random.default_rng(5).uniform(dom.lo, dom.hi, (7, spec.dim))
        assert np.array_equal(pts, expected)

    @pytest.mark.parametrize("count", [1, 20])
    @pytest.mark.parametrize("make", [
        *(lambda name=name: metric_field(parse_group_name(name), "exp", 2.0)
          for name in ("su2", "su3", "so5", "sp2")),
        lambda: metric_field(parse_group_name("su2"), "euler", 2.0),
        lambda: sphere_metric_field(3), lambda: sphere_metric_field(8),
    ], ids=["su2-exp", "su3-exp", "so5-exp", "sp2-exp", "su2-euler", "S2", "S7"])
    def test_draw_is_bitwise_the_uniform_sampler(self, make, count):
        field = make()
        for seed in range(5):
            pts = sample_safe_points(field, count, np.random.default_rng(seed))
            expected = uniform_sample_points(field, count, np.random.default_rng(seed))
            assert pts.shape == expected.shape and np.array_equal(pts, expected)

    def test_every_box_lies_inside_its_domain(self):
        # the one draw keeps every row, so each production box must lie in
        # the region its contains accepts: the exp chart of every group whose
        # one-sample jet fits the allocation budget, the Euler chart, S^1..S^199
        domains = [safe_domain(parse_group_name("su2"), "euler")]
        for family, n in (("su", 2), ("so", 3), ("sp", 1)):
            while 8 * JET_PEAK_D3_ARRAYS * make_group(family, n).dim ** 3 <= ALLOC_BUDGET_BYTES:
                domains.append(safe_domain(make_group(family, n), "exp"))
                n += 1
        assert len(domains) == 1 + 13 + 18 + 9  # su2..su14, so3..so20, sp1..sp9
        domains += [sphere_metric_field(n).domain for n in range(2, 201)]
        for i, dom in enumerate(domains):
            draws = np.random.default_rng(i).uniform(dom.lo, dom.hi, (1000, len(dom.lo)))
            assert np.asarray(dom.contains(np.vstack([dom.lo, dom.hi, draws])), bool).all()

    @pytest.mark.parametrize("name", ["su2", "su3", "so5"])
    def test_exp_contains_is_the_norm_test(self, name):
        assert EXP_NORM_MAX == 2.0 * np.pi - 1e-2  # su2's boundary cases here and in CI
        spec = parse_group_name(name)
        contains, d = safe_domain(spec, "exp").contains, spec.dim
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(200, d))
        rows *= (EXP_NORM_MAX / np.linalg.norm(rows, axis=1))[:, None]  # on the boundary
        axis = np.zeros((3, d))
        axis[:, 0] = [np.nextafter(EXP_NORM_MAX, 0.0), EXP_NORM_MAX,
                      np.nextafter(EXP_NORM_MAX, np.inf)]
        pts = np.concatenate([rows, np.nextafter(rows, 0.0), np.nextafter(rows, 2 * rows),
                              axis, rng.uniform(-2.0, 2.0, (50, d))])
        got, expected = contains(pts), np.linalg.norm(pts, axis=1) < EXP_NORM_MAX
        assert got.dtype == bool and np.array_equal(got, expected)
        assert 0 < expected[:200].sum() < 200 and expected[-53] and not expected[-52:-50].any()


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
    # steps where the 4th-order line stencil's error is still above round-off
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

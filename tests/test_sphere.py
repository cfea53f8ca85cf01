import numpy as np
import pytest

from lieforge import scan, sphere
from oracles import (hyperspherical_embedding, indexed_sphere_frame_jet, metric_jet,
                     sphere_full_jet, with_stencil)
from lieforge.curvature import einstein_check, sample_safe_points
from lieforge.errors import InvalidInputError, SingularityError
from lieforge.metric import closed_form_metric_su2_euler
from lieforge.sphere import (
    hyperspherical_batch,
    pullback_metric,
    sphere_einstein_check,
    sphere_metric_field,
    sphere_frame_jet,
)


def test_printed_s2_frame():
    x, b = hyperspherical_embedding(3, [np.pi / 2, 0.0])
    assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(b[:, 0], [0.0, 0.0, -1.0], atol=1e-14)
    assert np.allclose(b[:, 1], [0.0, 1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("n", range(2, 13))
def test_unit_radius_and_tangency(n):
    # the embedding is the value's oracle: its Gram B^T B is the closed form
    rng = np.random.default_rng(n)
    for _ in range(20):
        theta = np.concatenate([
            rng.uniform(0.2, np.pi - 0.2, max(n - 2, 0)),
            rng.uniform(-np.pi, np.pi, 1 if n >= 2 else 0),
        ])[: n - 1]
        x, b = hyperspherical_embedding(n, theta)
        assert abs(np.sum(x * x) - 1.0) < 1e-12
        assert np.abs(x @ b).max() < 1e-10
        assert np.abs(b.T @ b - sphere_metric_field(n)(theta)[0]).max() <= 1e-14


def test_n2_matches_n3_slice():
    t = 0.85
    x2, _ = hyperspherical_embedding(2, [t])
    assert np.allclose(x2, [np.sin(t), np.cos(t)], atol=1e-14)
    x3, _ = hyperspherical_embedding(3, [t, 0.0])
    assert np.allclose(x3, [np.sin(t), 0.0, np.cos(t)], atol=1e-14)


def test_s2_metric_is_printed_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(-np.pi, np.pi)
        g = pullback_metric(3, [th, ph]).g
        assert np.abs(g - np.diag([1.0, np.sin(th) ** 2])).max() < 1e-12


def test_point_query_reads_its_own_frame(monkeypatch):
    # g = diag(lam) is its own eigenframe: no eigh, condition max lam / min lam
    def no_eigh(*args):
        raise AssertionError("pullback_metric called eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for n, theta in [(2, [1.1]), (3, [0.7, 0.2]), (9, np.linspace(0.4, 1.1, 8))]:
        mt = pullback_metric(n, theta)
        lam = np.concatenate([[1.0], np.cumprod(np.sin(theta[:-1]) ** 2)])
        assert np.abs(mt.g - np.diag(lam)).max() <= 1e-15
        assert mt.condition == mt.g.diagonal().max() / mt.g.diagonal().min()
        assert np.array_equal(mt.g_inv, np.diag(1.0 / mt.g.diagonal()))


@pytest.mark.parametrize("theta", [[[0.0, 1.0, 1.0]], [[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]],
                         ids=["pole-row", "two-rows"])
def test_point_query_takes_one_point(theta):
    # a batch of rows is an input error naming its shape, before any pole check
    shape = np.shape(theta)
    with pytest.raises(InvalidInputError) as exc:
        pullback_metric(4, theta)
    assert str(exc.value) == f"s3-pullback takes points of 3 coordinates, got shape {shape}"


def test_point_query_checks_its_point_before_the_value(monkeypatch):
    # a batch of 1000 rows is refused before the field forms a single metric
    field, calls = sphere_metric_field(4), []
    counting = field._replace(func=lambda pts: calls.append(len(pts)) or field.func(pts))
    monkeypatch.setattr(sphere, "sphere_metric_field", lambda n: counting)
    with pytest.raises(InvalidInputError, match=r"got shape \(1000, 3\)"):
        pullback_metric(4, np.ones((1000, 3)))
    assert calls == []
    pullback_metric(4, [1.0, 1.0, 1.0])
    assert calls == [1]


@pytest.mark.parametrize("n", [1, 0, -3])
def test_ambient_dimension_is_checked_before_any_field(n):
    # the field is never built, so no entry can read a width off it first
    for call in (lambda: sphere_metric_field(n), lambda: pullback_metric(n, [1.0, 2.0]),
                 lambda: hyperspherical_batch(n, [1.0])):
        with pytest.raises(InvalidInputError) as exc:
            call()
        assert str(exc.value) == "sphere embedding needs ambient dimension >= 2"


def test_circle_is_arc_length():
    g = pullback_metric(2, [1.1]).g
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_s3_metric_matches_fd_gram():
    # finite-difference Jacobian oracle for N = 4
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(10):
        theta = np.array([rng.uniform(0.3, np.pi - 0.3),
                          rng.uniform(0.3, np.pi - 0.3),
                          rng.uniform(-np.pi, np.pi)])
        b_fd = np.empty((4, 3))
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            xp, _ = hyperspherical_embedding(4, theta + e)
            xm, _ = hyperspherical_embedding(4, theta - e)
            b_fd[:, a] = (xp - xm) / (2 * h)
        g = pullback_metric(4, theta).g
        assert np.abs(g - b_fd.T @ b_fd).max() < 1e-9


def test_pole_raises():
    with pytest.raises(SingularityError):
        hyperspherical_embedding(3, [0.0, 0.3])
    with pytest.raises(SingularityError):
        hyperspherical_embedding(4, [0.5, np.pi, 0.3])


def test_bad_coordinate_count():
    with pytest.raises(InvalidInputError):
        hyperspherical_embedding(4, [0.5, 0.5])


def test_azimuthal_shift_isometry():
    field = sphere_metric_field(4)
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = np.array([rng.uniform(0.4, np.pi - 0.4),
                      rng.uniform(0.4, np.pi - 0.4),
                      rng.uniform(-np.pi, np.pi)])
        shifted = p + np.array([0.0, 0.0, rng.uniform(-2, 2)])
        g0, g1 = field(p[None])[0], field(shifted[None])[0]
        assert np.abs(g0 - g1).max() < 1e-12


def test_s2_line_element_is_euler_subform():
    # the (dtheta)^2 + sin^2 theta (dphi)^2 piece of the grouped SU(2) line
    # element, with the dpsi channel switched off
    rng = np.random.default_rng(8)
    for _ in range(20):
        th, ph = rng.uniform(0.2, np.pi - 0.2), rng.uniform(-np.pi, np.pi)
        d_th, d_ph = rng.normal(size=2)
        g_sphere = pullback_metric(3, [th, ph]).g
        v2 = np.array([d_th, d_ph])
        g_euler = closed_form_metric_su2_euler(th, 0.4, -0.1).g
        v3 = np.array([d_th, d_ph, 0.0])
        grouped_first_term = (np.cos(th) * d_ph) ** 2
        assert v2 @ g_sphere @ v2 == pytest.approx(
            v3 @ g_euler @ v3 - grouped_first_term, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n,expected", [(3, 0.5), (4, 1.0)])
def test_sphere_einstein(n, expected):
    v = sphere_einstein_check(n, samples=6, tol=1e-5)
    assert v.passed
    assert v.lambda_hat == pytest.approx(expected, abs=1e-5)


@pytest.mark.parametrize("n", range(3, 14))
def test_exact_jet_matches_pullback_and_fd(n):
    # the full-ddg oracle against the pullback and the stencil; the frame
    # jet's lam is the oracle's diagonal g
    field = sphere_metric_field(n)
    for p in sample_safe_points(field, 4, np.random.default_rng(n)):
        g, dg, ddg = sphere_full_jet(p)
        assert np.abs(g - field(p)[0]).max() <= 1e-14
        assert np.array_equal(np.diag(sphere_frame_jet(p).lam[0]), g)
        for exact, fd, bound in zip((g, dg, ddg), metric_jet(field, p), (1e-12, 1e-11, 1e-8)):
            assert np.abs(exact - fd).max() <= bound


@pytest.mark.parametrize("n", [3, 8, 14])
def test_exact_jet_batch_matches_per_point(n):
    field = sphere_metric_field(n)
    pts = sample_safe_points(field, 6, np.random.default_rng(n))
    jets = sphere_frame_jet(pts)
    for i, p in enumerate(pts):
        for b, one in zip(jets, sphere_frame_jet(p)):
            assert b[i].shape == one[0].shape
            assert np.abs(b[i] - one[0]).max() <= 1e-13


@pytest.mark.parametrize("m", [1, 20])
@pytest.mark.parametrize("n", range(3, 15))
def test_jet_through_views_matches_indexed_oracle(n, m):
    # S^2 .. S^13: every field bitwise equal to the fancy-indexed jet, and
    # the field's value to diag of the jet's lam
    field = sphere_metric_field(n)
    pts = sample_safe_points(field, m, np.random.default_rng(100 + n))
    for got, ref in zip(sphere_frame_jet(pts), indexed_sphere_frame_jet(pts)):
        assert got.shape == ref.shape and np.array_equal(got, ref)
    lam = sphere_frame_jet(pts).lam
    assert np.array_equal(field(pts), lam[:, :, None] * np.eye(n - 1))  # the value is diag(lam)


def test_jet_budget_is_checked_before_any_array():
    # S^2999 would need d^3-float arrays of about 200 GiB: an input error, not
    # numpy's allocation failure
    with pytest.raises(InvalidInputError, match="allocation budget"):
        sphere_frame_jet(np.full(2999, 1.0))


@pytest.mark.parametrize("n", range(3, 14))
def test_spheres_pass_with_exact_jet(n):
    # S^2 .. S^12; the finite-difference stencil failed S^7 and S^8 here
    v = sphere_einstein_check(n, samples=20, tol=1e-6)
    assert v.passed
    assert v.lambda_hat == pytest.approx((n - 2) / 2, rel=1e-10)


def test_tolerance_tighter_than_method_noise_fails():
    field = with_stencil(sphere_metric_field(3))  # the finite-difference path
    v = einstein_check(field, sample_safe_points(field, 4, np.random.default_rng(0)), 1e-12)
    assert not v.passed


def test_einstein_samples_inside_field_box(monkeypatch):
    seen = []

    def recording(field, count, rng):
        seen.append((field, sample_safe_points(field, count, rng)))
        return seen[-1][1]

    monkeypatch.setattr(scan, "sample_safe_points", recording)
    assert sphere_einstein_check(5, samples=6, tol=1e-5).passed
    [(field, pts)] = seen
    lo, hi = field.domain.lo, field.domain.hi
    assert np.array_equal(lo, [0.3, 0.3, 0.3, -np.pi])
    assert np.array_equal(hi, [np.pi - 0.3] * 3 + [np.pi])
    assert pts.shape == (6, 4) and np.all((pts >= lo) & (pts <= hi))


def test_small_ambient_rejected():
    with pytest.raises(InvalidInputError):
        sphere_einstein_check(2, samples=3, tol=1e-6)

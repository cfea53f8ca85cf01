import re

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SIGMA_1, SIGMA_3, fd_derivative
from test_g2 import g2_spec
from oracles import chart_transition_check, euler_chart, exp_chart, su2_log, symplectic_form
from lieforge.catalog import make_group, parse_group_name
from lieforge.charts import (EULER_POLE_MARGIN, EXP_NORM_MAX, ChartPoint, euler_chart_batch,
                             exp_chart_batch, safe_domain)
from lieforge.curvature import einstein_check, riemann_ricci
from lieforge.errors import DomainError, InvalidInputError
from lieforge.kernel import PSI_SERIES_MIN
from lieforge.metric import (closed_form_metric_su2_euler, exp_frame_jet, metric_batch,
                             metric_field, resolve_k)
from lieforge.sphere import hyperspherical_batch, pullback_metric, sphere_metric_field


def test_exp_chart_origin(su2):
    frame = exp_chart(su2, np.zeros(3))
    assert np.allclose(frame.U, np.eye(2), atol=1e-15)


def test_exp_chart_axis_matches_closed_form(su2):
    t = 1.3
    frame = exp_chart(su2, [t, 0, 0])
    expected = np.cos(t / 2) * np.eye(2) + 1j * np.sin(t / 2) * SIGMA_1
    assert np.abs(frame.U - expected).max() < 1e-13


def test_exp_chart_derivative_vs_fd(su2):
    theta = np.array([np.pi, 0.0, 0.0])
    frame = exp_chart(su2, theta)
    fd = fd_derivative(lambda x: exp_chart(su2, x).U, theta, 1)
    assert np.abs(frame.dU[1] - fd).max() < 1e-8


@pytest.mark.parametrize("family,n", [("su", 3), ("so", 4), ("sp", 2)])
def test_exp_chart_unitary_everywhere(family, n):
    spec = make_group(family, n)
    rng = np.random.default_rng(4)
    for _ in range(10):
        theta = rng.uniform(-0.5, 0.5, spec.dim)
        u = exp_chart(spec, theta).U
        assert np.linalg.norm(u.conj().T @ u - np.eye(spec.matrix_size)) < 1e-10


def test_so_chart_real():
    spec = make_group("so", 4)
    theta = np.random.default_rng(1).uniform(-0.5, 0.5, spec.dim)
    assert np.abs(exp_chart(spec, theta).U.imag).max() < 1e-12


def test_sp_chart_preserves_form():
    spec = make_group("sp", 2)
    j = symplectic_form(2)
    theta = np.random.default_rng(2).uniform(-0.4, 0.4, spec.dim)
    u = exp_chart(spec, theta).U
    assert np.abs(u.T @ j @ u - j).max() < 1e-10


def test_exp_chart_dimension_mismatch(su2):
    with pytest.raises(InvalidInputError):
        exp_chart(su2, [0.1, 0.2])


class TestEulerChart:
    def test_origin(self):
        assert np.allclose(euler_chart(0, 0, 0).U, np.eye(2), atol=1e-15)

    def test_theta_pi(self):
        assert np.abs(euler_chart(np.pi, 0, 0).U - 1j * SIGMA_1).max() < 1e-14

    def test_three_factor_product_oracle(self):
        # U = exp(i phi s3 / 2) exp(i theta s1 / 2) exp(i psi s3 / 2) by scipy's
        # expm, at random points, at the pole margins, at theta = pi and at
        # phi, psi = +-pi
        rng = np.random.default_rng(6)
        angles = np.concatenate([
            rng.uniform(-2 * np.pi, 2 * np.pi, (50, 3)),
            [[EULER_POLE_MARGIN, 0.3, -0.7], [np.pi - EULER_POLE_MARGIN, -1.1, 2.0],
             [np.pi, 0.4, 0.5], [1.0, np.pi, np.pi], [1.0, -np.pi, np.pi],
             [1.0, np.pi, -np.pi], [1.0, -np.pi, -np.pi], [np.pi, np.pi, -np.pi]],
        ])
        u_batch, du_batch = euler_chart_batch(angles)
        x, z = 0.5j * SIGMA_1, 0.5j * SIGMA_3
        for (th, ph, ps), u, du in zip(angles, u_batch, du_batch):
            left, mid, right = expm(ph * z), expm(th * x), expm(ps * z)
            expected = left @ mid @ right
            assert np.abs(euler_chart(th, ph, ps).U - expected).max() < 1e-15
            assert np.abs(u - expected).max() < 1e-15
            assert np.abs(du[0] - left @ mid @ x @ right).max() < 1e-15
            assert np.abs(du[1] - z @ expected).max() < 1e-15
            assert np.abs(du[2] - expected @ z).max() < 1e-15

    def test_batch_rows_equal_single_points(self):
        # each entry of the chart's two matmuls rounds at most once (its
        # constants are 0, +-1/2, +-1 and +-i/2), so the summation order a BLAS
        # path picks by batch size does not show
        rng = np.random.default_rng(12)
        angles = rng.uniform(-np.pi, np.pi, (200, 3))
        u_batch, du_batch = euler_chart_batch(angles)
        for row, u, du in zip(angles, u_batch, du_batch):
            u1, du1 = euler_chart_batch(row)
            assert u1.shape == (1, 2, 2) and du1.shape == (1, 3, 2, 2)
            assert np.array_equal(u1[0], u) and np.array_equal(du1[0], du)

    @pytest.mark.parametrize("theta", [2e-3, np.pi - 2e-3])
    def test_metric_near_the_poles(self, su2, theta):
        # g's smallest eigenvalue, 1 - |cos theta| ~ 2e-6, is where round-off
        # in U and dU shows first
        g = metric_batch(su2, "euler", np.array([[theta, 0.4, -1.3]]), resolve_k("auto"))[0][0]
        expected = np.linalg.eigvalsh(closed_form_metric_su2_euler(theta, 0.4, -1.3).g)[0]
        assert abs(np.linalg.eigvalsh(g)[0] / expected - 1) < 1e-9

    def test_maurer_cartan_is_anti_hermitian(self):
        # U^dag dU_a lies in su(2), so the Euler metric may take U^dag for U^{-1}
        angles = np.random.default_rng(7).uniform(-2 * np.pi, 2 * np.pi, (200, 3))
        u, du = euler_chart_batch(angles)
        assert np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(2)).max() < 1e-15
        w = u.conj().swapaxes(1, 2)[:, None] @ du
        assert np.abs(w + w.conj().swapaxes(2, 3)).max() < 1e-15

    def test_derivatives_vs_fd(self):
        angles = np.array([0.9, -0.4, 1.7])
        frame = euler_chart(*angles)
        for a in range(3):
            fd = fd_derivative(lambda x: euler_chart_batch(x[None, :])[0][0], angles, a)
            assert np.abs(frame.dU[a] - fd).max() < 1e-9


class TestTransition:
    def test_origin(self, su2):
        d = chart_transition_check(
            ChartPoint("exp", np.zeros(3), su2),
            ChartPoint("euler", np.zeros(3), su2),
        )
        assert d < 1e-14

    def test_x_axis(self, su2):
        t = 0.8
        d = chart_transition_check(
            ChartPoint("exp", [t, 0, 0], su2),
            ChartPoint("euler", [t, 0, 0], su2),
        )
        assert d < 1e-14

    def test_z_rotation(self, su2):
        # exp along the third generator is U_z(t), the diagonal z-rotation factor
        t = 1.1
        d = chart_transition_check(
            ChartPoint("exp", [0, 0, t], su2),
            ChartPoint("euler", [0, t, 0], su2),
        )
        assert d < 1e-14


def test_su2_log_roundtrip(su2):
    rng = np.random.default_rng(8)
    for _ in range(20):
        th, ph, ps = rng.uniform(0.3, np.pi - 0.3), *rng.uniform(-1.5, 1.5, 2)
        u = euler_chart(th, ph, ps).U
        v = su2_log(u)
        assert np.abs(exp_chart(su2, v).U - u).max() < 1e-12


def test_safe_domains(su2):
    dom = safe_domain(su2, "exp")
    assert dom.contains(np.array([[1.0, 0.0, 0.0]]))[0]
    assert dom.contains(np.zeros((1, 3)))[0]
    assert not dom.contains(np.array([[2 * np.pi, 0.0, 0.0]]))[0]
    # one ball for every group: the box's corners lie at 0.9 of its radius
    so5 = make_group("so", 5)
    dom5 = safe_domain(so5, "exp")
    corners = np.linalg.norm(np.stack([dom5.lo, dom5.hi]), axis=1)
    assert np.allclose(corners, 0.9 * EXP_NORM_MAX, rtol=1e-15) and (corners < EXP_NORM_MAX).all()


def ad_squared_min(spec, thetas):
    """The smallest eigenvalue of ad_theta^2 per row of thetas, ad_eb = theta^c f_cbe."""
    ad = np.einsum("mc,cbe->meb", np.atleast_2d(thetas), spec.structure)
    return np.linalg.eigvalsh(ad @ ad)[:, 0]


def lemma_groups():
    """su2..su8, so3..so10, sp1..sp4 and g2."""
    return ([make_group("su", n) for n in range(2, 9)] + [make_group("so", n) for n in range(3, 11)]
            + [make_group("sp", n) for n in range(1, 5)] + [g2_spec()])


class TestExpDomain:
    """One exp-chart domain for every group, the ball |theta| < EXP_NORM_MAX:
    rho(ad_theta) <= |theta| in the catalog normalization keeps it regular."""

    @pytest.mark.parametrize("spec", lemma_groups(), ids=lambda s: s.name)
    def test_spectral_radius_is_at_most_the_norm(self, spec):
        u = np.random.default_rng(11).normal(size=(200, spec.dim))
        u /= np.linalg.norm(u, axis=1)[:, None]
        assert (np.sqrt(-np.minimum(ad_squared_min(spec, u), 0.0)) <= 1.0 + 1e-12).all()

    @pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 5), ("sp", 1), ("sp", 3)])
    def test_root_directions_are_tight(self, family, n):
        # iA = diag(1, -1, 0, ...) on su(n), diag(1, 0.., -1, 0..) on sp(n) (the long
        # root 2 e_1): rho(ad_A) = 2 and |theta|^2 = 2 |A|_F^2 = 4
        spec = make_group(family, n)
        size = spec.matrix_size
        b = np.zeros((size, size), dtype=complex)
        j = size // 2 if family == "sp" else 1
        b[0, 0], b[j, j] = 1j, -1j
        theta = 2.0 * np.einsum("aij,ij->a", spec.generators.conj(), b).real
        assert np.abs(np.einsum("a,aij->ij", theta, spec.generators) - b).max() <= 1e-15
        u = theta / np.linalg.norm(theta)
        assert abs(np.sqrt(-ad_squared_min(spec, u)[0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("spec", lemma_groups(), ids=lambda s: s.name)
    def test_box_draws_stay_in_the_psi_series_range(self, spec):
        dom = safe_domain(spec, "exp")
        draws = np.random.default_rng(12).uniform(dom.lo, dom.hi, (200, spec.dim))
        mu = ad_squared_min(spec, np.vstack([dom.lo, dom.hi, draws]))
        assert (mu > PSI_SERIES_MIN).all()

    def test_su3_is_einstein_at_norm_3(self):
        # halfway to the ball's edge, R / 2d is still the Killing value 3/8
        field = metric_field(make_group("su", 3), "exp", 2.0)
        theta = np.array([3.0] + [0.0] * 7)
        assert abs(riemann_ricci(field, theta).scalar / (2 * 8) - 3.0 / 8.0) <= 1e-12

    @pytest.mark.parametrize("name", ["su3", "so5", "sp2"])
    def test_points_past_the_ball_are_outside(self, name):
        spec = parse_group_name(name)
        field = metric_field(spec, "exp", 2.0)
        theta = np.zeros((3, spec.dim))
        theta[:, 0] = np.nextafter(EXP_NORM_MAX, 0.0), EXP_NORM_MAX, np.nextafter(EXP_NORM_MAX, 7.0)
        assert field.domain.contains(theta).tolist() == [True, False, False]
        for past in theta[1:]:
            with pytest.raises(DomainError, match=f"outside the safe domain of {name}-exp"):
                riemann_ricci(field, past)


_EXP, _EULER = [0.1, 0.2, 0.3], [1.0, 0.2, 0.3]


def width_error(name: str, width: int, shape: tuple) -> str:
    """The one wording of a wrong coordinate count, as a pattern."""
    return re.escape(f"{name} takes points of {width} coordinates, got shape {shape}")


@pytest.mark.parametrize("group, chart, coords, accepted", [
    ("su2", "exp", _EXP, True),
    ("su2", "exp", _EXP[:1], False),
    ("su2", "exp", _EXP[:2], False),
    ("su2", "exp", _EXP + [0.4], False),
    ("su2", "exp", 0.5, False),
    ("su2", "exp", np.array(_EXP)[:, None], False),
    ("su2", "euler", _EULER, True),
    ("su2", "euler", _EULER[:2], False),
    ("su2", "euler", np.array(_EULER)[:, None], False),
    ("so3", "euler", _EULER, False),
    ("su3", "euler", _EULER, False),
    ("sp1", "euler", _EULER, False),
    ("su2", "polar", _EXP, False),
    ("su2", ["exp"], _EXP, False),
], ids=["exp", "exp-1", "exp-2", "exp-4", "exp-scalar", "exp-column", "euler", "euler-2",
        "euler-column", "euler-so3", "euler-su3", "euler-sp1", "unknown", "unhashable"])
def test_one_chart_table(group, chart, coords, accepted):
    """safe_domain decides: it rejects the chart, or its box's width fixes the
    coordinates, and every consumer of a chart point agrees with it.  A wrong
    width reads the same from each, with the shape its caller passed."""
    spec = parse_group_name(group)
    try:
        width = len(safe_domain(spec, chart).lo)
    except InvalidInputError:
        width = None
    assert accepted == (np.shape(coords) == (width,))
    calls = ((lambda: ChartPoint(chart, coords, spec), np.shape(coords)),
             (lambda: metric_batch(spec, chart, coords, 2.0), np.shape(coords)),
             (lambda: metric_field(spec, chart, 2.0)(coords), np.shape(coords)),
             (lambda: riemann_ricci(metric_field(spec, chart, 2.0), coords), np.shape(coords)),
             (lambda: einstein_check(metric_field(spec, chart, 2.0), np.atleast_2d(coords), 1e-6),
              np.shape(np.atleast_2d(coords))))
    for call, shape in calls:
        if accepted:
            call()
        else:
            match = None if width is None else width_error(f"{group}-{chart}", width, shape)
            with pytest.raises(InvalidInputError, match=match):
                call()


@pytest.mark.parametrize("points", [[1.0, 0.5], [1.0, 0.5, 1.2, 0.7, 0.1], 0.5],
                         ids=["two", "five", "scalar"])
def test_curvature_rejects_a_point_of_the_wrong_width(points):
    """S^3's curvature, value and point query read one wrong-width wording,
    with the caller's shape."""
    s3 = sphere_metric_field(4)
    assert riemann_ricci(s3, [1.0, 0.5, 0.1]).scalar == pytest.approx(6.0)
    shape = np.shape(points)
    with pytest.raises(InvalidInputError, match=width_error("s3-pullback", 3, shape)):
        riemann_ricci(s3, points)
    with pytest.raises(InvalidInputError, match=width_error("s3-pullback", 3, shape)):
        s3(points)
    with pytest.raises(InvalidInputError, match=width_error("s3-pullback", 3, shape)):
        pullback_metric(4, points)


@pytest.mark.parametrize("width", [2, 5])
def test_einstein_check_rejects_points_of_the_wrong_width(width):
    with pytest.raises(InvalidInputError, match=width_error("s3-pullback", 3, (2, width))):
        einstein_check(sphere_metric_field(4), np.full((2, width), 1.0), 1e-6)


_SU2, _S3 = parse_group_name("su2"), sphere_metric_field(4)
_EXP_FIELD, _EULER_FIELD = metric_field(_SU2, "exp", 2.0), metric_field(_SU2, "euler", 2.0)
# four points in the su2 exp ball, off the Euler chart's and S^3's poles
_BATCH = np.array([[1.0, 0.5, 0.3], [0.8, 1.4, 0.5], [1.3, 0.6, -0.2], [2.0, 1.1, 0.7]])
_SHAPES = {"scalar": _BATCH[0, 0], "point": _BATCH[0], "batch": _BATCH[:2],
           "nested": _BATCH.reshape(2, 2, 3), "empty": _BATCH[:0],
           "wide": np.append(_BATCH[0], 0.4)}
# entry: (the name its wording gives, what it returns at points (m, 3), or for an
# entry of one point (3,) what its one point gives from the batch of it)
_ENTRIES = {
    "ChartPoint-exp": ("su2-exp", lambda x: ChartPoint("exp", x, _SU2).coords, lambda b: b[0]),
    "ChartPoint-euler": ("su2-euler", lambda x: ChartPoint("euler", x, _SU2).coords,
                         lambda b: b[0]),
    "pullback_metric": ("s3-pullback", lambda x: pullback_metric(4, x).g, lambda b: _S3(b)[0]),
    "exp_chart_batch": ("su2-exp", lambda x: exp_chart_batch(_SU2, x), None),
    "euler_chart_batch": ("su2-euler", euler_chart_batch, None),
    "metric_batch-exp": ("su2-exp", lambda x: metric_batch(_SU2, "exp", x, 2.0), None),
    "metric_batch-euler": ("su2-euler", lambda x: metric_batch(_SU2, "euler", x, 2.0), None),
    "field-exp": ("su2-exp", _EXP_FIELD, None),
    "field-euler": ("su2-euler", _EULER_FIELD, None),
    "field-s3": ("s3-pullback", _S3, None),
    "hyperspherical_batch": ("s3-pullback", lambda x: hyperspherical_batch(4, x), None),
    "exp_frame_jet": ("su2-exp", lambda x: exp_frame_jet(_SU2, x, 2.0), None),
    "riemann_ricci-exp": ("su2-exp", lambda x: riemann_ricci(_EXP_FIELD, x), None),
    "riemann_ricci-euler": ("su2-euler", lambda x: riemann_ricci(_EULER_FIELD, x), None),
    "riemann_ricci-s3": ("s3-pullback", lambda x: riemann_ricci(_S3, x), None),
    "einstein_check-exp": ("su2-exp", lambda x: einstein_check(_EXP_FIELD, x, 1e-6), None),
    "einstein_check-euler": ("su2-euler", lambda x: einstein_check(_EULER_FIELD, x, 1e-6), None),
    "einstein_check-s3": ("s3-pullback", lambda x: einstein_check(_S3, x, 1e-6), None),
}


def _raveled(result) -> list:
    """A result's arrays and numbers, each raveled; a passed verdict's failure is None."""
    parts = result if isinstance(result, tuple) else (result,)
    return [np.ravel(p) for p in parts if p is not None]


@pytest.mark.parametrize("shape", list(_SHAPES))
@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_every_entry_reads_coordinates_by_one_rule(entry, shape):
    """A batch (..., 3) is flattened, so (2, 2, 3) answers as (4, 3) does, and a
    point (3,) as the batch of it; an entry of one point takes only (3,).  A
    scalar is one coordinate, so it, an empty batch, a fourth coordinate and a
    batch given for one point read the one wording, with the caller's shape."""
    name, call, one_point = _ENTRIES[entry]
    x = _SHAPES[shape]
    if shape == "point" or (one_point is None and shape in ("batch", "nested")):
        got, expected = call(x), (one_point or call)(x.reshape(-1, 3))
        assert len(_raveled(got)) == len(_raveled(expected))
        assert all(map(np.array_equal, _raveled(got), _raveled(expected)))
    else:
        with pytest.raises(InvalidInputError, match=width_error(name, 3, np.shape(x)) + "$"):
            call(x)


_PI = 3.141592653589793


def test_polar_boxes_are_pinned(su2):
    # the Euler chart and S^1 to S^18 sample polar angles 0.25 and 0.3 from
    # the poles and azimuths in [-pi, pi], bit for bit, from read-only boxes
    domains = [(safe_domain(su2, "euler"), [0.25, -_PI, -_PI], [2.891592653589793, _PI, _PI])]
    for n in range(2, 20):
        domains.append((sphere_metric_field(n).domain, [0.3] * (n - 2) + [-_PI],
                        [2.8415926535897933] * (n - 2) + [_PI]))
    for dom, lo, hi in domains:
        assert np.array_equal(dom.lo, lo) and np.array_equal(dom.hi, hi)
        assert dom.lo.dtype == float and not (dom.lo.flags.writeable or dom.hi.flags.writeable)


_EULER_NEAR = [0.001, 0.0010000000000000002, 3.1405926535897932, 3.140592653589793]
_SPHERE_NEAR = [1e-06, 1.0000000000000002e-06, 3.141591653589793, 3.1415916535897925]


@pytest.mark.parametrize("domain, npolar, near", [
    (lambda: safe_domain(make_group("su", 2), "euler"), 1, _EULER_NEAR),
    *[(lambda n=n: sphere_metric_field(n).domain, n - 2, _SPHERE_NEAR) for n in (2, 3, 4, 8, 19)],
], ids=["euler", "s1", "s2", "s3", "s7", "s18"])
def test_polar_domains_accept_points_off_the_pole_margins(domain, npolar, near):
    # each polar angle at its margin m, one float inside it, at pi - m and one
    # float inside that, the others at 1.0; azimuths are never refused
    dom = domain()
    rows = np.ones((4 * npolar + 2, len(dom.lo)))
    for j in range(npolar):
        rows[4 * j:4 * j + 4, j] = near
    rows[-2:, npolar:] = [[-10.0], [10.0]]
    expected = [False, True, False, True] * npolar + [True, True]
    assert dom.contains(rows).tolist() == expected
    assert [bool(dom.contains(r)[0]) for r in rows] == expected

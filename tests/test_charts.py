import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SIGMA_1, SIGMA_3, fd_derivative
from oracles import chart_transition_check, euler_chart, exp_chart, su2_log, symplectic_form
from lieforge.catalog import make_group, parse_group_name
from lieforge.charts import EULER_POLE_MARGIN, ChartPoint, euler_chart_batch, safe_domain
from lieforge.curvature import einstein_check, riemann_ricci
from lieforge.errors import InvalidInputError
from lieforge.metric import closed_form_metric_su2_euler, metric_batch, metric_field, resolve_k
from lieforge.sphere import sphere_metric_field


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


def test_chart_point_validation(su2):
    with pytest.raises(InvalidInputError):
        ChartPoint("exp", [0.1], su2)
    with pytest.raises(InvalidInputError):
        ChartPoint("euler", [0.1, 0.2], su2)
    with pytest.raises(InvalidInputError):
        ChartPoint("polar", [0.1, 0.2, 0.3], su2)


def test_safe_domains(su2):
    dom = safe_domain(su2, "exp")
    assert dom.contains(np.array([[1.0, 0.0, 0.0]]))[0]
    assert dom.contains(np.zeros((1, 3)))[0]
    assert not dom.contains(np.array([[2 * np.pi, 0.0, 0.0]]))[0]
    so5 = make_group("so", 5)
    dom5 = safe_domain(so5, "exp")
    assert np.all(np.linalg.norm(np.stack([dom5.lo, dom5.hi]), axis=1) < np.pi / 2)


_EXP, _EULER = [0.1, 0.2, 0.3], [1.0, 0.2, 0.3]


@pytest.mark.parametrize("group, chart, coords, accepted", [
    ("su2", "exp", _EXP, True),
    ("su2", "exp", _EXP[:2], False),
    ("su2", "exp", _EXP + [0.4], False),
    ("su2", "exp", 0.5, False),
    ("su2", "exp", np.array(_EXP)[:, None], False),
    ("su2", "euler", _EULER, True),
    ("su2", "euler", _EULER[:2], False),
    ("so3", "euler", _EULER, False),
    ("su3", "euler", _EULER, False),
    ("sp1", "euler", _EULER, False),
    ("su2", "polar", _EXP, False),
    ("su2", ["exp"], _EXP, False),
], ids=["exp", "exp-2", "exp-4", "exp-scalar", "exp-column", "euler", "euler-2",
        "euler-so3", "euler-su3", "euler-sp1", "unknown", "unhashable"])
def test_one_chart_table(group, chart, coords, accepted):
    """safe_domain decides: it rejects the chart, or its box's width fixes the
    coordinates, and every consumer of a chart point agrees with it."""
    spec = parse_group_name(group)
    try:
        width = len(safe_domain(spec, chart).lo)
    except InvalidInputError:
        width = None
    assert accepted == (np.shape(coords) == (width,))
    calls = (lambda: ChartPoint(chart, coords, spec),
             lambda: metric_batch(spec, chart, coords, 2.0),
             lambda: riemann_ricci(metric_field(spec, chart, 2.0), coords))
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(InvalidInputError):
                call()


@pytest.mark.parametrize("points", [[1.0, 0.5], [1.0, 0.5, 1.2, 0.7, 0.1], 0.5],
                         ids=["two", "five", "scalar"])
def test_curvature_rejects_a_point_of_the_wrong_width(points):
    s3 = sphere_metric_field(4)
    assert riemann_ricci(s3, [1.0, 0.5, 0.1]).scalar == pytest.approx(6.0)
    with pytest.raises(InvalidInputError):
        riemann_ricci(s3, points)


@pytest.mark.parametrize("width", [2, 5])
def test_einstein_check_rejects_points_of_the_wrong_width(width):
    with pytest.raises(InvalidInputError):
        einstein_check(sphere_metric_field(4), np.full((2, width), 1.0), 1e-6)


import numpy as np
import pytest

from conftest import fd_derivative, su2_closed_form_u
from oracles import chart_transition_check, euler_chart, exp_chart, su2_log, symplectic_form
from lieforge.catalog import make_group
from lieforge.charts import ChartPoint, euler_chart_batch, safe_domain
from lieforge.errors import InvalidInputError
from lieforge.kernel import SIGMA_1


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
        # multiply the three printed 2x2 factor matrices, and their derivatives,
        # directly
        rng = np.random.default_rng(6)
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, (50, 3))
        u_batch, du_batch = euler_chart_batch(angles)
        for (th, ph, ps), u, du in zip(angles, u_batch, du_batch):
            uz_phi = np.diag([np.exp(0.5j * ph), np.exp(-0.5j * ph)])
            duz_phi = np.diag([0.5j * np.exp(0.5j * ph), -0.5j * np.exp(-0.5j * ph)])
            ux = np.array([
                [np.cos(th / 2), 1j * np.sin(th / 2)],
                [1j * np.sin(th / 2), np.cos(th / 2)],
            ])
            dux = np.array([
                [-0.5 * np.sin(th / 2), 0.5j * np.cos(th / 2)],
                [0.5j * np.cos(th / 2), -0.5 * np.sin(th / 2)],
            ])
            uz_psi = np.diag([np.exp(0.5j * ps), np.exp(-0.5j * ps)])
            duz_psi = np.diag([0.5j * np.exp(0.5j * ps), -0.5j * np.exp(-0.5j * ps)])
            assert np.abs(euler_chart(th, ph, ps).U - uz_phi @ ux @ uz_psi).max() < 1e-14
            assert np.abs(u - uz_phi @ ux @ uz_psi).max() < 1e-14
            assert np.abs(du[0] - uz_phi @ dux @ uz_psi).max() < 1e-14
            assert np.abs(du[1] - duz_phi @ ux @ uz_psi).max() < 1e-14
            assert np.abs(du[2] - uz_phi @ ux @ duz_psi).max() < 1e-14

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

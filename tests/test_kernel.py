import numpy as np
import pytest

from conftest import PAULI, SIGMA_1, SIGMA_2, SIGMA_3, fd_derivative, phim, su2_closed_form_u
from oracles import expm, unclipped_psi_divided_differences
from lieforge import kernel
from lieforge.catalog import make_group, parse_group_name
from lieforge.charts import exp_chart_batch, safe_domain
from lieforge.curvature import sample_safe_points
from lieforge.errors import InvalidInputError, NumericRangeError, SingularityError
from lieforge.kernel import (
    PSI_SERIES_MIN,
    expm_dual,
    mat_inverse,
    psi,
    psi_divided_differences,
)
from lieforge.metric import _exp_metric, metric_field, resolve_k
from lieforge.scan import CHART


# the catalog groups plus one larger group per family
EXP_GROUPS = [("su", 2), ("su", 3), ("so", 3), ("so", 4), ("so", 5), ("sp", 1), ("sp", 2),
              ("su", 4), ("so", 6), ("sp", 3), ("so", 8)]


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_antihermitian(rng, n):
    a = random_matrix(rng, n)
    return a - a.conj().T


class TestMatMul:
    def test_pauli_product(self):
        # brute-force 2x2 complex multiply oracle
        expected = np.empty((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i, j] = sum(SIGMA_1[i, k] * SIGMA_2[k, j] for k in range(2))
        assert np.allclose(SIGMA_1 @ SIGMA_2, expected)
        assert np.allclose(expected, 1j * SIGMA_3)

    def test_times_inverse(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng, 4) + 4 * np.eye(4)
        assert np.allclose(a @ mat_inverse(a), np.eye(4), atol=1e-10)


class TestAdjoint:
    @pytest.mark.parametrize("sigma", PAULI)
    def test_i_pauli(self, sigma):
        # elementwise conjugate-transpose oracle: i sigma is anti-Hermitian
        a = 1j * sigma
        expected = np.array([[np.conj(a[j, i]) for j in range(2)] for i in range(2)])
        assert np.allclose(expected, -1j * sigma)


class TestMatExp:
    def test_exp_zero(self):
        # a zero dual stack: value exp(0) = I, partials 0
        out = expm_dual(np.zeros((3, 3, 3)))
        assert np.allclose(out[0], np.eye(3), atol=1e-15)
        assert not np.any(out[1:])

    def test_exp_pi_sigma1(self):
        # exp((i/2) sigma1 pi) = i sigma1
        u = expm(0.5j * np.pi * SIGMA_1)
        assert np.allclose(u, 1j * SIGMA_1, atol=1e-13)

    def test_dual_partials_match_fd(self):
        rng = np.random.default_rng(11)
        basis = [random_antihermitian(rng, 3) for _ in range(3)]
        x0 = np.array([0.4, -0.9, 0.3])

        def u_of(x):
            return expm(sum(c * b for c, b in zip(x, basis)))

        d = expm_dual(np.stack([sum(c * b for c, b in zip(x0, basis))] + basis))
        for a in range(3):
            fd = fd_derivative(u_of, x0, a)
            assert np.abs(d[1 + a] - fd).max() < 1e-8

    def test_value_matches_su2_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            theta = rng.normal(size=3)
            theta *= rng.uniform(0, 2 * np.pi - 1e-3) / np.linalg.norm(theta)
            a = sum(0.5j * th * s for th, s in zip(theta, PAULI))
            assert np.abs(expm(a) - su2_closed_form_u(theta)).max() < 1e-12

    def test_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            a = random_antihermitian(rng, n)
            u = expm(a)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12

    @pytest.mark.parametrize("family,n", EXP_GROUPS)
    def test_chart_frames_match_scipy_frechet(self, family, n):
        # exp_chart_batch hands expm_dual the value sum_a theta^a X_a with one
        # generator per partial slot; scipy's expm_frechet is independent of
        # lieforge.  A generator axis has coinciding eigenvalues, and the
        # point 1e-9 off it nearly coinciding ones.
        from scipy.linalg import expm_frechet

        spec = make_group(family, n)
        dom = safe_domain(spec, "exp")
        axis = dom.hi[0] * np.eye(spec.dim)[0]
        pts = np.vstack([
            np.random.default_rng(5).uniform(dom.lo, dom.hi, (4, spec.dim)),
            np.zeros(spec.dim), axis, axis + 1e-9 * np.eye(spec.dim)[-1],
        ])
        u, du = exp_chart_batch(spec, pts)
        for p, ui, dui in zip(pts, u, du):
            a = np.einsum("a,aij->ij", p, spec.generators)
            for x, dx in zip(spec.generators, dui):
                ref_u, ref_dx = expm_frechet(a, x)
                assert np.abs(ui - ref_u).max() < 1e-13
                assert np.abs(dx - ref_dx).max() < 1e-13

    def test_rejects_non_antihermitian_value(self):
        # the eigendecomposition needs a normal value: Hermitian ones, huge or
        # not, and one entry 1e-6 off anti-Hermitian are rejected
        rng = np.random.default_rng(4)
        a = random_antihermitian(rng, 3)
        a[0, 1] += 1e-6
        for bad in (np.eye(2) * 1e300, np.eye(2), a):
            with pytest.raises(InvalidInputError, match="anti-Hermitian"):
                expm(bad)
        # partial slots are any direction
        value = random_antihermitian(rng, 3)
        out = expm_dual(np.stack([value, random_matrix(rng, 3)]))
        assert np.abs(out[0] - expm(value)).max() < 1e-15

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, slot, bad):
        stack = np.zeros((2, 2, 2), dtype=complex)
        stack[slot, 0, 1] = bad
        with pytest.raises(NumericRangeError):  # a LieForgeError, not a LinAlgError
            expm_dual(stack)

    def test_non_square(self):
        with pytest.raises(InvalidInputError):
            expm(np.ones((2, 3)))


class TestMatInverse:
    def test_eq4_inverse_axis(self):
        t = 0.9
        u = su2_closed_form_u([t, 0, 0])
        expected = np.cos(t / 2) * np.eye(2) - 1j * np.sin(t / 2) * SIGMA_1
        assert np.abs(mat_inverse(u) - expected).max() < 1e-13

    def test_identity(self):
        assert np.allclose(mat_inverse(np.eye(4)), np.eye(4))

    def test_rank_deficient(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(SingularityError) as err:
            mat_inverse(a)
        assert err.value.condition is None or err.value.condition > 1e12

    def test_unitary_inverse_is_adjoint(self):
        u = expm(random_antihermitian(np.random.default_rng(9), 4))
        assert np.abs(mat_inverse(u) - u.conj().T).max() < 1e-10


class TestPhim:
    def test_scalar_series(self):
        # 1x1 matrices: phi(z) = (1 - e^{-z}) / z, across several doublings
        z = np.array([-7.5, -1.0, -1e-3, 1e-3, 0.3, 0.5, 2.0, 9.0])
        got = phim(z[:, None, None])[:, 0, 0]
        assert np.abs(got - (-np.expm1(-z)) / z).max() < 1e-14 * np.abs(got).max()

    def test_zero_is_identity(self):
        assert np.array_equal(phim(np.zeros((2, 4, 4))), np.broadcast_to(np.eye(4), (2, 4, 4)))

    @pytest.mark.parametrize("scale", [0.1, 0.5, 3.0, 20.0])
    @pytest.mark.parametrize("antisymmetric,tol", [(True, 1e-13), (False, 1e-12)])
    def test_matches_scipy_expm(self, scale, antisymmetric, tol):
        # M phi(M) = I - e^{-M} with scipy's independent expm.  Adjoint
        # matrices are antisymmetric; general ones lose more to the doublings
        # where e^{-M} grows large.
        from scipy.linalg import expm as scipy_expm

        rng = np.random.default_rng(21)
        m = rng.normal(size=(6, 5, 5))
        if antisymmetric:
            m = m - np.swapaxes(m, -1, -2)
        m *= scale / np.abs(m).sum(axis=-2).max()
        p = phim(m)
        for mi, pi in zip(m, p):
            ref = np.eye(5) - scipy_expm(-mi)
            assert np.abs(mi @ pi - ref).max() < tol * max(1.0, np.abs(ref).max())

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            phim(np.ones((2, 3)))
        with pytest.raises(NumericRangeError):
            phim(np.full((2, 2), np.nan))
        with pytest.raises(NumericRangeError):
            phim(np.eye(2) * 1e300)


def psi_reference(x):
    """psi(x) = (1 - cos sqrt|x|) / |x| for x < 0, written with the half-angle
    square so that it keeps full precision near 0."""
    t = np.sqrt(np.abs(x))
    return np.where(x == 0, 0.5, 2.0 * np.sin(0.5 * t) ** 2 / np.where(x == 0, 1.0, t * t))


class TestPsi:
    def test_matches_half_angle_reference(self):
        # psi vanishes at x = -(2 pi k)^2: there only an absolute bound is meaningful
        x = np.array([-400.0, PSI_SERIES_MIN, -39.4, -4.0, -1.0, -1e-3, 0.0])
        got, ref = psi(x), psi_reference(x)
        assert got[-1] == 0.5
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(ref, 1e-2))

    def test_round_off_above_zero_reads_as_zero(self):
        assert np.array_equal(psi(np.array([1e-17, 0.0])), [0.5, 0.5])


class TestPsiDividedDifferences:
    def test_distinct_values(self):
        # ad^2 is negative semidefinite, and -39 reaches the end of the range
        mu = np.array([-39.0, -3.0, -1.7, -0.6, -0.1])
        d1, d2 = psi_divided_differences(mu)
        p = psi_reference(mu)
        i, j = np.triu_indices(len(mu), 1)
        first = (p[i] - p[j]) / (mu[i] - mu[j])
        assert np.abs(d1[i, j] - first).max() <= 1e-14
        assert np.array_equal(d1, d1.T)
        for a, b, c in [(0, 2, 4), (1, 3, 4), (0, 1, 3)]:
            ab, bc = d1[a, b], d1[b, c]
            ref = (ab - bc) / (mu[a] - mu[c])
            for perm in [(a, b, c), (c, a, b), (b, c, a), (b, a, c)]:
                assert d2[perm] == pytest.approx(ref, rel=1e-11)

    def test_coinciding_values_give_derivatives(self):
        # psi(x) = 1/2 + x/24 + x^2/720 + ...: at 0, psi' = 1/24 and psi''/2 = 1/720
        d1, d2 = psi_divided_differences(np.zeros(3))
        assert np.abs(d1 - 1 / 24).max() <= 1e-16
        assert np.abs(d2 - 1 / 720).max() <= 1e-17
        # a repeated pair away from 0: psi[x, x] = psi'(x), against a central difference
        x, h = -1.3, 1e-5
        d1, _ = psi_divided_differences(np.array([x, x]))
        slope = (psi_reference(np.array(x + h)) - psi_reference(np.array(x - h))) / (2 * h)
        assert d1[0, 1] == pytest.approx(float(slope), rel=1e-9)

    def test_rejects_spectra_past_the_series_range(self):
        psi_divided_differences(np.array([PSI_SERIES_MIN, 0.0]))
        for bad in (np.nextafter(PSI_SERIES_MIN, -np.inf), -np.inf, np.nan):
            with pytest.raises(NumericRangeError):
                psi_divided_differences(np.array([bad, 0.0]))


def default_scan_spectra():
    """The spectra of ad^2 at the points of the default seven-group scan
    (20 samples, seed 0), one array (20, d) per group."""
    k, out = resolve_k("auto"), []
    for i, name in enumerate(("su2", "su3", "so3", "so4", "so5", "sp1", "sp2")):
        spec = parse_group_name(name)
        pts = sample_safe_points(metric_field(spec, CHART, k), 20, np.random.default_rng([0, i]))
        out.append(_exp_metric(spec, pts, k)[1])
    return out


def injected_spectra():
    """Random spectra in [-(2 pi)^2, 0] with round-off zeros injected: 0,
    +-1e-17 and 1e-30."""
    rng = np.random.default_rng(11)
    out = []
    for d in (3, 8, 10, 15):
        mu = rng.uniform(PSI_SERIES_MIN, 0.0, (20, d))
        mu[:, :3] = rng.choice([0.0, 1e-17, -1e-17, 1e-30], (20, 3))
        out.append(mu)
    return out


class TestSubnormalFreeDividedDifferences:
    @pytest.mark.parametrize("spectra", [default_scan_spectra, injected_spectra],
                             ids=["default-scan", "injected"])
    def test_bitwise_equal_to_unclipped(self, spectra):
        for mu in spectra():
            for got, ref in zip(psi_divided_differences(mu), unclipped_psi_divided_differences(mu)):
                assert got.shape == ref.shape and np.array_equal(got, ref)

    def test_unclipped_powers_are_subnormal(self):
        # the case the floor exists for: mu = 1e-17 reaches 1e-17^19 = 1e-323
        mu = np.concatenate(injected_spectra()[:1] + default_scan_spectra()[:1], axis=1)
        powers = mu[..., None] ** np.arange(20)
        assert ((powers != 0) & (np.abs(powers) < np.finfo(float).tiny)).any()

    @pytest.mark.parametrize("spectra", [default_scan_spectra, injected_spectra],
                             ids=["default-scan", "injected"])
    def test_no_subnormal_reaches_the_hankel_products(self, spectra, monkeypatch):
        seen = []

        class Recording(np.ndarray):  # records the Vandermonde rows multiplied into H1, H2
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                seen.extend(x for x in inputs if not isinstance(x, Recording))
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        monkeypatch.setattr(kernel, "_PSI_H1", kernel._PSI_H1.view(Recording))
        monkeypatch.setattr(kernel, "_PSI_H2", kernel._PSI_H2.view(Recording))
        smallest = min(kernel._PSI_H1.min(), kernel._PSI_H2.min())
        for mu in spectra():
            psi_divided_differences(mu)
        assert len(seen) == 2 * len(spectra())
        for v in seen:
            nonzero = np.abs(v[v != 0])
            assert nonzero.min() * smallest >= np.finfo(float).tiny

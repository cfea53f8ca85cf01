"""Torus equivariance of the exponential chart, a test oracle.

exp(Ad_h theta) = h exp(theta) h^-1 and conjugation is an isometry of
k Tr(w^dag w), so the chart metric at theta and at its conjugate theta_H in
a maximal torus differ by an orthogonal map: the eigenvalues of g and of
the Ricci endomorphism g^-1 Ric agree at both points.  theta_H comes from
the spectrum of the Hermitian matrix iA, A = theta^a X_a: from a torus frame,
or from the eigenvalues alone, with no eigenvectors.  ad_H commutes with every
other ad_H' of the torus, so the eigenvectors R_0 of ad_H0^2 at one generic
torus point diagonalize ad_H^2 at them all, and the exp jet's rotated
structure constants F~ built from R_0 serve the whole torus.
"""

import numpy as np
import pytest
import scipy.linalg

from lieforge.catalog import parse_group_name
from lieforge.charts import safe_domain
from lieforge.curvature import riemann_ricci, sample_safe_points
from lieforge.metric import metric_field
from lieforge.scan import verdict

SPECTRAL_GROUPS = ["su2", "su3", "su4", "su5", "so3", "so4", "so5", "so6", "so7",
                   "sp1", "sp2", "sp3"]


def torus_frame(spec, a: np.ndarray) -> np.ndarray:
    """A unitary V with V^H A V in the maximal torus of ``spec``'s family."""
    if spec.family == "SO":  # 2 x 2 blocks +-w
        return scipy.linalg.schur(a.real, output="real")[1]
    w, v = np.linalg.eigh(1j * a)
    if spec.family == "SU":  # diagonal
        return v
    n = spec.n  # Sp: pairs +-w, from the eigenvectors of w > 0 and J conj of them
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    plus = v[:, w > 0]
    return np.hstack([plus, j @ plus.conj()])


def torus_point(spec, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta_H^a = 2 Re Tr(X_a^dag A_H) and A_H = V^H A V."""
    x = spec.generators
    a = np.einsum("a,aij->ij", theta, x)
    v = torus_frame(spec, a)
    a_h = v.conj().T @ a @ v
    return 2.0 * np.einsum("aij,ij->a", x.conj(), a_h).real, a_h


def torus_mask(spec, a_h: np.ndarray) -> np.ndarray:
    """Where A_H, if in the maximal torus, may be nonzero: the diagonal, and
    for so(n) n // 2 disjoint 2 x 2 blocks wherever the real Schur form put them."""
    n = spec.matrix_size
    mask = np.eye(n, dtype=bool)
    if spec.family == "SO":
        starts = np.flatnonzero(np.abs(np.diag(a_h, 1)) > 1e-13)
        assert len(starts) == n // 2 and np.all(np.diff(starts) >= 2)
        mask[starts, starts + 1] = mask[starts + 1, starts] = True
    return mask


@pytest.mark.parametrize("name", ["su3", "su4", "so5", "so6", "sp2", "sp3"])
def test_metric_and_ricci_spectra_are_torus_invariant(name):
    spec = parse_group_name(name)
    dom, field = safe_domain(spec, "exp"), metric_field(spec, "exp", 2.0)
    for theta in np.random.default_rng(1).uniform(dom.lo, dom.hi, (10, spec.dim)):
        theta_h, a_h = torus_point(spec, theta)
        assert np.abs(a_h[~torus_mask(spec, a_h)]).max() < 1e-13
        assert np.abs(np.einsum("a,aij->ij", theta_h, spec.generators) - a_h).max() < 1e-13
        assert np.linalg.norm(theta_h) == pytest.approx(np.linalg.norm(theta), abs=1e-13)
        at, at_h = riemann_ricci(field, theta), riemann_ricci(field, theta_h)
        g, g_h = field(theta)[0], field(theta_h)[0]
        assert np.abs(np.linalg.eigvalsh(g) - np.linalg.eigvalsh(g_h)).max() < 1e-13
        assert np.abs(scipy.linalg.eigvalsh(at.ricci, g)
                      - scipy.linalg.eigvalsh(at_h.ricci, g_h)).max() < 1e-13


def torus_rank(spec) -> int:
    """How many eigenvalues of iA place A_H: su(n) all n, so(n) and sp(n) their top n // 2 and n."""
    return spec.n // 2 if spec.family == "SO" else spec.n


def torus_coords(spec, w: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """theta_H^a = 2 Re Tr(X_a^dag H) at the torus elements H of weights w (m, rank):
    su(n) H = sum_j w_j (-i E_jj), its trace projected out; so(n) w_j on the
    rotation plane (2j, 2j + 1); sp(n) H = sum_j w_j (i E_jj - i E_{n+j,n+j}).
    With a group element g, the same points of the conjugate torus g H g^-1."""
    m, s, j = len(w), spec.matrix_size, np.arange(w.shape[1])
    h = np.zeros((m, s, s), dtype=complex)
    if spec.family == "SU":
        h[:, j, j] = -1j * w
    elif spec.family == "SO":
        h[:, 2 * j + 1, 2 * j], h[:, 2 * j, 2 * j + 1] = w, -w
    else:
        h[:, j, j], h[:, spec.n + j, spec.n + j] = 1j * w, -1j * w
    if g is not None:
        h = g @ h @ g.conj().T
    return 2.0 * np.einsum("aij,mij->ma", spec.generators.conj(), h).real


def spectral_torus_point(spec, theta: np.ndarray) -> np.ndarray:
    """theta_H at points (m, d) from the top ``torus_rank`` eigenvalues of iA alone."""
    w = np.linalg.eigvalsh(1j * np.einsum("ma,aij->mij", theta, spec.generators))
    return torus_coords(spec, w[:, w.shape[1] - torus_rank(spec):])


@pytest.mark.parametrize("name", SPECTRAL_GROUPS)
def test_the_spectrum_of_ia_alone_places_the_torus_point(name):
    spec = parse_group_name(name)
    field = metric_field(spec, "exp", 2.0)
    theta = sample_safe_points(field, 20, np.random.default_rng(0))  # the verdict's points
    theta_h = spectral_torus_point(spec, theta)
    assert np.abs(np.linalg.norm(theta_h, axis=1) - np.linalg.norm(theta, axis=1)).max() <= 1e-13
    plain = verdict(field, 20, 1e-6, 0)
    on_torus = verdict(field._replace(jet=lambda p: field.jet(spectral_torus_point(spec, p))),
                       20, 1e-6, 0)
    assert plain.passed and on_torus.passed
    assert abs(on_torus.lambda_hat - plain.lambda_hat) <= 1e-13


def torus_frame_errors(spec, w0: np.ndarray, g: np.ndarray | None) -> tuple[float, float]:
    """R0 from ad_H0^2 at the torus point of weights w0 and F~_e = R0^T (sum_c R0_ce F_c) R0
    by three mode products, once; then at 10 random torus points, relative to
    the largest entry, the worst |F~ . (R0^T theta) - R0^T ad R0| and the worst
    off-diagonal entry of R0^T ad^2 R0."""
    d, rank, f = spec.dim, torus_rank(spec), spec.structure.reshape(spec.dim, -1)
    ad0 = (torus_coords(spec, w0, g) @ f).reshape(d, d)
    r0 = np.linalg.eigh(ad0 @ ad0)[1]
    f_tilde = r0.T @ ((r0.T @ f).reshape(d, d, d) @ r0)
    theta = torus_coords(spec, np.random.default_rng(2).uniform(-2.0, 2.0, (10, rank)), g)
    ad = (theta @ f).reshape(-1, d, d)
    ad_r = ((theta @ r0) @ f_tilde.reshape(d, d * d)).reshape(-1, d, d)
    x = ad_r @ ad_r
    off = x - x.diagonal(0, 1, 2)[..., None] * np.eye(d)
    return (float((np.abs(ad_r - r0.T @ ad @ r0).max((1, 2)) / np.abs(ad).max((1, 2))).max()),
            float((np.abs(off).max((1, 2)) / np.abs(x).max((1, 2))).max()))


@pytest.mark.parametrize("torus", ["table", "conjugate"])
@pytest.mark.parametrize("name", SPECTRAL_GROUPS)
def test_one_generic_torus_frame_serves_the_whole_torus(name, torus):
    """The catalog basis is nearly adapted to the table's torus, so R0 is
    nearly a permutation there; on a conjugate torus it is not, and only a
    generic w0, no two roots alike at it, gives a frame that serves them all."""
    spec = parse_group_name(name)
    rank, g = torus_rank(spec), None
    if torus == "conjugate":
        theta = np.random.default_rng(3).normal(size=spec.dim)
        g = scipy.linalg.expm(np.einsum("a,aij->ij", theta, spec.generators))
    generic = np.sqrt([[2.0, 3.0, 5.0, 7.0, 11.0][:rank]])
    assert max(torus_frame_errors(spec, generic, g)) <= 1e-13
    if g is not None and rank > 1:  # equal weights put two roots alike, or H0 = 0 on su2
        assert torus_frame_errors(spec, np.ones((1, rank)), g)[1] > 1e-3

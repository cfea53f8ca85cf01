"""Torus equivariance of the exponential chart, a test oracle.

exp(Ad_h theta) = h exp(theta) h^-1 and conjugation is an isometry of
k Tr(w^dag w), so the chart metric at theta and at its conjugate theta_H in
a maximal torus differ by an orthogonal map: the eigenvalues of g and of
the Ricci endomorphism g^-1 Ric agree at both points.  theta_H comes from
the spectrum of the Hermitian matrix iA, A = theta^a X_a.
"""

import numpy as np
import pytest
import scipy.linalg

from lieforge.catalog import parse_group_name
from lieforge.charts import safe_domain
from lieforge.curvature import riemann_ricci
from lieforge.metric import metric_field


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

"""Dense matrix kernels: the real psi function and its divided differences,
the exponential of anti-Hermitian matrices, and first-order forward-mode dual
arithmetic.

``psi`` evaluates psi(x) = sum_n x^n / (2n+2)! on a spectrum.  For skew M,
phi(M)^T phi(M) = 2 psi(M^2) with phi(z) = (1 - e^{-z}) / z, so the
exponential-chart metric is psi of the square of the adjoint representation,
taken on the eigenvalues of that square.  ``psi_divided_differences`` gives
the first and second divided differences of psi on a spectrum, from which
that metric's exact derivatives follow.

Dual values are numpy slot stacks.  The slot axis comes just before the
value's own axes: ``(..., p+1, n, n)`` for matrices, ``(..., p+1)`` for
scalars.  Slot 0 is the value, slots ``1..p`` are the partial derivatives,
one per seeded coordinate direction.  ``expm_dual`` gives U(theta) and its
partials on the exponential chart from one eigendecomposition of the
anti-Hermitian value slot; its frames are the oracle the psi-based metric is
tested against.  Scalar stacks give the sphere embedding's Jacobian.  All kernel
operations broadcast over leading batch axes.
"""

import math

import numpy as np

from .errors import InvalidInputError, NumericRangeError, SingularityError

_SKEW_TOL = 1e-12  # expm_dual rejects max|A_0 + A_0^H| > _SKEW_TOL max|A_0|

# Taylor coefficients c_n = 1 / (2n+2)! of psi(x) = (cosh(sqrt x) - 1) / x
# in the Hankel forms of its divided differences, with powers mu^p, p < 20.
# On [PSI_SERIES_MIN, 0] the first omitted terms stay below 1e-21.
PSI_SERIES_MIN = -(2 * np.pi) ** 2
_PSI_TERMS = 20
_PSI_C = np.array([1.0 / math.factorial(2 * n + 2) for n in range(3 * _PSI_TERMS)])
_POWERS = np.arange(_PSI_TERMS)
_PSI_H1 = _PSI_C[_POWERS[:, None] + _POWERS + 1]
_PSI_H2 = _PSI_C[_POWERS[:, None, None] + _POWERS[:, None] + _POWERS + 2].reshape(_PSI_TERMS, -1)

CONDITION_LIMIT = 1e12


def mat_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a well-conditioned square matrix.

    Raises ``SingularityError`` (carrying the condition estimate) when the
    condition number reaches 1e12 or the matrix is exactly singular.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-1] != a.shape[-2]:
        raise InvalidInputError(f"cannot invert non-square matrix of shape {a.shape}")
    cond = np.linalg.cond(a)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst >= CONDITION_LIMIT:
        raise SingularityError(
            f"matrix condition estimate {worst:.3e} exceeds {CONDITION_LIMIT:.0e}",
            condition=worst,
        )
    return np.linalg.inv(a)


def dual_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two scalar stacks: first-order Leibniz rule in the partials."""
    parts = a[..., :1] * b[..., 1:] + a[..., 1:] * b[..., :1]
    return np.concatenate([a[..., :1] * b[..., :1], parts], axis=-1)


def psi(mu: np.ndarray) -> np.ndarray:
    """psi(mu) = (cosh(sqrt mu) - 1) / mu = (sin(h) / h)^2 / 2 at h = sqrt(-mu) / 2,
    exact for every mu <= 0, the spectrum of ad^2.  The floor on h^2 reads
    round-off above 0 as 0 and keeps 0 / 0 out: sin(h) / h is 1 there."""
    h = np.sqrt(np.maximum(-0.25 * np.asarray(mu, dtype=float), 1e-300))
    s = np.sin(h) / h
    return 0.5 * s * s


def psi_divided_differences(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi[mu_i, mu_j] and psi[mu_i, mu_k, mu_j] for spectra (..., d) in
    [PSI_SERIES_MIN, 0].

    The divided differences of x^n are complete homogeneous polynomials
    (Higham 2008, Functions of Matrices, section 3.2), so with the Vandermonde
    rows v_i = (mu_i^p)_{p < 20} they are Hankel forms in the Taylor
    coefficients c_n: D1_ij = v_i^T H1 v_j with H1_pq = c_{p+q+1}, symmetrized,
    and D2_ikj = H2(v_i, v_k, v_j) with H2_pqr = c_{p+q+r+2}.  Both are exact
    where the mu coincide, with no branch and no sorting.  Powers below
    1e-100, from the round-off zeros of ad^2 (|mu| ~ 1e-17), are set to 0:
    subnormal products are slow, and the dropped terms lie far below the
    last bit of the sums, so D1 and D2 are unchanged.
    """
    mu = np.asarray(mu, dtype=float)
    low = float(mu.min(initial=0.0))
    if not low >= PSI_SERIES_MIN:
        raise NumericRangeError(
            f"divided differences of psi need eigenvalues >= {PSI_SERIES_MIN:.4f}, got {low:.4g}")
    n, d = _PSI_TERMS, mu.shape[-1]
    v = np.empty(mu.shape + (n,))  # [..., i, p] = mu_i^p
    v[..., 0], v[..., 1:] = 1.0, mu[..., None]
    np.cumprod(v, axis=-1, out=v)
    np.copyto(v, 0.0, where=np.abs(v) < 1e-100)  # times c_n >= 1 / 120!, still normal
    vt = np.swapaxes(v, -1, -2)
    d1 = v @ _PSI_H1 @ vt
    t = (v @ _PSI_H2).reshape(mu.shape[:-1] + (d * n, n)) @ vt
    t = t.reshape(v.shape + (d,))  # [..., i, q, j]
    return 0.5 * (d1 + np.swapaxes(d1, -1, -2)), v[..., None, :, :] @ t


def expm_dual(a: np.ndarray) -> np.ndarray:
    """Exponential of a dual stack whose value slot A_0 is anti-Hermitian.

    With iA_0 = Q diag(w) Q^H, e^{A_0} = Q diag(e^{-iw}) Q^H, and a partial
    slot A_p maps to the Frechet derivative Q (E o Q^H A_p Q) Q^H with
    E_ij = e^{-i(w_i + w_j)/2} sinc((w_i - w_j)/2) (Daleckii-Krein; Higham
    2008, Functions of Matrices, section 3.2).  E is exact where eigenvalues
    coincide, so no scaling, squaring or solve is involved.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 3 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError(f"expm needs square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericRangeError("non-finite entries in expm input")
    a0 = a[..., 0, :, :]
    skew = float(np.max(np.abs(a0 + np.swapaxes(a0, -1, -2).conj()), initial=0.0))
    if skew > _SKEW_TOL * float(np.max(np.abs(a0), initial=0.0)):
        raise InvalidInputError(f"expm needs an anti-Hermitian value; |A + A^H| reaches {skew:.3e}")
    w, q = np.linalg.eigh(1j * a0)
    q, qh = q[..., None, :, :], np.swapaxes(q, -1, -2).conj()[..., None, :, :]
    phase = np.exp(-0.5j * w)
    half = 0.5 * w[..., :, None] - 0.5 * w[..., None, :]  # no overflow at large w
    e = phase[..., :, None] * phase[..., None, :] * np.sinc(half / np.pi)
    out = np.empty_like(a)
    out[..., :1, :, :] = (q * phase[..., None, None, :] ** 2) @ qh
    out[..., 1:, :, :] = q @ ((qh @ a[..., 1:, :, :] @ q) * e[..., None, :, :]) @ qh
    return out


"""Dense matrix kernels: the real psi function and its divided differences,
the exponential of anti-Hermitian matrices, and first-order forward-mode dual
arithmetic.

``psim`` evaluates psi(X) = sum_n X^n / (2n+2)! for batches of real
matrices.  For skew M, phi(M)^T phi(M) = 2 psi(M^2) with
phi(z) = (1 - e^{-z}) / z, so the exponential-chart metric applies psi to the
square of the adjoint representation.  ``psi_divided_differences`` gives the
first and second divided differences of psi on a spectrum, from which that
metric's exact derivatives follow.

Dual values are numpy slot stacks.  The slot axis comes just before the
value's own axes: ``(..., p+1, n, n)`` for matrices, ``(..., p+1)`` for
scalars.  Slot 0 is the value, slots ``1..p`` are the partial derivatives,
one per seeded coordinate direction.  ``expm_dual`` gives U(theta) and its
partials for the charts from one eigendecomposition of the anti-Hermitian
value slot; its frames are the oracle the psi-based metric is tested
against.  Scalar stacks give the sphere embedding's Jacobian.  All kernel
operations broadcast over leading batch axes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidInputError, NumericRangeError, SingularityError

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_1, SIGMA_2, SIGMA_3)

_MAX_SQUARINGS = 64
_SKEW_TOL = 1e-12  # expm_dual rejects max|A_0 + A_0^H| > _SKEW_TOL max|A_0|

# Taylor coefficients 1 / (2n+2)! of psi(x) = (cosh(sqrt x) - 1) / x.  At
# ||X||_1 <= 1 the first omitted term is below 1 / 20! = 4.1e-19.
_PSI_THETA = 1.0
_PSI_TAYLOR = tuple(1.0 / math.factorial(2 * n + 2) for n in range(9))

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


def _scaling(values: np.ndarray, theta: float, what: str) -> int:
    """Halvings s that bring the batch's largest 1-norm to at most ``theta``.

    One s serves the whole batch, so every matrix in it goes through the
    same arithmetic and finite differences across the batch stay smooth.
    """
    if values.shape[-1] != values.shape[-2]:
        raise InvalidInputError(f"{what} needs square matrices, got shape {values.shape}")
    norm = float(np.max(np.abs(values).sum(axis=-2), initial=0.0))
    if not math.isfinite(norm):
        raise NumericRangeError(f"non-finite entries in {what} input")
    if norm <= theta:
        return 0
    s = int(math.ceil(math.log2(norm / theta)))
    if s > _MAX_SQUARINGS:
        raise NumericRangeError(f"{what} input norm {norm:.3e} exceeds the scaling budget")
    return s


def psim(x: np.ndarray) -> np.ndarray:
    """psi(X) = sum_n X^n / (2n+2)! for a batch of real matrices (..., d, d).

    The degree-8 series at X / 4^s in Paterson-Stockmeyer form (products X^2
    and X^3), then s doublings psi(4X) = psi(X) (I + X psi(X) / 2).
    """
    x = np.asarray(x, dtype=float)
    s = (_scaling(x, _PSI_THETA, "psim") + 1) // 2
    x = x / (4.0 ** s)
    c = _PSI_TAYLOR
    ident = np.eye(x.shape[-1])
    x2 = x @ x
    x3 = x2 @ x
    p = c[6] * ident + c[7] * x + c[8] * x2
    p = c[3] * ident + c[4] * x + c[5] * x2 + x3 @ p
    p = c[0] * ident + c[1] * x + c[2] * x2 + x3 @ p
    for _ in range(s):
        p = p + 0.5 * (p @ (x @ p))
        x = 4.0 * x
    return p


@functools.lru_cache(maxsize=16)
def _sorted_triples(d: int):
    """The d(d+1)(d+2)/6 index triples i <= k <= j of range(d), and for the
    ordered triples (i, k, j), (min, max, max) of (i, j) and (i, i, i) the
    position of their sorted form among them."""
    idx = np.indices((d, d, d)).reshape(3, -1)
    srt = np.sort(idx, axis=0)
    keep = np.all(srt == idx, axis=0)
    pos = np.zeros(d ** 3, dtype=np.intp)
    pos[keep] = np.arange(int(keep.sum()))
    at = pos.reshape(d, d, d)
    ar = np.arange(d)
    lo, hi = np.minimum.outer(ar, ar), np.maximum.outer(ar, ar)
    out = (idx[:, keep], pos[np.ravel_multi_index(srt, (d, d, d))].reshape(d, d, d),
           at[lo, hi, hi], at[ar, ar, ar])
    for a in out:
        a.setflags(write=False)
    return out


def psi_divided_differences(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi(mu_i), psi[mu_i, mu_j] and psi[mu_i, mu_k, mu_j] for spectra (..., d).

    psi of the upper-bidiagonal [[mu_i, 1, 0], [0, mu_k, 1], [0, 0, mu_j]]
    carries psi(mu_i), psi[mu_i, mu_k] and psi[mu_i, mu_k, mu_j] in its
    first row (Opitz 1964; Higham 2008, Functions of Matrices, section 3.2),
    exact where the mu coincide.  Divided differences are symmetric in their
    arguments, so one ``psim`` call runs on every spectrum's sorted triples
    only and the results are scattered to every ordering.
    """
    mu = np.asarray(mu, dtype=float)
    tri, order2, order1, order0 = _sorted_triples(mu.shape[-1])
    b = np.zeros(mu.shape[:-1] + (tri.shape[1], 9))  # row-major 3 x 3
    b[..., ::4] = mu[..., tri.T]
    b[..., 1:6:4] = 1.0
    p = psim(b.reshape(b.shape[:-1] + (3, 3)))[..., 0, :]
    return p[..., order0, 0], p[..., order1, 1], p[..., order2, 2]


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


def expm(a: np.ndarray) -> np.ndarray:
    """Plain (non-dual) matrix exponential via the same kernel."""
    return expm_dual(np.asarray(a, dtype=complex)[..., None, :, :])[..., 0, :, :]

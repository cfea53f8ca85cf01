"""Dense matrix kernels: the real phi function and dual-propagated expm.

``phim`` evaluates phi(M) = (1 - e^{-M}) / M for batches of real matrices;
the exponential-chart metric applies it to the adjoint representation.

Dual-valued matrices are stored as numpy stacks of shape ``(..., p+1, n, n)``:
slot 0 along the third-to-last axis is the value matrix, slots ``1..p`` are
the partial-derivative matrices, one per seeded coordinate direction.  The
dual Pade exponential gives U(theta) and its partials for the charts, and
its frames are the oracle the phi-based metric is tested against.  All
kernel operations broadcast over leading batch axes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, NumericRangeError, SingularityError

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_1, SIGMA_2, SIGMA_3)

# Pade-13 numerator coefficients (denominator = numerator with alternating signs)
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152
_MAX_SQUARINGS = 64

# Taylor coefficients (-1)^k / (k+1)! of phi(z) = (1 - e^{-z}) / z.  At
# ||M||_1 <= 1/2 the first omitted term is below 0.5^15 / 16! = 1.5e-18.
_PHI_THETA = 0.5
_PHI_TAYLOR = tuple((-1.0) ** k / math.factorial(k + 1) for k in range(15))

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


# ---------------------------------------------------------------------------
# dual-matrix stack primitives
# ---------------------------------------------------------------------------

def dual_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two dual stacks: first-order Leibniz rule in the partials."""
    value = a[..., :1, :, :] @ b[..., :1, :, :]
    parts = a[..., :1, :, :] @ b[..., 1:, :, :] + a[..., 1:, :, :] @ b[..., :1, :, :]
    return np.concatenate([value, parts], axis=-3)


def dual_eye(n: int, ndirections: int, batch_shape=()) -> np.ndarray:
    out = np.zeros(batch_shape + (ndirections + 1, n, n), dtype=complex)
    out[..., 0, :, :] = np.eye(n)
    return out


def dual_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for dual stacks: x_i = a0^{-1} (b_i - a_i x0)."""
    a0 = a[..., 0, :, :]
    x0 = np.linalg.solve(a0, b[..., 0, :, :])
    rhs = b[..., 1:, :, :] - a[..., 1:, :, :] @ x0[..., None, :, :]
    parts = np.linalg.solve(a0[..., None, :, :], rhs)
    return np.concatenate([x0[..., None, :, :], parts], axis=-3)


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


def phim(m: np.ndarray) -> np.ndarray:
    """phi(M) = (1 - e^{-M}) / M for a batch of real matrices (..., d, d).

    Taylor series at M / 2^s, then s doublings
    phi(2M) = phi(M) (I + e^{-M}) / 2 and e^{-2M} = (e^{-M})^2.
    """
    m = np.asarray(m, dtype=float)
    s = _scaling(m, _PHI_THETA, "phim")
    m = m / (2.0 ** s)
    c = _PHI_TAYLOR
    ident = np.eye(m.shape[-1])
    p = c[-1] * m + c[-2] * ident
    for ck in c[-3::-1]:
        p = m @ p + ck * ident
    e = ident - m @ p  # e^{-M} = I - M phi(M)
    for _ in range(s):
        p = 0.5 * (p + p @ e)
        e = e @ e
    return p


def expm_dual(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a dual stack by Pade-13 scaling and squaring.

    The dual partials ride through the same approximant, so the partial
    slots of the result are the exact derivatives of the computed value.
    """
    a = np.asarray(a, dtype=complex)
    s = _scaling(a[..., 0, :, :], _PADE13_THETA, "expm")
    a = a / (2.0 ** s)

    b = _PADE13_B
    n = a.shape[-1]
    p = a.shape[-3] - 1
    ident = dual_eye(n, p, a.shape[:-3])
    a2 = dual_matmul(a, a)
    a4 = dual_matmul(a2, a2)
    a6 = dual_matmul(a2, a4)
    u = dual_matmul(
        a,
        dual_matmul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident,
    )
    v = (
        dual_matmul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = dual_solve(v - u, v + u)
    for _ in range(s):
        r = dual_matmul(r, r)
    if not np.all(np.isfinite(r)):
        raise NumericRangeError("expm produced non-finite entries")
    return r


def expm(a: np.ndarray) -> np.ndarray:
    """Plain (non-dual) matrix exponential via the same kernel."""
    return expm_dual(np.asarray(a, dtype=complex)[..., None, :, :])[..., 0, :, :]

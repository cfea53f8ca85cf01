"""Dense matrix kernels: the real psi function and first-order
forward-mode dual arithmetic.

``psim`` evaluates psi(X) = sum_n X^n / (2n+2)! for batches of real
matrices.  For skew M, phi(M)^T phi(M) = 2 psi(M^2) with
phi(z) = (1 - e^{-z}) / z, so the exponential-chart metric applies psi to the
square of the adjoint representation.

Dual values are numpy slot stacks.  The slot axis comes just before the
value's own axes: ``(..., p+1, n, n)`` for matrices, ``(..., p+1)`` for
scalars.  Slot 0 is the value, slots ``1..p`` are the partial derivatives,
one per seeded coordinate direction.  The dual Pade exponential gives
U(theta) and its partials for the charts, and its frames are the oracle the
psi-based metric is tested against; scalar stacks give the sphere
embedding's Jacobian.  All kernel operations broadcast over leading batch
axes.
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


# ---------------------------------------------------------------------------
# dual stack primitives
# ---------------------------------------------------------------------------

def dual_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two dual stacks: first-order Leibniz rule in the partials."""
    value = a[..., :1, :, :] @ b[..., :1, :, :]
    parts = a[..., :1, :, :] @ b[..., 1:, :, :] + a[..., 1:, :, :] @ b[..., :1, :, :]
    return np.concatenate([value, parts], axis=-3)


def dual_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two scalar stacks, by the same Leibniz rule."""
    parts = a[..., :1] * b[..., 1:] + a[..., 1:] * b[..., :1]
    return np.concatenate([a[..., :1] * b[..., :1], parts], axis=-1)


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

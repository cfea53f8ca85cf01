import math

import numpy as np
import pytest

from lieforge.catalog import make_group
from lieforge.kernel import PAULI, _scaling


@pytest.fixture(scope="session")
def su2():
    return make_group("su", 2)


@pytest.fixture(scope="session")
def pauli():
    return PAULI


def su2_closed_form_u(theta):
    """Closed-form SU(2) element cos(|t|/2) I + i sin(|t|/2) sigma.that."""
    theta = np.asarray(theta, dtype=float)
    t = np.linalg.norm(theta)
    if t < 1e-300:
        return np.eye(2, dtype=complex)
    sig = sum(th * s for th, s in zip(theta, PAULI))
    return np.cos(t / 2) * np.eye(2) + 1j * np.sin(t / 2) * sig / t


def fd_derivative(f, x, direction, h=1e-4, richardson=True):
    """Independent 4th-order central-difference oracle (optionally one
    Richardson halving) for matrix- or scalar-valued f of a vector."""
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[direction] = 1.0

    def central(step):
        return (
            f(x - 2 * step * e) - 8 * f(x - step * e)
            + 8 * f(x + step * e) - f(x + 2 * step * e)
        ) / (12 * step)

    if not richardson:
        return central(h)
    return (16 * central(h / 2) - central(h)) / 15


def killing_lambda(f):
    """Einstein constant -B_aa / 8 of the bi-invariant metric, B_ab = f_aec f_bce.

    With g = I in the normalized basis, Ric = -B / 4 = 2 Lambda g.
    """
    b = np.einsum("aec,bce->ab", f, f)
    assert np.abs(b - b[0, 0] * np.eye(len(b))).max() < 1e-12
    return -b[0, 0] / 8.0


_PHI_TAYLOR = tuple((-1.0) ** k / math.factorial(k + 1) for k in range(15))


def phim(m):
    """Oracle phi(M) = (1 - e^{-M}) / M for a batch of real matrices (..., d, d).

    Degree-14 Taylor series at M / 2^s with ||M / 2^s||_1 <= 1/2 (first
    omitted term below 1.5e-18), then s doublings
    phi(2M) = phi(M) (I + e^{-M}) / 2 and e^{-2M} = (e^{-M})^2.  The
    exp-chart metric k phi(ad)^T phi(ad) / 2 built from it is what the
    production psi form is checked against.
    """
    m = np.asarray(m, dtype=float)
    s = _scaling(m, 0.5, "phim")
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

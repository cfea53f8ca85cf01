import numpy as np
import pytest

from lieforge.catalog import make_group
from lieforge.kernel import PAULI


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

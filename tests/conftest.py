import math

import numpy as np
import pytest

from lieforge.catalog import make_group
from lieforge.charts import safe_domain
from lieforge.errors import InvalidInputError, NumericRangeError
from lieforge.kernel import PAULI
from oracles import metric_jet


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
    phi(2M) = phi(M) (I + e^{-M}) / 2 and e^{-2M} = (e^{-M})^2.  Each matrix
    has its own s, so its value does not depend on the rest of the batch.
    The exp-chart metric k phi(ad)^T phi(ad) / 2 built from it is what the
    production psi form is checked against.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"phim needs square matrices, got shape {m.shape}")
    norm = np.abs(m).sum(axis=-2).max(axis=-1)
    if not np.all(norm <= 2.0 ** 60):  # nan and inf too
        raise NumericRangeError(f"phim input norm {np.max(norm):.3e} is out of range")
    s = np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5)).astype(int)
    m = m / (2.0 ** s)[..., None, None]
    c = _PHI_TAYLOR
    ident = np.eye(m.shape[-1])
    p = c[-1] * m + c[-2] * ident
    for ck in c[-3::-1]:
        p = m @ p + ck * ident
    e = ident - m @ p  # e^{-M} = I - M phi(M)
    for i in range(int(np.max(s, initial=0))):
        more = (s > i)[..., None, None]
        p = np.where(more, 0.5 * (p + p @ e), p)
        e = np.where(more, e @ e, e)
    return p


def riemann_tensor(field, point, jet=None):
    """Oracle R^d_cab = d_a Gamma^d_bc - d_b Gamma^d_ac + Gamma^d_ae Gamma^e_bc
    - Gamma^d_be Gamma^e_ac at one point, from ``jet`` (a full (g, dg, ddg)
    jet such as ``oracles.exp_full_jet``; the stencil when it is None), with
    d_e Gamma^c_ab = g^cd (d_e Gamma_dab - d_e g_dq Gamma^q_ab).  Its
    contraction R^c_acb is the Ricci tensor that production forms from
    traces without this d^4 array."""
    point = np.asarray(point, dtype=float)
    g, dg, ddg = metric_jet(field, point) if jet is None else jet(point)
    d = len(g)
    ginv = np.linalg.inv(g)

    def lower(x):  # Gamma_dab = (d_a g_db + d_b g_da - d_d g_ab) / 2, one more slot in front
        return 0.5 * (np.swapaxes(x, -3, -2) + np.moveaxis(x, -3, -1) - x)

    gam_flat = ginv @ lower(dg).reshape(d, d * d)
    dlow = lower(ddg).reshape(d, d, d * d)
    gam = gam_flat.reshape(d, d, d)
    dgam = (ginv @ (dlow - dg @ gam_flat)).reshape(d, d, d, d)  # (e, c, a, b) = d_e Gamma^c_ab
    t1 = np.transpose(dgam, (1, 3, 0, 2))  # d_a Gamma^d_bc -> [d, c, a, b]
    t2 = np.transpose(dgam, (1, 3, 2, 0))  # d_b Gamma^d_ac -> [d, c, a, b]
    q1 = np.einsum("dae,ebc->dcab", gam, gam)
    q2 = np.einsum("dbe,eac->dcab", gam, gam)
    return t1 - t2 + q1 - q2


def jet_points(spec):
    """Sampled points, the origin, a generator axis and a point 1e-9 off it."""
    dom = safe_domain(spec, "exp")
    axis = np.zeros(spec.dim)
    axis[0] = 0.8 * dom.hi[0]
    off = axis.copy()
    off[-1] = 1e-9
    rng = np.random.default_rng(35)
    return np.vstack([rng.uniform(dom.lo, dom.hi, (3, spec.dim)), np.zeros(spec.dim), axis, off])

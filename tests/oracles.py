"""Test oracles: code the production pipeline no longer runs, kept to check
what it does run.

- Full second-derivative jets: ``exp_full_jet`` and ``sphere_full_jet`` give
  (g, dg, ddg) with the whole d^4 ``ddg``; ``hess`` contracts that ``ddg``
  with g^-1 into a frame jet's second-derivative term, in chart coordinates,
  ``frame_contractions`` turns dg and ``hess`` into a frame jet's
  eigenframe, ``chart_view`` turns a frame jet back into chart coordinates,
  and ``chart_ricci`` is Ricci by traces in chart coordinates, with
  ``np.linalg.inv``.
- The finite-difference (FD) stencil ``metric_jet``, and ``stencil_field``
  and ``with_stencil``, which give a field the stencil on its own values as
  its jet: hand-written test fields have no closed-form jet.
- Chart frames: ``exp_chart`` and ``euler_chart`` (U and dU at one point),
  ``maurer_cartan`` (the literal U^-1 dU), ``su2_log``, the chart transition
  and the Euler-chart isometry residuals, ``expm``, ``symplectic_form``,
  ``hyperspherical_embedding`` and ``christoffel``.
- The printed closed-form SU(2) metrics and their derivatives.
- Earlier forms of production code that must give bitwise the same
  results: ``uniform_sample_points`` (one ``rng.uniform`` draw),
  ``indexed_sphere_frame_jet`` (diagonals written by fancy indexing) and
  ``unclipped_psi_divided_differences`` (every power of mu kept, subnormal
  ones too).
"""

from dataclasses import dataclass

import numpy as np

from lieforge.catalog import GRAM_CONSTANT
from lieforge.charts import EXP_NORM_MAX, ChartPoint, euler_chart_batch, exp_chart_batch
from lieforge.curvature import _require_inside, riemann_ricci
from lieforge.errors import InvalidInputError, SingularityError
from lieforge.kernel import (_PSI_H1, _PSI_H2, _PSI_TERMS, expm_dual, mat_inverse,
                             psi_divided_differences)
from lieforge.metric import (FrameJet, MetricField, MetricTensor, _exp_spectrum, contract_jet,
                             metric, metric_batch)
from lieforge.sphere import _check_polar, hyperspherical_batch

BASE_STEP = 1e-3
# offsets along each stencil line, in units of the step
_LINE = np.array([-2.0, -1.0, 1.0, 2.0])


def metric_jet(field, points, h=BASE_STEP):
    """g, dg[..., e, a, b] = d_e g_ab and ddg[..., e, f, a, b] = d_e d_f g_ab
    at points (..., d), from one guarded field call on 1 + 4 d^2 distinct rows
    per point: the centre and the offsets {-2, -1, 1, 2} h along the d axes
    e_a and the d (d - 1) diagonals e_a +- e_b.  On the axes dg is the
    4th-order central difference (f(-2) - 8 f(-1) + 8 f(1) - f(2)) / (12 h)
    and the diagonal of ddg is (-f(-2) + 16 f(-1) - 30 f(0) + 16 f(1) - f(2))
    / (12 h^2).  Each mixed d_a d_b g is that second difference of
    q(s) = D(s) / 4, where D(s) = f(s (e_a + e_b)) - f(s (e_a - e_b)) and
    q(0) = 0: (-D(-2) + 16 D(-1) + 16 D(1) - D(2)) / (48 h^2), with the
    diagonals subtracted first because that order sets the round-off.
    Raises DomainError when a row leaves the field's domain.
    """
    points = np.asarray(points, dtype=float)
    lead, d = points.shape[:-1], points.shape[-1]
    eye, (pa, pb) = np.eye(d), np.triu_indices(d, 1)
    lines = np.concatenate([eye, eye[pa] + eye[pb], eye[pa] - eye[pb]])  # (d + 2p, d)
    offsets = (_LINE * h)[None, :, None] * lines[:, None, :]
    stencil = np.concatenate([np.zeros((1, d)), offsets.reshape(-1, d)])
    rows = (points[..., None, :] + stencil).reshape(-1, d)
    _require_inside(field, rows, "finite-difference stencil leaves the safe domain of {1} near {0}")
    vals = field(rows).reshape(lead + (len(stencil), d, d))
    g = vals[..., 0, :, :]
    on_line = np.moveaxis(vals[..., 1:, :, :].reshape(lead + (len(lines), len(_LINE), d, d)), -3, 0)
    fm2, fm1, fp1, fp2 = on_line[..., :d, :, :]
    dg = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    ddg, ar = np.empty(lead + (d, d, d, d)), np.arange(d)
    ddg[..., ar, ar, :, :] = (-fm2 + 16.0 * fm1 - 30.0 * g[..., None, :, :]
                              + 16.0 * fp1 - fp2) / (12.0 * h * h)
    dm2, dm1, dp1, dp2 = on_line[..., d:d + len(pa), :, :] - on_line[..., d + len(pa):, :, :]
    cross = (-dm2 + 16.0 * dm1 + 16.0 * dp1 - dp2) / (48.0 * h * h)
    ddg[..., pa, pb, :, :] = cross
    ddg[..., pb, pa, :, :] = cross
    return g, dg, ddg


def stencil_field(dim, func, domain, name="field", h=BASE_STEP):
    """A MetricField whose jet is the stencil on its own values at step h,
    contracted by ``contract_jet``."""
    def jet(points):
        return contract_jet(*metric_jet(field, points, h))

    field = MetricField(dim=dim, func=func, domain=domain, jet=jet, name=name)
    return field


def with_stencil(field, h=BASE_STEP):
    """``field``'s values, domain and name, with the stencil jet in place of its own."""
    return stencil_field(field.dim, field.func, field.domain, field.name, h)


def christoffel(field, point):
    """Gamma^c_ab at one point, from riemann_ricci and under its condition guard."""
    return riemann_ricci(field, point).gamma


def expm(a):
    """Plain (non-dual) matrix exponential via ``kernel.expm_dual``."""
    return expm_dual(np.asarray(a, dtype=complex)[..., None, :, :])[..., 0, :, :]


def symplectic_form(n):
    """Standard block-antisymmetric form J preserved by sp(n) generators."""
    j = np.zeros((2 * n, 2 * n), dtype=complex)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def hyperspherical_embedding(n_ambient, theta):
    """Point x(theta) on the sphere and its Jacobian frame B_{i,a}."""
    theta = np.asarray(theta, dtype=float)
    _check_polar(n_ambient, theta)
    pts, jac = hyperspherical_batch(n_ambient, theta[None, :])
    return pts[0], jac[0]


@dataclass(frozen=True)
class FrameEvaluation:
    """Group element U and its coordinate derivatives dU_a at one point."""

    U: np.ndarray
    dU: np.ndarray  # (d, n, n)


def exp_chart(spec, theta):
    u, du = exp_chart_batch(spec, np.asarray(theta, dtype=float)[None, :])
    return FrameEvaluation(U=u[0], dU=du[0])


def euler_chart(theta, phi, psi):
    u, du = euler_chart_batch(np.array([[theta, phi, psi]]))
    return FrameEvaluation(U=u[0], dU=du[0])


def evaluate(point):
    if point.chart == "exp":
        return exp_chart(point.group, point.coords)
    return euler_chart(*point.coords)


def chart_transition_check(p_exp, p_euler):
    """Frobenius distance between the group elements of two SU(2) points."""
    if p_exp.group.name != "su2" or p_euler.group.name != "su2":
        raise InvalidInputError("transition check is defined for SU(2) charts")
    return float(np.linalg.norm(evaluate(p_exp).U - evaluate(p_euler).U))


def su2_log(u):
    """Exponential-chart coordinates of an SU(2) element (|theta| < 2*pi)."""
    c = 0.5 * np.real(u[0, 0] + u[1, 1])
    s = np.array([
        0.5 * np.imag(u[0, 1] + u[1, 0]),
        0.5 * np.real(u[0, 1] - u[1, 0]),
        0.5 * np.imag(u[0, 0] - u[1, 1]),
    ])
    sn = np.linalg.norm(s)
    half = np.arctan2(sn, c)
    if sn < 1e-14:
        return np.zeros(3)
    return 2.0 * half * s / sn


def maurer_cartan(frame):
    """w_a = U^{-1} dU_a, one anti-Hermitian matrix per coordinate."""
    return mat_inverse(frame.U)[None, :, :] @ frame.dU


_SHIFTS = {"phi_shift": 1, "psi_shift": 2}


def isometry_residual(cfg, point, which, xi):
    """Frobenius change of the pipeline metric under a printed global shift."""
    if point.chart != "euler":
        raise InvalidInputError("isometry shifts are defined on the euler chart")
    if which not in _SHIFTS:
        raise InvalidInputError(f"unknown isometry {which!r}")
    shifted = np.array(point.coords, dtype=float)
    shifted[_SHIFTS[which]] += xi
    g0 = metric(cfg, point).g
    g1 = metric(cfg, ChartPoint("euler", shifted, point.group)).g
    return float(np.linalg.norm(g1 - g0))


def exp_full_jet(spec, theta, k):
    """g, dg[e, a, b] = d_e g_ab and ddg[e, f, a, b] = d_e d_f g_ab of the
    exponential-chart metric at one point, exact.

    With F_c = spec.structure[c] and ad = theta^c F_c, X = ad^2 =
    Q diag(mu) Q^T has d_a X = F_a ad + ad F_a and d_a d_b X = F_a F_b +
    F_b F_a.  In the eigenbasis, with Xdot_a = Q^T d_a X Q and F'_c = Q^T F_c Q
    (Daleckii & Krein 1965; Higham 2008, Functions of Matrices, section 3.2):
    d_a psi(X) = Q (D1 o Xdot_a) Q^T and
    d_a d_b psi(X) = Q [M_ab + M_ba] Q^T, M_ab = D1 o F'_a F'_b + S_ab,
    S_ab,ij = sum_k D2_ikj Xdot_a,ik Xdot_b,kj, where D1 and D2 are the first
    and second divided differences of psi on mu.  D1 and D2 are symmetric,
    F' skew and Xdot symmetric, so M_ba = M_ab^T; ddg is built a few rows a
    at a time, which keeps the temporaries near d^3.
    """
    theta, d = np.asarray(theta, dtype=float), spec.dim
    ad, mu, q, _ = (x[0] for x in _exp_spectrum(spec, theta))
    g = metric_batch(spec, "exp", theta, k)[0][0]
    d1, d2 = psi_divided_differences(mu)
    fq = q.T @ spec.structure @ q               # [c] = F'_c
    adq = q.T @ ad @ q
    xdot = fq @ adq + adq @ fq                  # [a] = Xdot_a
    kappa = k * GRAM_CONSTANT

    def symmetric(p):  # exactly symmetric in the last two axes
        return kappa * (p + p.swapaxes(-1, -2))

    dg = symmetric(q @ (d1 * xdot) @ q.T)
    ddg = np.empty((d, d, d, d))
    xt = xdot.transpose(2, 1, 0)                # [j, k, b]
    for a in np.array_split(np.arange(d), max(1, d // 8)):
        y = (xdot[a][..., None] * d2).transpose(3, 0, 1, 2).reshape(d, len(a) * d, d)  # [j, ai, k]
        s = (y @ xt).reshape(d, len(a), d, d).transpose(1, 3, 2, 0)                  # [a, b, i, j]
        m = d1 * (fq[a][:, None] @ fq) + s
        ddg[a] = symmetric(q @ (m + m.swapaxes(2, 3)) @ q.T)
    return g, dg, ddg


def sphere_full_jet(theta):
    """Exact g, dg[..., c, a, b] = d_c g_ab and ddg[..., c, e, a, b] of the
    hyperspherical pullback metric at points (..., d), from
    g_aa = prod_{b<a} sin^2 t_b: d_c log g_aa = 2 cot t_c [c < a] and
    d_c d_e log g_aa = -2 csc^2 t_c [c = e < a]."""
    t = np.asarray(theta, dtype=float)
    d, ar = t.shape[-1], np.arange(t.shape[-1])
    sin = np.sin(t[..., :-1])
    diag = np.concatenate([np.ones(t.shape[:-1] + (1,)), np.cumprod(sin * sin, axis=-1)], axis=-1)
    below = np.triu(np.ones((d, d)), 1)[:-1]
    dlog = np.zeros(t.shape + (d,))
    dlog[..., :-1, :] = (2.0 * np.cos(t[..., :-1]) / sin)[..., None] * below
    ddlam = dlog[..., :, None, :] * dlog[..., None, :, :]  # [c, e, a] = d_c d_e g_aa / g_aa
    ddlam[..., ar[:-1], ar[:-1], :] -= (2.0 / (sin * sin))[..., None] * below
    jet = tuple(np.zeros(t.shape + (d,) * k) for k in (1, 2, 3))
    diagonals = (diag, diag[..., None, :] * dlog, diag[..., None, None, :] * ddlam)
    for out, diagonal in zip(jet, diagonals):
        out[..., ar, ar] = diagonal
    return jet


def hess(ginv, ddg):
    """g^cd (d_x d_c g_dy + d_y d_c g_dx - d_c d_d g_xy - d_x d_y g_cd) at
    points (..., d) from g^-1 and a full ddg, in chart coordinates."""
    mixed = np.einsum("...cd,...xcdy->...xy", ginv, ddg)
    return (mixed + np.swapaxes(mixed, -1, -2) - np.einsum("...cd,...cdxy->...xy", ginv, ddg)
            - np.einsum("...cd,...xycd->...xy", ginv, ddg))


def frame_contractions(g, dg, ddg, q):
    """dg and hess of a full jet at one point, with g^-1 = inv(g) in chart
    coordinates, turned into the frame theta = Q theta' of the columns of ``q``."""
    dg_frame = np.einsum("ce,cab->eab", q, q.T @ dg @ q)
    return dg_frame, q.T @ hess(np.linalg.inv(g), ddg) @ q


def chart_ricci(g, dg, ddg):
    """Ricci at one point from a full jet, by the trace formula in chart
    coordinates: with A_y = g^-1 d_y g, Ric_xy = (hess_xy + tr(A_y A_x)) / 2
    - Gamma^c_yq Gamma^q_cx + (Gamma^c_cq - g^cd d_c g_dq) Gamma^q_xy."""
    ginv = np.linalg.inv(g)
    low = 0.5 * (np.einsum("adb->dab", dg) + np.einsum("bda->dab", dg) - dg)
    gam = np.einsum("cd,dab->cab", ginv, low)
    a = ginv @ dg
    tr_aa = np.einsum("yij,xji->xy", a, a)
    w = 0.5 * np.einsum("qii->q", a) - np.einsum("cd,cdq->q", ginv, dg)
    quad = np.einsum("cyq,qcx->xy", gam, gam)
    return 0.5 * (hess(ginv, ddg) + tr_aa) - quad + np.einsum("q,qxy->xy", w, gam)


def chart_view(jet):
    """A frame jet's dg and hess at points (m, ...), turned back into chart
    coordinates: T = Q T' Q^T on every index."""
    q, qt = jet.q, jet.q.swapaxes(1, 2)
    dg = np.einsum("mce,meab->mcab", q, q[:, None] @ jet.dg @ qt[:, None])
    return dg, q @ jet.hess @ qt


def _radial_coeff(t: float) -> float:
    """A(t) = 4 sin^2(t/2) / t^2, Taylor-expanded near t = 0."""
    if t < 1e-4:
        t2 = t * t
        return 1.0 - t2 / 12.0 + t2 * t2 / 360.0 - t2 * t2 * t2 / 20160.0
    s = np.sin(0.5 * t)
    return 4.0 * s * s / (t * t)


def closed_form_metric_su2_exp(theta: np.ndarray) -> MetricTensor:
    """Printed exponential-chart metric and its printed inverse."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3,):
        raise InvalidInputError("su2 exp chart takes 3 coordinates")
    t = float(np.linalg.norm(theta))
    if t >= EXP_NORM_MAX:
        raise SingularityError(
            f"|theta| = {t:.6f} is at or beyond the chart degeneracy at 2*pi",
            point=theta,
        )
    eye = np.eye(3)
    if t < 1e-12:
        g = eye.copy()
        g_inv = eye.copy()
    else:
        proj = np.outer(theta, theta) / (t * t)
        a = _radial_coeff(t)
        g = a * eye + (1.0 - a) * proj
        g_inv = (1.0 / a) * eye + (1.0 - 1.0 / a) * proj
    return MetricTensor(g=g, g_inv=g_inv, condition=float(np.linalg.cond(g)))


def closed_form_su2_exp_metric_derivative(theta: np.ndarray) -> np.ndarray:
    """Analytic d_c g_ab of the printed exponential-chart metric.

    Written as g_ab = p_ab + h(t) (t^2 d_ab - t_a t_b) with p the radial
    projector and h(t) = 2 (1 - cos t) / t^4; returns array [c, a, b].
    """
    theta = np.asarray(theta, dtype=float)
    t = float(np.linalg.norm(theta))
    if t < 1e-3:
        raise InvalidInputError("analytic derivative needs |theta| away from 0")
    eye = np.eye(3)
    t2 = t * t
    h = 2.0 * (1.0 - np.cos(t)) / (t2 * t2)
    hp = 2.0 * np.sin(t) / (t2 * t2) - 8.0 * (1.0 - np.cos(t)) / (t2 * t2 * t)
    outer = np.outer(theta, theta)
    d = np.empty((3, 3, 3))
    for c in range(3):
        dproj = np.zeros((3, 3))
        dproj[c, :] += theta
        dproj[:, c] += theta
        d[c] = (
            dproj / t2
            - 2.0 * outer * theta[c] / (t2 * t2)
            + hp * (theta[c] / t) * (t2 * eye - outer)
            + h * (2.0 * theta[c] * eye - dproj)
        )
    return d


def closed_form_su2_euler_full_jet(angles, k=2.0):
    """g, dg[m, e, a, b] and ddg[m, e, f, a, b] of the printed Euler-chart
    metric (k / 2) [[1, 0, 0], [0, 1, cos t], [0, cos t, 1]] at points
    (m, 3): only g_phi,psi depends on a coordinate, with d_t = -sin t and
    d_t d_t = -cos t."""
    t = np.atleast_2d(np.asarray(angles, dtype=float))[:, 0]
    g, dg, ddg = (np.zeros((len(t),) + (3,) * n) for n in (2, 3, 4))
    g[:, 0, 0] = g[:, 1, 1] = g[:, 2, 2] = 1.0
    g[:, 1, 2] = g[:, 2, 1] = np.cos(t)
    dg[:, 0, 1, 2] = dg[:, 0, 2, 1] = -np.sin(t)
    ddg[:, 0, 0, 1, 2] = ddg[:, 0, 0, 2, 1] = -np.cos(t)
    return tuple(0.5 * k * x for x in (g, dg, ddg))


def uniform_sample_points(field, count, rng):
    """``sample_safe_points`` as one ``rng.uniform`` draw from the domain box."""
    dom = field.domain
    return rng.uniform(dom.lo, dom.hi, (count, len(dom.lo)))


def indexed_sphere_frame_jet(theta):
    """``sphere.sphere_frame_jet`` with its diagonals written by fancy
    indexing, each array allocated on its own."""
    t = np.atleast_2d(np.asarray(theta, dtype=float))
    (m, d), ar = t.shape, np.arange(t.shape[-1])
    sin = np.sin(t[:, :-1])
    lam = np.concatenate([np.ones((m, 1)), np.cumprod(sin * sin, axis=-1)], axis=-1)
    below = np.triu(np.ones((d, d)), 1)[:-1]
    dlog = np.zeros((m, d, d))
    dlog[:, :-1] = (2.0 * np.cos(t[:, :-1]) / sin)[..., None] * below
    csc2 = np.zeros((m, d, d))
    csc2[:, :-1] = (2.0 / (sin * sin))[..., None] * below
    w = 1.0 / lam
    outer = np.zeros((m, d, d))
    outer[:, ar, ar] = lam * (w[:, None] @ (dlog * dlog - csc2))[:, 0]
    inner = dlog @ dlog.swapaxes(1, 2)
    inner[:, ar, ar] -= csc2.sum(2)
    dg = np.zeros((m, d, d, d))
    dg[:, :, ar, ar] = lam[:, None] * dlog
    return FrameJet(q=np.broadcast_to(np.eye(d), (m, d, d)), lam=lam, dg=dg, hess=-outer - inner)


def unclipped_psi_divided_differences(mu):
    """``kernel.psi_divided_differences`` with every power mu^p kept."""
    mu = np.asarray(mu, dtype=float)
    n, d = _PSI_TERMS, mu.shape[-1]
    v = np.empty(mu.shape + (n,))
    v[..., 0], v[..., 1:] = 1.0, mu[..., None]
    np.cumprod(v, axis=-1, out=v)
    vt = np.swapaxes(v, -1, -2)
    d1 = v @ _PSI_H1 @ vt
    t = ((v @ _PSI_H2).reshape(mu.shape[:-1] + (d * n, n)) @ vt).reshape(v.shape + (d,))
    return 0.5 * (d1 + np.swapaxes(d1, -1, -2)), v[..., None, :, :] @ t

"""Maurer-Cartan frames and the group metric g_ab = k Tr(w_a^dag w_b).

``metric_batch`` is the one place a chart is chosen.  On the exponential
chart the frames have the closed form w_a = phi(ad_A) X_a with
A = theta^c X_c and phi(z) = (1 - e^{-z}) / z.  ad_A is skew in the
orthonormal catalog basis, so phi(ad_A)^T phi(ad_A) = 2 psi(ad_A^2) with
psi(x) = (cosh(sqrt x) - 1) / x, and the metric is psi of ad_A^2 in real
d x d arithmetic on the adjoint representation.  The metric and, for
curvature, its exact jet in the eigenframe of ad^2 (``exp_frame_jet``)
come from one batched eigendecomposition of ad^2.  The Euler chart goes
through U^dag dU, as U^dag = U^{-1} on SU(2); its exact jet
(``euler_full_jet``) is a Gram of the chart's derivatives up to third
order, contracted into the eigenframe of g by ``contract_jet``.  The
module also carries the closed-form SU(2) Euler-chart metric, an oracle for
both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .catalog import GRAM_CONSTANT, GroupSpec, make_group
# No production path needs kernel.expm_dual, charts.exp_chart_batch (imported
# here too), kernel.mat_inverse (imported here only), catalog.structure_constants,
# closed_form_metric_su2_euler or exp_metric_field; they stay because the
# benchmark in perfbench/ patches or calls them by these names.
from .charts import (_HALF_I_SIGMA_3, ChartPoint, SafeDomain, euler_chart_batch,
                     exp_chart_batch, safe_domain)
from .errors import (InvalidInputError, LieForgeError, NumericRangeError, SingularityError,
                     check_alloc)
from .kernel import mat_inverse, psi, psi_divided_differences

METRIC_CONDITION_LIMIT = 1e10
_IMAG_TOL = 1e-8
# d^3 float arrays per point that a curvature jet and the traces read from it
# hold at once: tracemalloc peaks at 11.2-15.2 of them from su3 up
JET_PEAK_D3_ARRAYS = 16
_SIGMA = np.array([-2.0, 2.0])[:, None, None]  # exp_frame_jet's sigma_s, times 2


@dataclass(frozen=True)
class MetricConfig:
    group: GroupSpec
    chart: str = "exp"
    k: Union[float, str] = "auto"

    def resolve_k(self) -> float:
        return resolve_k(self.k)


def resolve_k(k: Union[float, str]) -> float:
    """The metric constant: 'auto' or a positive finite number."""
    if k == "auto":
        # unique k with g(0) = identity under the catalog normalization
        return 1.0 / GRAM_CONSTANT
    try:
        value = float(k)
    except (TypeError, ValueError):
        value = float("nan")
    if not (np.isfinite(value) and value > 0):
        raise InvalidInputError(f"metric constant k must be positive and finite, got {k!r}")
    return value


@dataclass(frozen=True)
class MetricTensor:
    g: np.ndarray
    g_inv: np.ndarray
    point: ChartPoint | None
    condition: float


class FrameJet(NamedTuple):
    """What Ricci by traces reads at points (m, d), in the orthonormal frame
    theta = Q theta' where g' = diag(lam): dg[m, e, a, b] = d'_e g'_ab and,
    with w = 1 / lam, inner_xy = sum_c w_c d'_x d'_y g'_cc, outer_xy =
    sum_c w_c d'_c d'_c g'_xy and mixed_xy = sum_c w_c d'_x d'_c g'_cy; g and
    g_inv = Q diag(w) Q^T are in chart coordinates, for the condition guard."""
    g: np.ndarray
    g_inv: np.ndarray
    q: np.ndarray
    lam: np.ndarray
    dg: np.ndarray
    inner: np.ndarray
    outer: np.ndarray
    mixed: np.ndarray


@dataclass(frozen=True)
class MetricField:
    """Batch-evaluable metric over one chart: points (m, d) -> metrics (m, d, d).

    ``domain`` is where the field may be evaluated and sampled: its box is the
    sampling box and its ``contains`` guards every jet.  ``jet`` gives the
    exact ``FrameJet`` at points (m, d), from which curvature is computed.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    domain: SafeDomain
    jet: Callable[[np.ndarray], FrameJet]
    name: str = "field"

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.func(np.atleast_2d(np.asarray(pts, dtype=float)))


def _gram(omega: np.ndarray, k: float) -> np.ndarray:
    # the guard reads the k-free Gram, so it does not scale with k
    raw = np.einsum("...aji,...bji->...ab", omega.conj(), omega)
    imag = float(np.max(np.abs(raw.imag)))
    if imag > _IMAG_TOL:
        raise LieForgeError(
            f"metric entries acquired imaginary parts up to {imag:.3e}"
        )
    return k * raw.real


def _where(point: ChartPoint | None) -> str:
    return "" if point is None else f" at {point.chart} point {point.coords}"


def _finish(g: np.ndarray, point: ChartPoint | None) -> MetricTensor:
    """Condition number and inverse of a symmetric g from one eigh: |w| are
    g's singular values, so max|w| / min|w| is the 2-norm condition number."""
    if not np.isfinite(g).all():
        raise NumericRangeError(f"metric has non-finite entries{_where(point)}")
    w, v = np.linalg.eigh(g)
    size = np.abs(w)
    lo, hi = float(size.min()), float(size.max())
    cond = hi / lo if lo > 0 else np.inf
    if cond > METRIC_CONDITION_LIMIT:
        raise SingularityError(
            f"metric is degenerate (condition {cond:.3e}){_where(point)}",
            condition=cond,
            point=point,
        )
    return MetricTensor(g=g, g_inv=(v / w) @ v.T, point=point, condition=cond)


def _exp_metric(spec: GroupSpec, thetas: np.ndarray,
                k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """ad, the eigenvalues mu and vectors Q of X = ad^2 (one eigh) and the
    metric g at points (..., dim) of the exponential chart, flattened to (m, ...).

    With M_eb = theta^c f_cbe the matrix of ad_A, w_a = J_ea X_e for
    J = phi(M), and Tr(X_e^dag X_f) = delta_ef / 2 gives g = k J^T J / 2.
    M is skew, so J^T J = phi(-M) phi(M) = 2 psi(M^2) and g = k psi(M^2),
    written as k (p + p^T) / 2 so that g is symmetric to the last bit, with
    p = I / 2 + Q diag(psi(mu) - 1/2) Q^T: the identity part stays exact, so
    finite differences of g see less round-off.
    """
    d = spec.dim
    if thetas.shape[-1:] != (d,):
        raise InvalidInputError(
            f"exp chart for {spec.name}: expected {d} coordinates, got shape {thetas.shape}")
    ad = (thetas @ spec.structure.reshape(d, d * d)).reshape(-1, d, d)  # [m, b, e]
    x = ad @ ad  # (M^T)^2 = M^2, symmetric since M is skew
    if not np.isfinite(x).all():
        raise NumericRangeError(f"non-finite entries in ad^2 on the {spec.name} exp chart")
    mu, q = np.linalg.eigh(x)
    p = (q * (psi(mu) - 0.5)[:, None]) @ q.swapaxes(1, 2)
    p.reshape(len(p), d * d)[:, ::d + 1] += 0.5
    return ad, mu, q, (k * GRAM_CONSTANT) * (p + p.swapaxes(1, 2))


def exp_metric_batch(spec: GroupSpec, thetas: np.ndarray, k: float) -> np.ndarray:
    """Exponential-chart metric at a batch of points (m, dim) -> (m, dim, dim)."""
    return _exp_metric(spec, np.asarray(thetas, dtype=float), k)[3]


def exp_frame_jet(spec: GroupSpec, theta: np.ndarray, k: float) -> FrameJet:
    """The exact ``FrameJet`` at points (..., d), flattened, in the frame Q of
    X = ad^2 = Q diag(mu) Q^T: lam = 2 kappa psi(mu), kappa = k GRAM_CONSTANT.

    With F_c = spec.structure[c], stack U[0, e] = F~_e = Q^T (sum_c Q_ce F_c) Q
    (skew) and U[1, e] = Xdot'_e = F~_e ad' + ad' F~_e (symmetric), ad' =
    Q^T ad Q, and K[0, i, k, j] = D1_ij, K[1, i, k, j] = D2_ikj, psi's divided
    differences on mu (Daleckii & Krein 1965; Higham 2008, section 3.2).
    Then d'_e g' = 2 kappa D1 o Xdot'_e, d'_e d'_f g' = 2 kappa (M_ef + M_fe)
    with M_ef,ij = sum_{s,k} K_s,ikj U_s,e,ik U_s,f,kj, and with sigma =
    (-1, 1): inner = 4 kappa sum_{s,c,k} sigma_s w_c K_s,ckc U_s,x,ck U_s,y,ck,
    outer = 4 kappa sum_{s,k} K_s,xky T_s,k,xy for T_s,k = sum_c w_c
    U_s,c[:, k] (x) U_s,c[k, :], and mixed = 2 kappa [U (w K U) + sum_{s,k}
    U_s,x,ky H_s,ky] for H_s,ky = sum_c w_c U_s,c,ck K_s,cky.  Arrays are d^3
    per point.  Raises NumericRangeError where mu leaves [PSI_SERIES_MIN, 0].
    """
    theta, d = np.asarray(theta, dtype=float), spec.dim
    check_alloc(8 * JET_PEAK_D3_ARRAYS * math.prod(theta.shape[:-1]) * d ** 3,
                f"the {spec.name} curvature jet")
    ad, mu, q, g = _exp_metric(spec, theta, k)
    d1, d2 = psi_divided_differences(mu)
    m, c2, qt = len(q), 2.0 * k * GRAM_CONSTANT, q.swapaxes(1, 2)
    p = psi(mu)
    wp = 1.0 / p                                  # 2 kappa w
    u = np.empty((m, 2, d, d, d))                 # [m, s, e, i, j]
    fe = (qt @ spec.structure.reshape(d, d * d)).reshape(m, d, d, d)
    np.matmul(qt[:, None], fe @ q[:, None], out=u[:, 0])
    fa = u[:, 0] @ (qt @ ad @ q)[:, None]         # F~_e ad', and ad' F~_e is its transpose
    np.add(fa, fa.swapaxes(2, 3), out=u[:, 1])
    kern = np.empty((m, 2, d, d, d))              # [m, s, i, k, j]
    kern[:, 0] = d1[:, :, None, :]
    kern[:, 1] = d2
    ws = wp[:, None, None, :] * _SIGMA            # [m, s, 1, c] = 4 kappa sigma_s w_c
    us = u.reshape(m, 2, d, d * d)
    # K_s,ckc as [s, k, c]: U_s,x is skew or symmetric, so U_s,x,ck U_s,y,ck
    # summed against it equals the sum against [s, c, k]
    wdiag = (ws * kern.diagonal(0, 2, 4)).reshape(m, 2, 1, d * d)
    inner = ((us * wdiag) @ us.swapaxes(2, 3)).sum(1)
    col = u.transpose(0, 1, 4, 2, 3)              # [m, s, k, c, x] = U_s,c,xk
    outer = (kern.swapaxes(2, 3) * ((col * ws[..., None]).swapaxes(3, 4) @ col)).sum((1, 2))
    wk = wp[:, None, :, None, None] * kern        # [m, s, c, k, y] = 2 kappa w_c K_s,cky
    hs = u.diagonal(0, 2, 3)[..., None, :] @ wk.swapaxes(2, 3)  # [m, s, k, 1, y] = 2 kappa H
    mixed = (us @ (wk * u).reshape(m, 2, d * d, d)).sum(1) + (u * hs.swapaxes(2, 3)).sum((1, 3))
    return FrameJet(g=g, g_inv=(q * (wp / c2)[:, None]) @ qt, q=q, lam=c2 * p,
                    dg=(c2 * d1)[:, None] * u[:, 1], inner=inner, outer=outer, mixed=mixed)


def _rotate(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_ijk q_ci q_aj q_bk t_ijk for 3-tensors t (m, d, d, d)."""
    m, d = q.shape[:2]
    return (q @ (q[:, None] @ t @ q.swapaxes(1, 2)[:, None]).reshape(m, d, d * d)).reshape(t.shape)


def contract_jet(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> FrameJet:
    """The ``FrameJet`` of a full jet at m points: g (m, d, d), dg[m, e, a, b] =
    d_e g_ab and ddg[m, e, f, a, b] = d_e d_f g_ab.  ddg is contracted with
    g^-1 = Q diag(1 / lam) Q^T from one eigh of g, and turned with dg into the
    eigenframe theta = Q theta'."""
    (m, d), (lam, q) = g.shape[:2], np.linalg.eigh(g)
    qt = q.swapaxes(1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular g: the guard reports it
        ginv = (q / lam[:, None]) @ qt
        gvec = ginv.reshape(m, 1, d * d)
        # g^cd d_x d_c g_dy (partials commute), g^cd d_c d_d g_xy, g^cd d_x d_y g_cd
        mixed = (gvec[:, None] @ ddg.reshape(m, d, d * d, d)).reshape(m, d, d)
        outer = (gvec @ ddg.reshape(m, d * d, d * d)).reshape(m, d, d)
        inner = (ddg.reshape(m, d * d, d * d) @ gvec.reshape(m, d * d, 1)).reshape(m, d, d)
        return FrameJet(g=g, g_inv=ginv, q=q, lam=lam, dg=_rotate(dg, qt), inner=qt @ inner @ q,
                        outer=qt @ outer @ q, mixed=qt @ mixed @ q)


def _euler_leibniz(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slots i, j and weights w, each (2^order, 3, ..., 3) over [e, f, ..., a, b],
    such that d_e d_f ... g_ab = sum_terms w G_ij for ``euler_full_jet``'s
    Gram G: the Leibniz rule sends each derivative to one side of
    Tr((d^alpha U)^dag d^beta U).  With alpha counting the (theta, phi, psi)
    derivatives, d^alpha U = (-1/4)^(sum alpha // 2) V_i, where slot i =
    4 (alpha_phi % 2) + 2 (alpha_theta % 2) + alpha_psi % 2."""
    idx, eye, terms = np.indices((3,) * (order + 2)), np.eye(3, dtype=int), []
    for sides in itertools.product((0, 1), repeat=order):
        alpha = [eye[idx[-2]], eye[idx[-1]]]
        for axis, side in zip(idx, sides):
            alpha[side] = alpha[side] + eye[axis]
        terms.append(alpha)
    n = np.array(terms)  # [term, side, e, f, ..., a, b, coordinate]
    slot = 4 * (n[..., 1] % 2) + 2 * (n[..., 0] % 2) + n[..., 2] % 2
    return slot[:, 0], slot[:, 1], ((-0.25) ** (n // 2).sum(-1)).prod(1)


_EULER_TERMS = tuple(_euler_leibniz(order) for order in range(3))


def euler_full_jet(angles: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g, dg[m, e, a, b] = d_e g_ab and ddg[m, e, f, a, b] = d_e d_f g_ab of the
    SU(2) z-x-z chart metric at points (m, 3), exact, from
    ``euler_chart_batch``'s U and d_theta U.  With A = (i/2) sigma_3 and
    B = (i/2) sigma_1, d^alpha U = A^alpha_phi U_z U_x B^alpha_theta U_z A^alpha_psi
    and A^2 = B^2 = -I/4, so each derivative is a power of -1/4 times one of
    the eight V_pts = A^p U_z U_x B^t U_z A^s, and g and its first two
    derivatives are sums of the Gram G_ij = k Re Tr(V_i^dag V_j)."""
    u, du = euler_chart_batch(angles)
    v = np.stack([u, du[:, 0]], 1)                       # [m, t]
    v = np.stack([v, _HALF_I_SIGMA_3 @ v], 1)            # [m, p, t]
    v = np.stack([v, v @ _HALF_I_SIGMA_3], 3).reshape(len(u), 8, 4)
    gram = k * (v.conj() @ v.swapaxes(1, 2)).real
    return tuple((w * gram[:, i, j]).sum(1) for i, j, w in _EULER_TERMS)


def metric_batch(spec: GroupSpec, chart: str, pts: np.ndarray, k: float) -> np.ndarray:
    """Metric of ``spec`` on ``chart`` at a batch of points (m, d) -> (m, d, d)."""
    if chart == "exp":
        return exp_metric_batch(spec, pts, k)
    if chart == "euler":
        u, du = euler_chart_batch(pts)  # U in SU(2), so U^{-1} = U^dag
        return _gram(u.conj().swapaxes(1, 2)[:, None] @ du, k)
    raise InvalidInputError(f"unknown chart {chart!r}")


def metric_field(spec: GroupSpec, chart: str, k: float) -> MetricField:
    """``metric_batch`` on ``chart``, carrying the chart's safe domain and its
    exact jet: ``exp_frame_jet``, or ``euler_full_jet`` contracted."""
    jet = (lambda p: exp_frame_jet(spec, p, k)) if chart == "exp" else (
        lambda p: contract_jet(*euler_full_jet(p, k)))
    return MetricField(dim=spec.dim, func=lambda pts: metric_batch(spec, chart, pts, k),
                       domain=safe_domain(spec, chart), name=f"{spec.name}-{chart}", jet=jet)


def exp_metric_field(spec: GroupSpec, k: float = 2.0) -> MetricField:
    return metric_field(spec, "exp", k)


def metric(cfg: MetricConfig, point: ChartPoint) -> MetricTensor:
    """Pipeline metric at one point of ``cfg``'s group and chart."""
    if point.chart != cfg.chart or point.group.name != cfg.group.name:
        raise InvalidInputError(
            f"{point.group.name} {point.chart}-chart point given to the "
            f"{cfg.group.name} {cfg.chart}-chart metric"
        )
    return _finish(metric_batch(cfg.group, cfg.chart, point.coords, cfg.resolve_k())[0], point)


# ---------------------------------------------------------------------------
# closed-form SU(2) Euler-chart metric and its isometries
# ---------------------------------------------------------------------------

def closed_form_metric_su2_euler(theta: float, phi: float, psi: float) -> MetricTensor:
    """Printed Euler-chart metric (coordinates ordered theta, phi, psi)."""
    s, c = np.sin(theta), np.cos(theta)
    if abs(s) <= 1e-6:
        raise SingularityError(
            f"euler metric degenerates at theta = {theta:.6f} (sin theta -> 0)",
            point=np.array([theta, phi, psi]),
        )
    g = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, c],
        [0.0, c, 1.0],
    ])
    s2 = s * s
    g_inv = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0 / s2, -c / s2],
        [0.0, -c / s2, 1.0 / s2],
    ])
    point = ChartPoint("euler", np.array([theta, phi, psi]), make_group("su", 2))
    return MetricTensor(g=g, g_inv=g_inv, point=point,
                        condition=float(np.linalg.cond(g)))

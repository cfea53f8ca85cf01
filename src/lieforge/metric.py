"""Maurer-Cartan frames and the group metric g_ab = k Tr(w_a^dag w_b).

``metric_batch`` is the one place a chart is chosen.  On the exponential
chart the frames have the closed form w_a = phi(ad_A) X_a with
A = theta^c X_c and phi(z) = (1 - e^{-z}) / z.  ad_A is skew in the
orthonormal catalog basis, so phi(ad_A)^T phi(ad_A) = 2 psi(ad_A^2) with
psi(x) = (cosh(sqrt x) - 1) / x, and the metric is psi of ad_A^2 in real
d x d arithmetic on the adjoint representation.  The metric and, for
curvature, its exact first and second derivatives (``exp_metric_jet``) come
from one batched eigendecomposition of ad^2.  The Euler chart goes through
U^dag dU, as U^dag = U^{-1} on SU(2).  The module also carries the closed-form SU(2) metrics for
both charts, which serve as independent oracles for the numeric pipeline,
and the Euler-chart isometry residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .catalog import GRAM_CONSTANT, GroupSpec, make_group
from .charts import (  # exp_chart_batch stays importable from here for callers
    ChartPoint,
    FrameEvaluation,
    EXP_SU2_NORM_MAX,
    SafeDomain,
    euler_chart_batch,
    exp_chart_batch,
    safe_domain,
)
from .errors import (InvalidInputError, LieForgeError, NumericRangeError, SingularityError,
                     check_alloc)
from .kernel import mat_inverse, psi, psi_divided_differences

METRIC_CONDITION_LIMIT = 1e10
_IMAG_TOL = 1e-8
# d^4 float arrays per point that exp_metric_jet holds at once (y, s, m and
# the ddg temporaries): tracemalloc peaks at 5.2-5.5 of them from su4 up
JET_PEAK_D4_ARRAYS = 6


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


@dataclass(frozen=True)
class MetricField:
    """Batch-evaluable metric over one chart: points (m, d) -> metrics (m, d, d).

    ``domain`` is where the field may be evaluated and sampled: its box is the
    sampling box and its ``contains`` guards every finite-difference stencil
    and every jet.  ``jet``, when set, gives the exact (g, dg, ddg) at points
    (..., d) in ``curvature.metric_jet``'s layout, and curvature uses it in
    place of the stencil.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    domain: SafeDomain
    name: str = "field"
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.func(np.atleast_2d(np.asarray(pts, dtype=float)))


def maurer_cartan(frame: FrameEvaluation) -> np.ndarray:
    """w_a = U^{-1} dU_a, one anti-Hermitian matrix per coordinate."""
    u_inv = mat_inverse(frame.U)
    return u_inv[None, :, :] @ frame.dU


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


def exp_metric_jet(spec: GroupSpec, theta: np.ndarray,
                   k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g, dg[..., e, a, b] = d_e g_ab and ddg[..., e, f, a, b] = d_e d_f g_ab
    of the exponential-chart metric at points (..., d), exact; g is
    ``exp_metric_batch``'s value.

    With F_c = spec.structure[c] and ad = theta^c F_c, X = ad^2 =
    Q diag(mu) Q^T has d_a X = F_a ad + ad F_a and d_a d_b X = F_a F_b +
    F_b F_a.  In the eigenbasis, with Xdot_a = Q^T d_a X Q and F'_c = Q^T F_c Q
    (Daleckii & Krein 1965; Higham 2008, Functions of Matrices, section 3.2):
    d_a psi(X) = Q (D1 o Xdot_a) Q^T and
    d_a d_b psi(X) = Q [M_ab + M_ba] Q^T, M_ab = D1 o F'_a F'_b + S_ab,
    S_ab,ij = sum_k D2_ikj Xdot_a,ik Xdot_b,kj, where D1 and D2 are the first
    and second divided differences of psi on mu; a batch shares one eigh.
    Raises NumericRangeError where mu leaves their range [PSI_SERIES_MIN, 0].
    """
    theta, d = np.asarray(theta, dtype=float), spec.dim
    lead = theta.shape[:-1]
    check_alloc(8 * JET_PEAK_D4_ARRAYS * math.prod(lead) * d ** 4,
                f"the {spec.name} second-derivative jet")
    ad, mu, q, g = _exp_metric(spec, theta, k)
    d1, d2 = psi_divided_differences(mu)
    f, qt = spec.structure, q.swapaxes(1, 2)
    fq = qt[:, None] @ f @ q[:, None]           # [m, c] = F'_c
    adq = (qt @ ad @ q)[:, None]
    xdot = fq @ adq + adq @ fq                  # [m, a] = Xdot_a
    # S[a, b, i, j] = sum_k (Xdot_a,ik D2_ikj) Xdot_b,kj, batched over (i, j)
    y = xdot[:, :, :, None, :] * d2.swapaxes(2, 3)[:, None]               # [m, a, i, j, k]
    s = y.transpose(0, 2, 3, 1, 4) @ xdot.transpose(0, 3, 2, 1)[:, None]  # [m, i, j, a, b]
    m = d1[:, None, None] * (fq[:, :, None] @ fq[:, None, :]) + s.transpose(0, 3, 4, 1, 2)
    dpsi = q[:, None] @ (d1[:, None] * xdot) @ qt[:, None]
    ddpsi = q[:, None, None] @ (m + m.swapaxes(1, 2)) @ qt[:, None, None]
    dg, ddg = ((k * GRAM_CONSTANT * (p + p.swapaxes(-1, -2))).reshape(lead + p.shape[1:])
               for p in (dpsi, ddpsi))
    return g.reshape(lead + (d, d)), dg, ddg


def metric_batch(spec: GroupSpec, chart: str, pts: np.ndarray, k: float) -> np.ndarray:
    """Metric of ``spec`` on ``chart`` at a batch of points (m, d) -> (m, d, d)."""
    if chart == "exp":
        return exp_metric_batch(spec, pts, k)
    if chart == "euler":
        u, du = euler_chart_batch(pts)  # U in SU(2), so U^{-1} = U^dag
        return _gram(u.conj().swapaxes(1, 2)[:, None] @ du, k)
    raise InvalidInputError(f"unknown chart {chart!r}")


def metric_field(spec: GroupSpec, chart: str, k: float) -> MetricField:
    """``metric_batch`` on ``chart``, carrying the chart's safe domain; on the
    exponential chart also the exact jet ``exp_metric_jet``."""
    jet = (lambda p: exp_metric_jet(spec, p, k)) if chart == "exp" else None
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
# closed-form SU(2) oracles
# ---------------------------------------------------------------------------

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
    if t >= EXP_SU2_NORM_MAX:
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
    point = ChartPoint("exp", theta, make_group("su", 2))
    return MetricTensor(g=g, g_inv=g_inv, point=point,
                        condition=float(np.linalg.cond(g)))


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


_SHIFTS = {"phi_shift": 1, "psi_shift": 2}


def isometry_residual(cfg: MetricConfig, point: ChartPoint, which: str, xi: float) -> float:
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

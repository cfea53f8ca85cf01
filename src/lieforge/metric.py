"""Maurer-Cartan frames and the group metric g_ab = k Tr(w_a^dag w_b).

``metric_batch`` is the one place a chart is chosen and a chart g formed;
``metric`` enters it past its width check, as a ``ChartPoint`` has made that.
On the exponential chart the frames have the closed form w_a = phi(ad_A) X_a
with A = theta^c X_c and phi(z) = (1 - e^{-z}) / z.  ad_A is skew in the
orthonormal catalog basis, so phi(ad_A)^T phi(ad_A) = 2 psi(ad_A^2) with
psi(x) = (cosh(sqrt x) - 1) / x, and the metric is psi of ad_A^2 in real
d x d arithmetic on the adjoint representation.  The metric, its
eigenvalues k psi(mu) (mu those of ad^2) and, for curvature, its exact jet
in the eigenframe of ad^2 (``exp_frame_jet``) come from one batched eigh of
ad^2 (``_exp_spectrum``).  Every eigenframe (lam, Q) is judged by one rule,
``condition_number(lam)``: a point query's, from ``metric_batch`` (on the
Euler chart one eigh of g; the sphere's is diag(g)), and every jet's.  On
the Euler chart the metric is the Gram of dU (``_gram``), as U is unitary
and so Tr(d_a U^dag d_b U) = Tr(w_a^dag w_b), and the exact jet is
``product_jet``'s, which serves any chart U = prod_j exp(t_j Y_j): it
projects w_a on the basis and takes its derivatives as brackets, and
``contract_jet`` turns it into the eigenframe of g.  Both read traces
through ``_real``, which guards against imaginary parts.  The module also
carries the closed-form SU(2) Euler-chart metric, an oracle for both.

Every path a verdict or point query takes, in this module and those it calls,
calls numpy's C entry points (``np.add.reduce``, ``a.swapaxes``, an ``ndim``
test), not the Python wrappers that forward to them (``ndarray.sum``,
``np.all``, ``np.cumprod``, ``np.shape``); ``einsum``, ``eigh`` and the
oracles are the exceptions, and ``.sum`` stays on bool or int input.
"""

from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .catalog import GRAM_CONSTANT, GroupSpec
# No production path needs kernel.expm_dual, charts.exp_chart_batch (imported
# here too), kernel.mat_inverse (imported here only), catalog.structure_constants,
# closed_form_metric_su2_euler, exp_metric_field or sphere.hyperspherical_batch;
# they stay because the benchmark in perfbench/ patches or calls them by these names.
from .charts import (EULER_FACTOR_ORDER, ChartPoint, SafeDomain, chart_cache,
                     euler_chart_batch, exp_chart_batch, safe_domain)
from .errors import (InvalidInputError, LieForgeError, NumericRangeError, SingularityError,
                     as_points, check_alloc)
from .kernel import mat_inverse, psi, psi_divided_differences

METRIC_CONDITION_LIMIT = 1e10
_IMAG_TOL = 1e-8
# d^3 float arrays per point that a curvature jet and the traces read from it
# hold at once: tracemalloc peaks at 11.2-15.2 of them from su3 up
JET_PEAK_D3_ARRAYS = 16
_SIGMA = np.array([-2.0, 2.0])[:, None, None]  # exp_frame_jet's sigma_s, times 2
# lam^2 and 1 / lam^2 in the curvature stay normal floats for k here, not at 1e+-154
K_MIN, K_MAX = 1e-100, 1e100


class MetricConfig(NamedTuple):
    group: GroupSpec
    chart: str = "exp"
    k: Union[float, str] = "auto"

    def resolve_k(self) -> float:
        return resolve_k(self.k)


def resolve_k(k: Union[float, str]) -> float:
    """The metric constant: 'auto' or a number in [K_MIN, K_MAX]."""
    if k == "auto":
        # unique k with g(0) = identity under the catalog normalization
        return 1.0 / GRAM_CONSTANT
    try:
        value = float(k)
    except (TypeError, ValueError):
        value = float("nan")
    if not K_MIN <= value <= K_MAX:  # nan fails too
        raise InvalidInputError(f"k must be 'auto' or in [{K_MIN:g}, {K_MAX:g}], got {k!r}")
    return value


class MetricTensor(NamedTuple):
    g: np.ndarray
    g_inv: np.ndarray
    condition: float


class FrameJet(NamedTuple):
    """What Ricci by traces reads at points (m, d), in the orthonormal frame
    theta = Q theta' where g' = diag(lam): dg[m, e, a, b] = d'_e g'_ab and,
    with w = 1 / lam, the one second-derivative term of 2 Ric, hess_xy =
    sum_c w_c (d'_x d'_c g'_cy + d'_y d'_c g'_cx - d'_c d'_c g'_xy - d'_x d'_y g'_cc).
    No chart-coordinate g is kept: the condition guard reads lam."""
    q: np.ndarray
    lam: np.ndarray
    dg: np.ndarray
    hess: np.ndarray


class MetricField(NamedTuple):
    """Batch-evaluable metric over one chart: points (..., d) -> metrics (m, d, d), one per point.

    ``domain`` is where the field may be evaluated and sampled: its box is the
    sampling box, its width the coordinate count ``dim``, and its ``contains``
    guards every jet.  ``jet`` gives the exact ``FrameJet`` at points (m, d).
    """

    func: Callable[[np.ndarray], np.ndarray]
    domain: SafeDomain
    jet: Callable[[np.ndarray], FrameJet]
    name: str = "field"
    dim = property(lambda self: len(self.domain.lo))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.func(as_points(pts, self.dim, self.name))


def _real(raw: np.ndarray) -> np.ndarray:
    """The real part of k-free traces of anti-Hermitian products, which must
    be real: a guard against imaginary parts past _IMAG_TOL."""
    imag = float(np.maximum.reduce(np.abs(raw.imag), None))
    if imag > _IMAG_TOL:
        raise LieForgeError(
            f"metric entries acquired imaginary parts up to {imag:.3e}"
        )
    return raw.real


def _gram(rows: np.ndarray, k: float) -> np.ndarray:
    """k Re Tr(V_a^dag V_b) for matrices flattened to rows (m, n, s^2)."""
    return k * _real(rows.conj() @ rows.swapaxes(1, 2))


def _where(point: ChartPoint | None) -> str:
    return "" if point is None else f" at {point.chart} point {point.coords}"


def condition_number(lam: np.ndarray) -> np.ndarray:
    """max lam / min lam along the last axis of a symmetric g's eigenvalues lam, its
    2-norm condition number; +inf where min lam <= 0, nan where lam has nan or is all +inf."""
    lo, hi = np.minimum.reduce(lam, -1), np.maximum.reduce(lam, -1)
    # every g positive definite and finite, no mask: a batch's lo needs max too (inf / inf)
    if (0 < lo < np.inf if lo.ndim == 0
            else 0 < np.minimum.reduce(lo, None) and np.maximum.reduce(lo, None) < np.inf):
        return hi / lo
    with np.errstate(invalid="ignore"):  # inf / inf and nan / nan are nan
        return np.where(lo <= 0, np.inf, hi) / np.where(lo <= 0, 1.0, lo)


def _finish(g: np.ndarray, lam: np.ndarray, q: np.ndarray,
            point: ChartPoint | None) -> MetricTensor:
    """Condition number and inverse of a symmetric g = Q diag(lam) Q^T from its
    eigenframe (lam, Q), the one ``metric_batch`` gives with g or, on the
    sphere, (diag(g), I): ``condition_number(lam)`` and g^-1 = Q diag(1 / lam) Q^T."""
    if not np.logical_and.reduce(np.isfinite(g), None):
        raise NumericRangeError(f"metric has non-finite entries{_where(point)}")
    cond = float(condition_number(lam))
    if not cond <= METRIC_CONDITION_LIMIT:  # nan too
        raise SingularityError(
            f"metric is degenerate (condition {cond:.3e}){_where(point)}",
            condition=cond,
            point=point,
        )
    return MetricTensor(g=g, g_inv=(q / lam) @ q.T, condition=cond)


def _exp_spectrum(spec: GroupSpec, thetas: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """ad, the eigenvalues mu and vectors Q of X = ad^2 (one eigh) and psi(mu)
    at points (..., dim) of the exponential chart, flattened to (m, ...).

    With M_eb = theta^c f_cbe the matrix of ad_A, w_a = J_ea X_e for
    J = phi(M), and Tr(X_e^dag X_f) = delta_ef / 2 gives g = k J^T J / 2.
    M is skew, so J^T J = phi(-M) phi(M) = 2 psi(M^2) and g = k psi(M^2) =
    Q diag(k psi(mu)) Q^T.
    """
    d = spec.dim
    ad = (thetas @ spec.structure.reshape(d, d * d)).reshape(-1, d, d)  # [m, b, e]
    x = ad @ ad  # (M^T)^2 = M^2, symmetric since M is skew
    if not np.logical_and.reduce(np.isfinite(x), None):
        raise NumericRangeError(f"non-finite entries in ad^2 on the {spec.name} exp chart")
    mu, q = np.linalg.eigh(x)
    return ad, mu, q, psi(mu)


def exp_frame_jet(spec: GroupSpec, theta: np.ndarray, k: float) -> FrameJet:
    """The exact ``FrameJet`` at points (..., d), flattened, in the frame Q of
    X = ad^2 = Q diag(mu) Q^T: lam = 2 kappa psi(mu), kappa = k GRAM_CONSTANT.

    With F_c = spec.structure[c], stack U[0, e] = F~_e = Q^T (sum_c Q_ce F_c) Q
    (skew) and U[1, e] = Xdot'_e = F~_e ad' + ad' F~_e (symmetric), ad' =
    Q^T ad Q, and K[0, i, k, j] = D1_ij, K[1, i, k, j] = D2_ikj, psi's divided
    differences on mu (Daleckii & Krein 1965; Higham 2008, section 3.2).
    Then d'_e g' = 2 kappa D1 o Xdot'_e, d'_e d'_f g' = 2 kappa (M_ef + M_fe)
    with M_ef,ij = sum_{s,k} K_s,ikj U_s,e,ik U_s,f,kj.  hess = mixed + mixed^T
    - outer - inner, summed in that order, where with sigma = (-1, 1):
    inner = 4 kappa sum_{s,c,k} sigma_s w_c K_s,ckc U_s,x,ck U_s,y,ck, outer =
    4 kappa sum_{s,k} K_s,xky T_s,k,xy for T_s,k = sum_c w_c U_s,c[:, k] (x)
    U_s,c[k, :], and mixed = 2 kappa [U (w K U) + sum_{s,k} U_s,x,ky H_s,ky]
    for H_s,ky = sum_c w_c U_s,c,ck K_s,cky.  Arrays are d^3 per point.
    Raises NumericRangeError where mu leaves [PSI_SERIES_MIN, 0].
    """
    theta, d = as_points(theta, spec.dim, spec.name, "exp"), spec.dim
    check_alloc(8 * JET_PEAK_D3_ARRAYS * len(theta) * d ** 3, f"the {spec.name} curvature jet")
    ad, mu, q, p = _exp_spectrum(spec, theta)
    d1, d2 = psi_divided_differences(mu)
    m, c2, qt = len(q), 2.0 * k * GRAM_CONSTANT, q.swapaxes(1, 2)
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
    inner = np.add.reduce((us * wdiag) @ us.swapaxes(2, 3), 1)
    col = u.transpose(0, 1, 4, 2, 3)              # [m, s, k, c, x] = U_s,c,xk
    outer = np.add.reduce(
        kern.swapaxes(2, 3) * ((col * ws[..., None]).swapaxes(3, 4) @ col), (1, 2))
    wk = wp[:, None, :, None, None] * kern        # [m, s, c, k, y] = 2 kappa w_c K_s,cky
    hs = u.diagonal(0, 2, 3)[..., None, :] @ wk.swapaxes(2, 3)  # [m, s, k, 1, y] = 2 kappa H
    mixed = (np.add.reduce(us @ (wk * u).reshape(m, 2, d * d, d), 1)
             + np.add.reduce(u * hs.swapaxes(2, 3), (1, 3)))
    return FrameJet(q=q, lam=c2 * p, dg=(c2 * d1)[:, None] * u[:, 1],
                    hess=mixed + mixed.swapaxes(1, 2) - outer - inner)


def contract_jet(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> FrameJet:
    """The ``FrameJet`` of a full jet at m points: g (m, d, d), dg[m, e, a, b] =
    d_e g_ab and ddg[m, e, f, a, b] = d_e d_f g_ab.  hess's four second
    derivatives are gathered from ddg and contracted once with g^-1 =
    Q diag(1 / lam) Q^T from one eigh of g, then turned with dg into the
    eigenframe theta = Q theta'; neither g nor g^-1 is returned."""
    (m, d), (lam, q) = g.shape[:2], np.linalg.eigh(g)
    qt = q.swapaxes(1, 2)
    t = ddg.transpose(0, 2, 3, 1, 4)  # [m, c, e, x, y] = d_x d_c g_ey
    terms = t + t.swapaxes(3, 4) - ddg - ddg.transpose(0, 3, 4, 1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular g: the guard reports it
        dg = (qt @ (qt[:, None] @ dg @ q[:, None]).reshape(m, d, d * d)).reshape(dg.shape)
        ginv = (q / lam[:, None]) @ qt
        hess = (ginv.reshape(m, 1, d * d) @ terms.reshape(m, d * d, d * d)).reshape(m, d, d)
        return FrameJet(q=q, lam=lam, dg=dg, hess=qt @ hess @ q)


def product_jet(spec: GroupSpec, u: np.ndarray, du: np.ndarray, order: Sequence[int],
                k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g, dg[m, e, a, b] = d_e g_ab and ddg[m, e, f, a, b] = d_e d_f g_ab, exact,
    of a chart U = prod_j exp(t_j Y_j) of ``spec``'s group, from U and dU
    (m, n, s, s) at m points; coordinate a's factor stands at place order[a]
    of the product.  w_a = U^-1 d_a U is projected on the basis, w_a = c_a^i X_i;
    then d_b w_a = [w_a, w_b] when factor b stands right of factor a and 0
    otherwise, so d_e d_b w_a = [d_e w_a, w_b] + [w_a, d_e w_b], and with
    kappa = k GRAM_CONSTANT, g = kappa c c^T and its derivatives are Leibniz
    sums of dot products of c and its derivatives."""
    d, m, n = spec.dim, len(u), len(order)
    w = np.einsum("mri,marj,nij->man", u.conj(), du, spec.generators.conj())
    c = _real(w) / GRAM_CONSTANT                   # [m, a, i] = c_a^i
    # ad[m, j, (a, l)] = f_ijl c_a^i, so that y @ ad = [c_a, y] for every a
    ad = (c.reshape(m * n, d) @ spec.structure.reshape(d, d * d)).reshape(m, n, d, d)
    ad = ad.transpose(0, 2, 1, 3).reshape(m, d, n * d)
    right = np.less.outer(order, order)            # [a, b]: factor b right of factor a
    dc = (c @ ad).reshape(m, n, n, d) * right.T[..., None]  # [m, e, a] = d_e c_a
    dc = dc.reshape(m, n * n, d)
    t = (dc @ ad).reshape((m,) + (n,) * 3 + (d,))  # [m, f, a, e] = [c_e, d_f c_a]
    ddc = (t.swapaxes(1, 2) - t.transpose(0, 3, 1, 2, 4)) * right.T[:, None, :, None]
    ct, kappa = c.swapaxes(1, 2), k * GRAM_CONSTANT  # ddc[m, e, f, a] = d_f d_e c_a
    p = (dc @ ct).reshape((m,) + (n,) * 3)         # [m, e, a, b] = d_e c_a . c_b
    s = (ddc.reshape(m, n ** 3, d) @ ct).reshape((m,) + (n,) * 4)
    s += (dc @ dc.swapaxes(1, 2)).reshape(s.shape).swapaxes(2, 3)  # + d_e c_a . d_f c_b
    return (kappa * (c @ ct), kappa * (p + p.swapaxes(2, 3)), kappa * (s + s.swapaxes(3, 4)))


def metric_batch(spec: GroupSpec, chart: str, pts: np.ndarray,
                 k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Metric of ``spec`` on ``chart`` at points (..., d), flattened to m -> g (m, d, d),
    with its eigenframe g = Q diag(lam) Q^T, lam (m, d) and Q (m, d, d): on
    the exp chart lam = 2 kappa psi(mu), kappa = k GRAM_CONSTANT, in the
    frame Q of ad^2, the same (lam, Q) as ``exp_frame_jet``'s; on the Euler
    chart one eigh of g.  It keeps no chart list: the table ``safe_domain``
    rejects a chart the group does not have, and its box's width is the points'."""
    pts = as_points(pts, len(safe_domain(spec, chart).lo), spec.name, chart)
    return _metric_frames(spec, chart, pts, k)


def _metric_frames(spec: GroupSpec, chart: str, pts: np.ndarray,
                   k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``metric_batch`` at float points of ``chart``'s width (or one point (d,)),
    already checked; the Euler chart is su2's."""
    if chart == "exp":
        # g = kappa (p + p^T), p = I / 2 + Q diag(psi - 1/2) Q^T: symmetric, identity exact
        q, ps = _exp_spectrum(spec, pts)[2:]
        p = (q * (ps - 0.5)[:, None]) @ q.swapaxes(1, 2)
        p.reshape(len(p), -1)[:, ::spec.dim + 1] += 0.5
        return (k * GRAM_CONSTANT) * (p + p.swapaxes(1, 2)), (2.0 * k * GRAM_CONSTANT) * ps, q
    du = euler_chart_batch(pts)[1]  # U is unitary: Tr(d_a U^dag d_b U) = Tr(w_a^dag w_b)
    g = _gram(du.reshape(len(du), 3, 4), k)
    try:  # non-finite angles give a nan g, on which eigh fails
        return (g, *np.linalg.eigh(g))
    except np.linalg.LinAlgError:
        raise NumericRangeError(f"non-finite angles on the {spec.name} euler chart") from None


@chart_cache
def metric_field(spec: GroupSpec, chart: str, k: float) -> MetricField:
    """``metric_batch`` on ``chart``, carrying the chart's safe domain and its
    exact jet: ``exp_frame_jet``, or ``product_jet`` contracted.  Built
    once per (spec, chart, k) and shared; its functions look ``metric_batch``
    and the jets up in this module when called."""
    jet = (lambda p: exp_frame_jet(spec, p, k)) if chart == "exp" else (
        lambda p: contract_jet(*product_jet(spec, *euler_chart_batch(p), EULER_FACTOR_ORDER, k)))
    return MetricField(func=lambda pts: metric_batch(spec, chart, pts, k)[0],
                       domain=safe_domain(spec, chart), name=f"{spec.name}-{chart}", jet=jet)


def exp_metric_field(spec: GroupSpec, k: float = 2.0) -> MetricField:
    return metric_field(spec, "exp", k)


def metric(cfg: MetricConfig, point: ChartPoint) -> MetricTensor:
    """Pipeline metric at one point of ``cfg``'s group and chart: a ``ChartPoint``
    of that chart and of ``cfg.group`` itself, whose construction checked the chart
    and the width, so neither is checked again here."""
    if not isinstance(point, ChartPoint):
        raise InvalidInputError(f"metric takes a ChartPoint, got {type(point).__name__}")
    if point.chart != cfg.chart or point.group is not cfg.group:
        raise InvalidInputError(
            f"{point.group.name} {point.chart}-chart point given to the "
            f"{cfg.group.name} {cfg.chart}-chart metric"
            + (" of another spec" if point.group.name == cfg.group.name else ""))
    g, lam, q = _metric_frames(cfg.group, cfg.chart, point.coords, cfg.resolve_k())
    return _finish(g[0], lam[0], q[0], point)


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
    return MetricTensor(g=g, g_inv=g_inv,  # g's eigenvalues are 1 and 1 +- c
                        condition=float(condition_number(np.array([1.0, 1.0 + c, 1.0 - c]))))

"""Pullback metrics on unit spheres S^{N-1} embedded in R^N.

The hyperspherical parametrization is fixed so that for N = 3 it reads
x = (sin t1 cos t2, sin t1 sin t2, cos t1); the tangent-frame Jacobian
B_{i,a} = dx_i / dtheta^a comes from the kernel's dual scalar stacks and the
induced metric is g_ab = sum_i B_{i,a} B_{i,b}.  That pullback is diagonal,
g_aa = prod_{b<a} sin^2 t_b, and the field's exact curvature jet comes from
this closed form in the chart's own frame, batched over points; the
embedding stays its value oracle.
"""

from __future__ import annotations

import numpy as np

from .charts import SafeDomain
from .curvature import einstein_check, sample_safe_points
from .errors import InvalidInputError, SingularityError, check_alloc
from .kernel import dual_mul
from .metric import JET_PEAK_D3_ARRAYS, FrameJet, MetricField, MetricTensor, _finish

POLE_MARGIN = 1e-6


def hyperspherical_batch(n_ambient: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embedding points (m, N) and Jacobians (m, N, N-1) for a batch."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if n_ambient < 2:
        raise InvalidInputError("sphere embedding needs ambient dimension >= 2")
    d = thetas.shape[1]
    if d != n_ambient - 1:
        raise InvalidInputError(f"S^{n_ambient - 1} takes {n_ambient - 1} coordinates, got {d}")
    # sin t_a and cos t_a as scalar stacks, t_a seeded in slot a+1; angle-major
    # (d, m, d+1) keeps each angle's stack contiguous for dual_mul
    t = thetas.T
    sin_t = np.zeros(t.shape + (d + 1,))
    cos_t = np.zeros_like(sin_t)
    sin_t[..., 0], cos_t[..., 0] = np.sin(t), np.cos(t)
    a = np.arange(d)
    sin_t[a, :, a + 1] = cos_t[..., 0]
    cos_t[a, :, a + 1] = -sin_t[..., 0]
    if n_ambient == 2:
        x = [sin_t[0], cos_t[0]]
    else:
        x = [None] * n_ambient
        x[n_ambient - 1] = cos_t[0]
        running = sin_t[0]
        for m in range(n_ambient - 2, 1, -1):
            # x[m] uses sines of the first N-m-1 angles and one cosine
            x[m] = dual_mul(running, cos_t[n_ambient - m - 1])
            running = dual_mul(running, sin_t[n_ambient - m - 1])
        x[0] = dual_mul(running, cos_t[d - 1])
        x[1] = dual_mul(running, sin_t[d - 1])
    points = np.stack([xi[:, 0] for xi in x], axis=1)
    jac = np.stack([xi[:, 1:] for xi in x], axis=1)
    return points, jac


def _off_pole(n_ambient: int, pts: np.ndarray) -> np.ndarray:
    """Per row and polar angle: POLE_MARGIN < t < pi - POLE_MARGIN."""
    polar = np.atleast_2d(pts)[:, : max(n_ambient - 2, 0)]
    return (polar > POLE_MARGIN) & (polar < np.pi - POLE_MARGIN)


def _check_polar(n_ambient: int, theta: np.ndarray):
    inside = _off_pole(n_ambient, theta)[0]
    if not inside.all():
        i = int(np.argmin(inside))
        raise SingularityError(
            f"polar angle t{i + 1} = {theta[i]:g} is not in "
            f"({POLE_MARGIN:g}, pi - {POLE_MARGIN:g}); the embedding Jacobian "
            "degenerates at a coordinate pole",
            point=theta,
        )


def pullback_metric(n_ambient: int, theta: np.ndarray) -> MetricTensor:
    """Induced metric g_ab = sum_i B_{i,a} B_{i,b} at one point."""
    theta = np.asarray(theta, dtype=float)
    _check_polar(n_ambient, theta)
    return _finish(sphere_metric_field(n_ambient)(theta)[0], None)


def sphere_frame_jet(theta: np.ndarray) -> FrameJet:
    """Exact ``FrameJet`` of the pullback at points (m, d) in the chart's own
    frame: g = diag(lam), lam_a = prod_{b<a} sin^2 t_b, d_c log lam_a =
    2 cot t_c [c < a] and hess_cea = d_c d_e lam_a / lam_a = d_c log lam_a
    d_e log lam_a - 2 csc^2 t_c [c = e < a] give inner_xy = sum_a hess_xya,
    outer_xx = lam_x sum_c hess_ccx / lam_c and mixed = 0, as d_y lam_y = 0.
    """
    t = np.atleast_2d(np.asarray(theta, dtype=float))
    (m, d), ar = t.shape, np.arange(t.shape[-1])
    check_alloc(8 * JET_PEAK_D3_ARRAYS * m * d ** 3, f"the S^{d} curvature jet")
    sin = np.sin(t[:, :-1])
    lam = np.concatenate([np.ones((m, 1)), np.cumprod(sin * sin, axis=-1)], axis=-1)
    below = np.triu(np.ones((d, d)), 1)[:-1]                  # [c, a] = [c < a], c polar
    dlog = np.zeros((m, d, d))
    dlog[:, :-1] = (2.0 * np.cos(t[:, :-1]) / sin)[..., None] * below
    csc2 = np.zeros((m, d, d))                                # [c, a] = 2 csc^2 t_c [c < a]
    csc2[:, :-1] = (2.0 / (sin * sin))[..., None] * below
    w = 1.0 / lam
    g, g_inv, outer = np.zeros((3, m, d, d))
    g[:, ar, ar], g_inv[:, ar, ar] = lam, w
    outer[:, ar, ar] = lam * (w[:, None] @ (dlog * dlog - csc2))[:, 0]
    inner = dlog @ dlog.swapaxes(1, 2)
    inner[:, ar, ar] -= csc2.sum(2)
    dg = np.zeros((m, d, d, d))
    dg[:, :, ar, ar] = lam[:, None] * dlog
    return FrameJet(g=g, g_inv=g_inv, q=np.broadcast_to(np.eye(d), (m, d, d)), lam=lam, dg=dg,
                    inner=inner, outer=outer, mixed=np.zeros((m, d, d)))


def sphere_metric_field(n_ambient: int) -> MetricField:
    """Pullback field on S^{N-1}, sampled in [0.3, pi - 0.3]^{N-2} x [-pi, pi]."""
    def func(pts):
        _, jac = hyperspherical_batch(n_ambient, pts)
        return np.einsum("mia,mib->mab", jac, jac)

    npolar = max(n_ambient - 2, 0)
    check_alloc(16 * (npolar + 1), f"the S^{n_ambient - 1} sampling box")
    lo = np.array([0.3] * npolar + [-np.pi])
    hi = np.array([np.pi - 0.3] * npolar + [np.pi])
    domain = SafeDomain(lo=lo, hi=hi, contains=lambda pts: _off_pole(n_ambient, pts).all(axis=1))
    return MetricField(dim=n_ambient - 1, func=func, domain=domain,
                       name=f"s{n_ambient - 1}-pullback", jet=sphere_frame_jet)


def sphere_einstein_check(n_ambient: int, samples: int, tol: float, seed: int = 0):
    """Einstein verdict for the unit S^{N-1} pullback field (expect
    Lambda = (N - 2) / 2)."""
    if n_ambient < 3:
        raise InvalidInputError("einstein check needs a sphere of dimension >= 2")
    field = sphere_metric_field(n_ambient)
    pts = sample_safe_points(field, samples, np.random.default_rng(seed))
    return einstein_check(field, pts, tol)

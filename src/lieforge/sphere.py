"""Pullback metrics on unit spheres S^{N-1} embedded in R^N.

The hyperspherical parametrization is fixed so that for N = 3 it reads
x = (sin t1 cos t2, sin t1 sin t2, cos t1).  Its pullback is diagonal,
g_aa = prod_{b<a} sin^2 t_b, and the field's value and exact curvature jet
both come from this closed form in the chart's own frame, batched over
points.  The embedding and its Jacobian B_{i,a} = dx_i / dtheta^a stay as
the value's oracle: g_ab = sum_i B_{i,a} B_{i,b}.
"""

import functools

import numpy as np

from .charts import off_pole, polar_domain
from .errors import InvalidInputError, SingularityError, as_points, check_alloc
from .metric import JET_PEAK_D3_ARRAYS, FrameJet, MetricField, MetricTensor, _finish
from .scan import verdict

POLE_MARGIN = 1e-6


def _angles(n_ambient: int, thetas: np.ndarray) -> np.ndarray:
    """Points (..., N - 1) of S^{N-1} as a batch (m, N - 1), or InvalidInputError."""
    if n_ambient < 2:
        raise InvalidInputError("sphere embedding needs ambient dimension >= 2")
    return as_points(thetas, n_ambient - 1, f"s{n_ambient - 1}-pullback")


def hyperspherical_batch(n_ambient: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embedding points (m, N) and Jacobians (m, N, N-1) for a batch: x_i is
    a product of one factor per angle, sin t_a before the angle whose cosine
    it takes (x_1 takes none), that cosine, then 1, and d_a x_i swaps factor
    a for its derivative between the exclusive prefix and suffix products."""
    t = _angles(n_ambient, thetas)
    cos_at = n_ambient - 1 - np.arange(n_ambient)  # [i] = the angle whose cosine x_i takes
    if n_ambient > 2:
        cos_at[:2] = cos_at[1::-1]
    side = np.sign(np.arange(t.shape[1]) - cos_at[:, None]) + 1  # 0, 1, 2: before, at, after it
    sin, cos = np.sin(t)[:, None], np.cos(t)[:, None]
    f, df = np.choose(side, [sin, cos, 1.0]), np.choose(side, [cos, -sin, 0.0])  # (m, N, d)
    prefix, suffix = np.ones_like(f), np.ones_like(f)
    np.cumprod(f[..., :-1], axis=-1, out=prefix[..., 1:])
    np.cumprod(f[..., :0:-1], axis=-1, out=suffix[..., -2::-1])
    return prefix[..., -1] * f[..., -1], prefix * df * suffix


def _check_polar(n_ambient: int, theta: np.ndarray):
    inside = off_pole(theta, max(n_ambient - 2, 0), POLE_MARGIN)[0]
    if not np.logical_and.reduce(inside, None):
        i = int(inside.argmin())
        raise SingularityError(
            f"polar angle t{i + 1} = {theta[i]:g} is not in "
            f"({POLE_MARGIN:g}, pi - {POLE_MARGIN:g}); the embedding Jacobian "
            "degenerates at a coordinate pole",
            point=theta,
        )


def pullback_metric(n_ambient: int, theta: np.ndarray) -> MetricTensor:
    """Induced metric g = diag(lam) at one point (N - 1,), with its own frame
    (lam, I): the condition is max lam / min lam, with no eigh."""
    field = sphere_metric_field(n_ambient)
    g = field.func(theta)[0]  # _angles checks N before the width
    theta = as_points(theta, field.dim, field.name, one=True)
    _check_polar(n_ambient, theta)
    return _finish(g, g.diagonal(), np.eye(len(g)), None)


def _diagonal(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin t_b, sin^2 t_b of the polar angles and lam_a = prod_{b<a} sin^2 t_b at points (m, d)."""
    sin = np.sin(t[:, :-1])
    sin2, lam = sin * sin, np.empty(t.shape)
    lam[:, 0] = 1.0
    np.multiply.accumulate(sin2, -1, out=lam[:, 1:])
    return sin, sin2, lam


@functools.lru_cache(maxsize=64)
def _below(d: int) -> np.ndarray:
    """[c, a] = [c < a] for the d - 1 polar angles c, read-only."""
    below = np.triu(np.ones((d, d)), 1)[:-1]
    below.setflags(write=False)
    return below


def sphere_frame_jet(theta: np.ndarray) -> FrameJet:
    """Exact ``FrameJet`` of the pullback at points (m, d) in the chart's own
    frame: g = diag(lam), lam_a = prod_{b<a} sin^2 t_b, d_c log lam_a =
    2 cot t_c [c < a] and ddlam_cea = d_c d_e lam_a / lam_a = d_c log lam_a
    d_e log lam_a - 2 csc^2 t_c [c = e < a] give hess = -outer - inner, with
    inner_xy = sum_a ddlam_xya and outer_xx = lam_x sum_c ddlam_ccx / lam_c;
    hess's mixed term is 0, as d_y lam_y = 0.  outer and q = I are slices of
    one zeroed block, and every diagonal is written through a strided view
    of its array.
    """
    t = np.asarray(theta, dtype=float)
    t = t.reshape(-1, t.shape[-1])
    m, d = t.shape
    check_alloc(8 * JET_PEAK_D3_ARRAYS * m * d ** 3, f"the S^{d} curvature jet")
    sin, sin2, lam = _diagonal(t)
    below = _below(d)
    dlog = np.zeros((m, d, d))
    dlog[:, :-1] = (2.0 * np.cos(t[:, :-1]) / sin)[..., None] * below
    csc2 = np.zeros((m, d, d))                                # [c, a] = 2 csc^2 t_c [c < a]
    csc2[:, :-1] = (2.0 / sin2)[..., None] * below
    w = 1.0 / lam
    block = np.zeros((2, m, d, d))
    diag = block.reshape(2, m, d * d)[..., ::d + 1]
    diag[0], diag[1] = lam * (w[:, None] @ (dlog * dlog - csc2))[:, 0], 1.0
    inner = dlog @ dlog.swapaxes(1, 2)
    inner.reshape(m, d * d)[:, ::d + 1] -= np.add.reduce(csc2, 2)
    dg = np.zeros((m, d, d, d))
    dg.reshape(m, d, d * d)[..., ::d + 1] = lam[:, None] * dlog
    outer, q = block
    return FrameJet(q=q, lam=lam, dg=dg, hess=-outer - inner)


@functools.lru_cache(maxsize=64)
def sphere_metric_field(n_ambient: int) -> MetricField:
    """Pullback field g = diag(lam) on S^{N-1} over the ``polar_domain`` of N - 2
    polar angles, sampled in [0.3, pi - 0.3], and one azimuth; built once per N
    and shared.  At finite points its value is diag of its jet's lam, bit for bit."""
    def func(pts):
        lam = _diagonal(_angles(n_ambient, pts))[2]
        return lam[:, :, None] * np.eye(n_ambient - 1)

    npolar = max(n_ambient - 2, 0)
    check_alloc(16 * (npolar + 1), f"the S^{n_ambient - 1} sampling box")
    return MetricField(func=func, name=f"s{n_ambient - 1}-pullback",
                       domain=polar_domain(npolar, 1, 0.3, POLE_MARGIN), jet=sphere_frame_jet)


def sphere_einstein_check(n_ambient: int, samples: int, tol: float, seed: int = 0):
    """Einstein verdict for the unit S^{N-1} pullback field (expect
    Lambda = (N - 2) / 2)."""
    if n_ambient < 3:
        raise InvalidInputError("einstein check needs a sphere of dimension >= 2")
    return verdict(sphere_metric_field(n_ambient), samples, tol, seed)

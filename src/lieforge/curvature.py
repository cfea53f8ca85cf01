"""Levi-Civita curvature of a metric field from its jet g, dg, ddg.

Jets are batched: points (..., d) give g, dg, ddg with those leading axes.
The exact ``jet`` of a field (exponential chart, sphere pullback) replaces
the stencil below; for a black-box field one batched field call evaluates,
with step h = 1e-3, the centre and the offsets {-2, -1, 1, 2} h along each
axis e_a (dg, diagonal of ddg) and each diagonal e_a +- e_b, whose
difference gives the mixed d_a d_b g by polarization (Fornberg 1988).
Gamma and Ricci follow from traces of the jet, with no Riemann tensor and
the sign fixed so the unit 2-sphere has Ric = +g.  ``einstein_check`` sends
its samples in chunks sized against the allocation budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ALLOC_BUDGET_BYTES, DomainError, InvalidInputError, LieForgeError,
                     SingularityError, check_alloc)
from .metric import MetricField

BASE_STEP = 1e-3
# riemann_ricci rejects ||g||_1 ||g^-1||_1 above this; for symmetric g the
# product bounds the 2-norm condition number from above
CURVATURE_CONDITION_LIMIT = 1e8
SAMPLE_ATTEMPTS = 200
# offsets along each stencil line, in units of the step
_LINE = np.array([-2.0, -1.0, 1.0, 2.0])
# samples per riemann_ricci call in einstein_check: as many d^4 floats (one
# ddg each) as fit, at least one; larger chunks ran slower from d = 10 up
CHUNK_BYTES = ALLOC_BUDGET_BYTES >> 12


def _require_inside(field: MetricField, pts: np.ndarray, message: str) -> None:
    """DomainError, ``message`` formatted at the first row of pts outside the domain."""
    inside = np.asarray(field.domain.contains(pts), bool)
    if not inside.all():
        raise DomainError(message.format(pts[np.argmin(inside)], field.name))


def metric_jet(field: MetricField, points: np.ndarray,
               h: float = BASE_STEP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


@dataclass(frozen=True)
class CurvatureBundle:  # at points (..., d); every field keeps those leading axes
    gamma: np.ndarray     # Gamma^c_ab, shape (..., d, d, d)
    ricci: np.ndarray     # Ric_ab, shape (..., d, d)
    scalar: float | np.ndarray
    metric: np.ndarray
    point: np.ndarray


def _inverse(g: np.ndarray) -> np.ndarray:
    """g^-1 per matrix; inf where g is exactly singular (infinite condition)."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        return np.full_like(g, np.inf) if g.ndim == 2 else np.stack([_inverse(x) for x in g])


def riemann_ricci(field: MetricField, points: np.ndarray,
                  h: float = BASE_STEP) -> CurvatureBundle:
    """Gamma, Ricci and R at points (..., d) from one call of the field's jet
    (metric_jet when it has none).  With A_y = g^-1 d_y g, Ricci is
    d_c Gamma^c_xy - d_y Gamma^c_xc + Gamma^c_cq Gamma^q_xy - Gamma^c_yq Gamma^q_cx,
    d_c Gamma^c_xy = g^cd (d_c Gamma_dxy - d_c g_dq Gamma^q_xy),
    d_y Gamma^c_xc = (g^cd d_x d_y g_cd - tr(A_y A_x)) / 2, Gamma^c_cq = tr(A_q) / 2:
    d^4 work per point and no d^4 array beyond ddg.  Raises DomainError for
    a point outside a jet field's domain (a stencil checks its own rows) and
    SingularityError where ||g||_1 ||g^-1||_1 > CURVATURE_CONDITION_LIMIT,
    naming the first such point.
    """
    points = np.asarray(points, dtype=float)
    lead, flat = points.shape[:-1], points.reshape(-1, points.shape[-1])
    if field.jet is None:
        g, dg, ddg = metric_jet(field, flat, h)
    else:
        _require_inside(field, flat, "{0} is outside the safe domain of {1}")
        g, dg, ddg = field.jet(flat)
    m, d = flat.shape
    ginv = _inverse(g)
    condition = np.abs(g).sum(1).max(1) * np.abs(ginv).sum(1).max(1)
    fine = condition <= CURVATURE_CONDITION_LIMIT
    if not fine.all():
        i = np.argmin(fine)
        raise SingularityError(
            f"metric condition {condition[i]:.3e} exceeds {CURVATURE_CONDITION_LIMIT:.0e}",
            condition=float(condition[i]), point=flat[i])
    t = dg.swapaxes(1, 2)  # Gamma_dab = (d_a g_db + d_b g_da - d_d g_ab) / 2, then g^cd
    gam = (ginv @ (0.5 * (t + t.swapaxes(2, 3) - dg)).reshape(m, d, d * d)).reshape(m, d, d, d)
    gvec = ginv.reshape(m, 1, d * d)
    a = ginv[:, None] @ dg                                           # [y] = A_y
    tr_aa = a.reshape(m, d, d * d) @ a.swapaxes(2, 3).reshape(m, d, d * d).transpose(0, 2, 1)
    # g^cd d_x d_c g_dy (partials commute), g^cd d_c d_d g_xy, g^cd d_x d_y g_cd
    mixed = (gvec[:, None] @ ddg.reshape(m, d, d * d, d)).reshape(m, d, d)
    outer = (gvec @ ddg.reshape(m, d * d, d * d)).reshape(m, d, d)
    inner = (ddg.reshape(m, d * d, d * d) @ gvec.reshape(m, d * d, 1)).reshape(m, d, d)
    # (Gamma^c_cq - g^cd d_c g_dq) Gamma^q_xy
    w = 0.5 * a.diagonal(0, 2, 3).sum(2) - (gvec @ dg.reshape(m, d * d, d)).reshape(m, d)
    swapped = gam.swapaxes(1, 2)                                 # [y, c, q] = Gamma^c_yq
    quad = swapped.reshape(m, d, d * d) @ swapped.reshape(m, d * d, d)
    ric = (0.5 * (mixed + mixed.swapaxes(1, 2) - outer - inner + tr_aa) - quad
           + (w[:, None] @ gam.reshape(m, d, d * d)).reshape(m, d, d))
    scalar = (gvec @ ric.reshape(m, d * d, 1)).reshape(lead)
    return CurvatureBundle(gamma=gam.reshape(lead + (d, d, d)), ricci=ric.reshape(lead + (d, d)),
                           scalar=scalar if lead else float(scalar),
                           metric=g.reshape(lead + (d, d)), point=points)


def christoffel(field: MetricField, point: np.ndarray, h: float = BASE_STEP) -> np.ndarray:
    """Gamma^c_ab at one point, from riemann_ricci and under its condition guard."""
    return riemann_ricci(field, point, h).gamma


@dataclass(frozen=True)
class EinsteinVerdict:
    lambda_hat: float
    lambda_spread: float
    residual: float
    field_residual: float
    samples: int
    tol: float
    passed: bool
    failure: str | None = None

    @classmethod
    def failed(cls, samples: int, tol: float, reason: str) -> "EinsteinVerdict":
        """A verdict that could not be computed: no Lambda, infinite residuals."""
        return cls(lambda_hat=float("nan"), lambda_spread=float("nan"),
                   residual=float("inf"), field_residual=float("inf"),
                   samples=samples, tol=tol, passed=False, failure=reason)


def sample_safe_points(field: MetricField, count: int, rng) -> np.ndarray:
    """``count`` uniform draws from the field's domain box that it contains.

    Each attempt draws ``count`` rows and keeps those ``field.domain.contains``
    accepts; the field itself is never evaluated.
    """
    if not count >= 1:
        raise InvalidInputError(f"need at least one sample point, got {count}")
    dom = field.domain
    check_alloc(8 * count * len(dom.lo), f"{count} sample points")
    kept = np.empty((0, len(dom.lo)))
    for _ in range(SAMPLE_ATTEMPTS):
        batch = rng.uniform(dom.lo, dom.hi, (count, len(dom.lo)))
        kept = np.concatenate([kept, batch[np.asarray(dom.contains(batch), bool)]])
        if len(kept) >= count:
            return kept[:count]
    raise LieForgeError(
        f"could not draw {count} points inside the safe domain of {field.name} "
        f"in {SAMPLE_ATTEMPTS} attempts"
    )


def einstein_check(field: MetricField, points: np.ndarray, tol: float,
                   h: float = BASE_STEP) -> EinsteinVerdict:
    """Test R_ab = 2 Lambda g_ab over a sample of points, given to riemann_ricci
    in chunks of CHUNK_BYTES; a failing chunk is rerun point by point to name
    its first failing sample.  Lambda is estimated per sample as R / (2 d) and
    averaged; the residual is the worst relative Frobenius deviation of Ric
    from 2 Lambda g.  The Lambda-term field equation is checked with
    Lambda_field = Lambda (d - 2), which is degenerate (identically zero) for
    d = 2 and is then reported but excluded from pass/fail.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 1:
        raise InvalidInputError("einstein check needs at least one sample point")
    d, parts = field.dim, []
    step = max(1, CHUNK_BYTES // (8 * d ** 4))
    for chunk in (points[i:i + step] for i in range(0, len(points), step)):
        try:
            b = riemann_ricci(field, chunk, h)
        except (SingularityError, DomainError):
            for p in chunk:
                try:
                    riemann_ricci(field, p, h)
                except (SingularityError, DomainError) as exc:
                    return EinsteinVerdict.failed(len(points), tol, f"sample {p} failed: {exc}")
            raise
        parts.append((b.ricci, b.metric, b.scalar))
    ric, g, scalar = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    lambdas = scalar / (2.0 * d)
    lam = float(lambdas.sum()) / len(lambdas)
    # ||Ric - s g||_F / ||g||_F per sample, s = 2 Lambda and R / 2 - Lambda (d - 2)
    shift = np.empty((2, len(lambdas), 1, 1))
    shift[0], shift[1, :, 0, 0] = 2.0 * lam, 0.5 * scalar - lam * (d - 2)
    r = ric - shift * g
    ratio = np.einsum("kmab,kmab->km", r, r) / np.einsum("mab,mab->m", g, g)
    residual, field_residual = np.sqrt(ratio.max(axis=1)).tolist()
    failure = None
    if not residual < tol:
        failure = f"residual {residual:.3e} is not below tolerance {tol:.3e}"
    elif d != 2 and not field_residual < tol:
        failure = f"field residual {field_residual:.3e} is not below tolerance {tol:.3e}"
    return EinsteinVerdict(lambda_hat=lam, lambda_spread=float(lambdas.max() - lambdas.min()),
                           residual=residual, field_residual=field_residual, samples=len(points),
                           tol=tol, passed=failure is None, failure=failure)

"""Levi-Civita curvature of a metric field from its jet g, dg, ddg.

A field that carries an exact ``jet`` (the exponential chart, the sphere
pullback) skips the stencil below.  For a black-box field the jet at a point
comes from one batched field call on one stencil with base step h = 1e-3:
the centre and the offsets {-2, -1, 1, 2} h along each axis e_a, which give
dg and the diagonal of ddg, and along each diagonal e_a +- e_b, whose
difference gives the mixed d_a d_b g by polarization (4th-order weights per
Fornberg 1988).  Gamma, its derivative and Riemann follow in closed form
from g, dg and ddg.  The Riemann sign convention is fixed so the unit
2-sphere has Ric = +g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, LieForgeError, SingularityError, check_alloc
from .metric import MetricField

BASE_STEP = 1e-3
# riemann_ricci rejects ||g||_1 ||g^-1||_1 above this; for symmetric g the
# product bounds the 2-norm condition number from above
CURVATURE_CONDITION_LIMIT = 1e8
SAMPLE_ATTEMPTS = 200
# offsets along each stencil line, in units of the step
_LINE = np.array([-2.0, -1.0, 1.0, 2.0])


def _guarded(field: MetricField):
    def f(pts):
        inside = np.asarray(field.domain.contains(pts))
        if not np.all(inside):
            bad = np.atleast_2d(pts)[~inside][0]
            raise DomainError(
                f"finite-difference stencil leaves the safe domain of "
                f"{field.name} near {bad}"
            )
        return field(pts)

    return f


def _lower_christoffel(dg: np.ndarray) -> np.ndarray:
    """Gamma_dab = (d_a g_db + d_b g_da - d_d g_ab) / 2 from dg[..., c, a, b] = d_c g_ab."""
    return 0.5 * (np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg)


def metric_jet(field: MetricField, point: np.ndarray,
               h: float = BASE_STEP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g, dg[e, a, b] = d_e g_ab and ddg[e, f, a, b] = d_e d_f g_ab at one point.

    One guarded field call evaluates 1 + 4 d^2 distinct rows: the centre and
    the offsets {-2, -1, 1, 2} h along the d axes e_a and the d (d - 1)
    diagonals e_a +- e_b.  On the axes dg is the 4th-order central difference
    (f(-2) - 8 f(-1) + 8 f(1) - f(2)) / (12 h) and the diagonal of ddg is
    (-f(-2) + 16 f(-1) - 30 f(0) + 16 f(1) - f(2)) / (12 h^2).  Each mixed
    d_a d_b g is that second difference of q(s) = D(s) / 4, where
    D(s) = f(s (e_a + e_b)) - f(s (e_a - e_b)) and q(0) = 0:
    (-D(-2) + 16 D(-1) + 16 D(1) - D(2)) / (48 h^2), with the diagonals
    subtracted first because that order sets the round-off.
    """
    point = np.asarray(point, dtype=float)
    d = point.size
    eye = np.eye(d)
    pa, pb = np.triu_indices(d, 1)
    lines = np.concatenate([eye, eye[pa] + eye[pb], eye[pa] - eye[pb]])  # (d + 2p, d)
    offsets = (_LINE * h)[None, :, None] * lines[:, None, :]
    vals = _guarded(field)(point + np.concatenate([np.zeros((1, d)), offsets.reshape(-1, d)]))

    g = vals[0]
    on_line = np.moveaxis(vals[1:].reshape(len(lines), len(_LINE), d, d), 1, 0)
    fm2, fm1, fp1, fp2 = on_line[:, :d]
    dg = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    ddg = np.empty((d, d, d, d))
    ar = np.arange(d)
    ddg[ar, ar] = (-fm2 + 16.0 * fm1 - 30.0 * g + 16.0 * fp1 - fp2) / (12.0 * h * h)
    dm2, dm1, dp1, dp2 = on_line[:, d:d + len(pa)] - on_line[:, d + len(pa):]
    cross = (-dm2 + 16.0 * dm1 + 16.0 * dp1 - dp2) / (48.0 * h * h)
    ddg[pa, pb] = cross
    ddg[pb, pa] = cross
    return g, dg, ddg


@dataclass(frozen=True)
class CurvatureBundle:
    gamma: np.ndarray     # Gamma^c_ab, shape (d, d, d)
    riemann: np.ndarray   # R^d_cab, shape (d, d, d, d)
    ricci: np.ndarray     # Ric_ab
    scalar: float
    metric: np.ndarray
    point: np.ndarray


def riemann_ricci(field: MetricField, point: np.ndarray,
                  h: float = BASE_STEP) -> CurvatureBundle:
    """Full curvature hierarchy at one point, from the field's exact jet
    when it has one and from one metric_jet stencil otherwise.

    Gamma^c_ab = g^cd Gamma_dab and, differentiating,
    d_e Gamma^c_ab = g^cd (d_e Gamma_dab - d_e g_dq Gamma^q_ab).
    Raises DomainError when a jet field's domain does not contain the point
    (a stencil checks its own rows), and SingularityError when
    ||g||_1 ||g^-1||_1 exceeds CURVATURE_CONDITION_LIMIT.
    """
    point = np.asarray(point, dtype=float)
    if field.jet is None:
        g, dg, ddg = metric_jet(field, point, h)
    elif np.asarray(field.domain.contains(point[None]))[0]:
        g, dg, ddg = field.jet(point)
    else:
        raise DomainError(f"{point} is outside the safe domain of {field.name}")
    d = len(g)
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:  # exactly singular: infinite condition
        ginv = np.full_like(g, np.inf)
    condition = float(np.linalg.norm(g, 1) * np.linalg.norm(ginv, 1))
    if not condition <= CURVATURE_CONDITION_LIMIT:
        raise SingularityError(
            f"metric condition {condition:.3e} exceeds {CURVATURE_CONDITION_LIMIT:.0e}",
            condition=condition, point=point,
        )
    gam_flat = ginv @ _lower_christoffel(dg).reshape(d, d * d)
    dlow = _lower_christoffel(ddg).reshape(d, d, d * d)
    gam = gam_flat.reshape(d, d, d)
    dgam = (ginv @ (dlow - dg @ gam_flat)).reshape(d, d, d, d)  # (e, c, a, b) = d_e Gamma^c_ab
    t1 = np.transpose(dgam, (1, 3, 0, 2))  # d_a Gamma^d_bc -> [d, c, a, b]
    t2 = np.transpose(dgam, (1, 3, 2, 0))  # d_b Gamma^d_ac -> [d, c, a, b]
    q1 = np.einsum("dae,ebc->dcab", gam, gam)
    q2 = np.einsum("dbe,eac->dcab", gam, gam)
    riem = t1 - t2 + q1 - q2
    ric = np.einsum("cacb->ab", riem)
    scalar = float(np.einsum("ab,ab->", ginv, ric))
    return CurvatureBundle(gamma=gam, riemann=riem, ricci=ric,
                           scalar=scalar, metric=g, point=point)


def christoffel(field: MetricField, point: np.ndarray,
                h: float = BASE_STEP) -> np.ndarray:
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
    """Test R_ab = 2 Lambda g_ab over a sample of points.

    Lambda is estimated per sample as R / (2 d) and averaged; the residual is
    the worst relative Frobenius deviation of Ric from 2 Lambda g.  The
    Lambda-term field equation is checked with Lambda_field = Lambda (d - 2),
    which is degenerate (identically zero) for d = 2 and is then reported but
    excluded from pass/fail.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 1:
        raise InvalidInputError("einstein check needs at least one sample point")
    d = field.dim
    residual, field_residual = 0.0, 0.0
    bundles = []
    for p in points:
        try:
            bundles.append(riemann_ricci(field, p, h))
        except (SingularityError, DomainError) as exc:
            return EinsteinVerdict.failed(len(points), tol, f"sample {p} failed: {exc}")
    lambdas = np.array([b.scalar / (2.0 * d) for b in bundles])
    lam = float(lambdas.mean())
    for b in bundles:
        gnorm = np.linalg.norm(b.metric)
        residual = max(residual, np.linalg.norm(b.ricci - 2.0 * lam * b.metric) / gnorm)
        fr = np.linalg.norm(
            b.ricci - 0.5 * b.scalar * b.metric + lam * (d - 2) * b.metric
        ) / gnorm
        field_residual = max(field_residual, fr)
    failure = None
    if not residual < tol:
        failure = f"residual {residual:.3e} is not below tolerance {tol:.3e}"
    elif d != 2 and not field_residual < tol:
        failure = f"field residual {field_residual:.3e} is not below tolerance {tol:.3e}"
    return EinsteinVerdict(
        lambda_hat=lam,
        lambda_spread=float(lambdas.max() - lambdas.min()),
        residual=float(residual),
        field_residual=float(field_residual),
        samples=len(points), tol=tol, passed=failure is None, failure=failure,
    )

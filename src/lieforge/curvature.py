"""Levi-Civita curvature of a metric field from its ``metric.FrameJet``.

Every field carries an exact jet (exponential chart, Euler chart, sphere
pullback): dg and the one term of 2 Ric that holds second derivatives, in
an orthonormal frame where g = diag(lam); the condition guard reads only lam.
Ricci and R follow from traces in that frame, with no Riemann tensor and
the sign fixed so the unit 2-sphere has Ric = +g.  ``einstein_check`` reads
only frame-invariant norms and sends its samples in budget-sized chunks.
"""

from typing import NamedTuple

import numpy as np

from .errors import (ALLOC_BUDGET_BYTES, DomainError, InvalidInputError, SingularityError,
                     as_points, check_alloc)
from .metric import FrameJet, MetricField, condition_number

# riemann_ricci rejects a jet whose lam has max lam / min lam above this, or
# min lam <= 0: S^7's sampling box reaches 2.3e6 at its corners, S^16 passes
CURVATURE_CONDITION_LIMIT = 1e8
# samples per curvature call in einstein_check: as many d^3 floats (one per
# sample) as fit, at least one; larger chunks ran slower from d = 28 up
CHUNK_BYTES = ALLOC_BUDGET_BYTES >> 13


def _require_inside(field: MetricField, pts: np.ndarray, message: str) -> None:
    """DomainError, ``message`` formatted at the first row of pts outside the domain."""
    inside = np.asarray(field.domain.contains(pts), bool)
    if not np.logical_and.reduce(inside, None):
        raise DomainError(message.format(pts[inside.argmin()], field.name))


class CurvatureBundle(NamedTuple):  # at points (..., d); every field keeps those leading axes
    ricci: np.ndarray     # Ric_ab, shape (..., d, d)
    scalar: float | np.ndarray


def _frame_ricci(field: MetricField,
                 points: np.ndarray) -> tuple[FrameJet, np.ndarray, np.ndarray]:
    """The jet at points (m, d), trusted as ``as_points`` gives them, and Ricci
    and R in its frame, where g^-1 = diag(w), w = 1 / lam.  With A_y = g^-1 d_y g, Ricci is
    d_c Gamma^c_xy - d_y Gamma^c_xc + Gamma^c_cq Gamma^q_xy - Gamma^c_yq Gamma^q_cx,
    d_c Gamma^c_xy = g^cd (d_c Gamma_dxy - d_c g_dq Gamma^q_xy),
    d_y Gamma^c_xc = (g^cd d_x d_y g_cd - tr(A_y A_x)) / 2, Gamma^c_cq = tr(A_q) / 2:
    the second derivatives enter as jet.hess / 2.
    Raises DomainError, naming the first point outside the domain, then
    SingularityError, naming the first point where ``condition_number(lam)``
    exceeds CURVATURE_CONDITION_LIMIT."""
    d = field.dim
    _require_inside(field, points, "{0} is outside the safe domain of {1}")
    jet = field.jet(points)
    condition = condition_number(jet.lam)
    ok = condition <= CURVATURE_CONDITION_LIMIT  # nan fails too
    if not np.logical_and.reduce(ok, None):
        i = ok.argmin()
        worst = float(condition[i])
        raise SingularityError(
            f"metric condition {worst:.3e} exceeds {CURVATURE_CONDITION_LIMIT:.0e}",
            condition=worst, point=points[i])
    m, dg, w = len(points), jet.dg, 1.0 / jet.lam
    t = dg.swapaxes(1, 2)  # Gamma_dab = (d_a g_db + d_b g_da - d_d g_ab) / 2, then w_d
    gam = (0.5 * w[:, :, None, None]) * (t + t.swapaxes(2, 3) - dg)
    flat = dg.reshape(m, d, d * d)
    tr_aa = (flat * (w[:, :, None] * w[:, None]).reshape(m, 1, d * d)) @ flat.swapaxes(1, 2)
    # (Gamma^c_cq - g^cd d_c g_dq) Gamma^q_xy
    v = (0.5 * dg.diagonal(0, 2, 3) - dg.diagonal(0, 1, 2)) @ w[:, :, None]
    swapped = gam.swapaxes(1, 2)                                 # [y, c, q] = Gamma^c_yq
    quad = swapped.reshape(m, d, d * d) @ swapped.reshape(m, d * d, d)
    ric = (0.5 * (jet.hess + tr_aa) - quad
           + (v.swapaxes(1, 2) @ gam.reshape(m, d, d * d)).reshape(m, d, d))
    return jet, ric, np.add.reduce(ric.diagonal(0, 1, 2) * w, 1)


def riemann_ricci(field: MetricField, points: np.ndarray) -> CurvatureBundle:
    """Ricci, turned back into chart coordinates as Q Ric' Q^T, and R at points
    (..., d) from one call of the field's jet; a scalar is one coordinate.  Raises
    InvalidInputError for points that ``as_points`` rejects, checked before the
    domain, then as ``_frame_ricci`` does: DomainError and SingularityError."""
    points = np.asarray(points, dtype=float)
    jet, ric, scalar = _frame_ricci(field, as_points(points, field.dim, field.name))
    lead, d, q = points.shape[:-1], field.dim, jet.q
    return CurvatureBundle(ricci=(q @ ric @ q.swapaxes(1, 2)).reshape(lead + (d, d)),
                           scalar=scalar.reshape(lead) if lead else float(scalar[0]))


class EinsteinVerdict(NamedTuple):
    lambda_hat: float
    lambda_spread: float
    residual: float
    field_residual: float
    failure: str | None = None

    passed = property(lambda self: self.failure is None)

    @classmethod
    def failed(cls, reason: str) -> "EinsteinVerdict":
        """A verdict that could not be computed: no Lambda, infinite residuals."""
        return cls(lambda_hat=float("nan"), lambda_spread=float("nan"),
                   residual=float("inf"), field_residual=float("inf"), failure=reason)


def check_samples(count: int) -> None:
    """InvalidInputError unless ``count`` is an integer >= 1, numpy integers included, not bool."""
    if not (isinstance(count, (int, np.integer)) and not isinstance(count, bool) and count >= 1):
        raise InvalidInputError(f"need an integer count of at least one sample point, got {count}")


def check_tol(tol: float) -> None:
    """InvalidInputError unless a verdict's tolerance is positive and finite."""
    if not 0 < tol < float("inf"):  # also rejects nan
        raise InvalidInputError("tolerance must be positive and finite")


def sample_safe_points(field: MetricField, count: int, rng) -> np.ndarray:
    """``count`` uniform draws from the field's domain box, one draw
    lo + (hi - lo) * rng.random((count, d)), bitwise ``rng.uniform(lo, hi, ...)``.

    Every chart's box lies inside the region its ``contains`` accepts, so no
    draw is refused; a point outside it would still fail the jet's domain
    guard.  The field itself is never evaluated.
    """
    check_samples(count)
    dom, d = field.domain, len(field.domain.lo)
    check_alloc(8 * count * d, f"{count} sample points")
    return dom.lo + (dom.hi - dom.lo) * rng.random((count, d))


def einstein_check(field: MetricField, points: np.ndarray, tol: float) -> EinsteinVerdict:
    """Test R_ab = 2 Lambda g_ab over a sample of points, in the frames of their
    jets, in chunks of CHUNK_BYTES; a failing chunk is rerun point by point to
    name its first failing sample.  Lambda is estimated per sample as
    R / (2 d) and averaged; the residual is the worst relative Frobenius
    deviation of Ric from 2 Lambda g.  The Lambda-term field equation is
    checked with Lambda_field = Lambda (d - 2), which is degenerate
    (identically zero) for d = 2 and is then reported but excluded from
    pass/fail.  Raises InvalidInputError for a tolerance that is not positive
    and finite, or points (..., d) that ``as_points`` rejects.
    """
    check_tol(tol)
    d, parts = field.dim, []
    points = as_points(points, d, field.name)
    step = max(1, CHUNK_BYTES // (8 * d ** 3))
    for chunk in (points[i:i + step] for i in range(0, len(points), step)):
        try:
            jet, ric, scalar = _frame_ricci(field, chunk)
        except (SingularityError, DomainError):
            for p in chunk:
                try:
                    _frame_ricci(field, p[None])
                except (SingularityError, DomainError) as exc:
                    return EinsteinVerdict.failed(f"sample {p} failed: {exc}")
            raise
        parts.append((ric, jet.lam, scalar))
    ric, g_eig, scalar = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    lambdas = scalar / (2.0 * d)
    lam = float(np.add.reduce(lambdas, None)) / len(lambdas)
    # ||Ric - s g||_F / ||g||_F per sample in the jet's frame, g = diag(g_eig),
    # s = 2 Lambda and R / 2 - Lambda (d - 2), subtracted on the diagonals of
    # two copies of Ric; an expanded square loses digits
    r = ric[None].repeat(2, axis=0)
    diag = r.reshape(2, len(ric), d * d)[..., ::d + 1]
    diag[0] -= (2.0 * lam) * g_eig
    diag[1] -= (0.5 * scalar - lam * (d - 2))[:, None] * g_eig
    ratio = np.einsum("kmab,kmab->km", r, r) / np.einsum("ma,ma->m", g_eig, g_eig)
    residual, field_residual = np.sqrt(np.maximum.reduce(ratio, 1)).tolist()
    failure = None
    if not residual < tol:
        failure = f"residual {residual:.3e} is not below tolerance {tol:.3e}"
    elif d != 2 and not field_residual < tol:
        failure = f"field residual {field_residual:.3e} is not below tolerance {tol:.3e}"
    spread = float(np.maximum.reduce(lambdas, None) - np.minimum.reduce(lambdas, None))
    return EinsteinVerdict(lambda_hat=lam, lambda_spread=spread,
                           residual=residual, field_residual=field_residual, failure=failure)

"""Chart parametrizations U(theta) of group manifolds with first derivatives,
and ``safe_domain``, the one table of charts that every chart consumer reads:
its box's width is a chart's coordinate count, every group's exp chart has one
ball, and ``polar_domain`` builds the box and pole rule of polar-angle charts.

The exponential chart of any cataloged group (U and dU from
``kernel.expm_dual``) is an oracle for the tests and the benchmark, as the
production metric uses the adjoint form in ``metric.py``.  In the z-x-z
Euler-angle chart of SU(2) every entry of U and its partials is a phase
times a constant combination of (cos, sin)(theta / 2); with the place of
each factor (``EULER_FACTOR_ORDER``) they give the Euler jet in ``metric.py``.
"""

import functools
from typing import Callable, NamedTuple

import numpy as np

from .catalog import GroupSpec
from .errors import InvalidInputError, as_points
from .kernel import expm_dual

EXP_NORM_MAX = 2.0 * np.pi - 1e-2
# g's smallest eigenvalue is about delta^2 / 2 at a distance delta from a
# pole theta = 0 or pi, and the curvature from the exact jet loses about
# 1e-15 / delta^4 to round-off there: |R - 3/2| reached 1.1e-3 over 100
# points at this margin
EULER_POLE_MARGIN = 1e-3
# the place of (theta, phi, psi)'s factor in the product U_z(phi) U_x(theta) U_z(psi)
EULER_FACTOR_ORDER = (1, 0, 2)
# angles @ _EULER_PHASE: theta / 2, then the phases of U's entries 00, 01, 10, 11:
# (phi + psi) / 2, (phi - psi) / 2, (psi - phi) / 2 and -(phi + psi) / 2
_EULER_PHASE = 0.5 * np.array([[1, 0, 0, 0, 0], [0, 1, 1, -1, -1], [0, 1, -1, 1, -1]])
# (cos, sin)(theta / 2) @ _EULER_TRIG: what multiplies those phases in U, d_theta U,
# d_phi U = (i/2) sigma_3 U and d_psi U = U (i/2) sigma_3, entry by entry
_EULER_TRIG = 0.5 * np.array([[2, 0, 0, 2, 0, 1j, 1j, 0, 1j, 0, 0, -1j, 1j, 0, 0, -1j],
                              [0, 2j, 2j, 0, -1, 0, 0, -1, 0, -1, 1, 0, 0, 1, -1, 0]])


class SafeDomain(NamedTuple):
    """Sampling box plus the membership predicate for one chart.  The box
    lies inside the region that ``contains`` accepts, so every uniform draw
    from it is a valid sample.  Fields are cached and shared, so every
    producer makes the box read-only."""

    lo: np.ndarray
    hi: np.ndarray
    contains: Callable[[np.ndarray], np.ndarray]  # (m, d) -> bool (m,)


class _ChartFields(NamedTuple):
    chart: str  # "exp" | "euler"
    coords: np.ndarray
    group: GroupSpec


class ChartPoint(_ChartFields):
    """One point of a group's chart, checked at construction, ``_replace`` included:
    the chart is in ``safe_domain``'s table and coords has its box's width.  This is
    a point query's one width check; ``metric.metric`` trusts it."""
    __slots__ = ()

    def __new__(cls, chart, coords, group):
        width = len(safe_domain(group, chart).lo)
        coords = as_points(coords, width, group.name, chart, one=True)
        return super().__new__(cls, chart, coords, group)

    @classmethod
    def _make(cls, iterable):  # NamedTuple's _make, and so _replace, skip __new__
        return cls(*iterable)


def exp_chart_batch(spec: GroupSpec, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U = exp(sum_a theta^a X_a) and dU_a at points (..., dim), flattened to m."""
    thetas = as_points(thetas, spec.dim, spec.name, "exp")
    m = len(thetas)
    n = spec.matrix_size
    stack = np.empty((m, spec.dim + 1, n, n), dtype=complex)
    stack[:, 0] = np.einsum("ma,aij->mij", thetas, spec.generators)
    stack[:, 1:] = spec.generators  # seed one direction per coordinate
    out = expm_dual(stack)
    return out[:, 0], out[:, 1:]


def euler_chart_batch(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SU(2) z-x-z chart U = U_z(phi) U_x(theta) U_z(psi) and its partials at
    points (theta, phi, psi) (..., 3), flattened, U_z(a) = exp(i a sigma_3 / 2)
    and U_x(t) = exp(i t sigma_1 / 2).  With (c, s) = (cos, sin)(theta / 2) and the
    phases p, q = e^{i (phi +- psi) / 2}, U = [[p c, i q s], [i q* s, p* c]], so
    every entry of U, d_theta U, d_phi U = (i/2) sigma_3 U and d_psi U =
    U (i/2) sigma_3 is a phase times a constant combination of (c, s), the real
    view of e^{i theta / 2}: one complex exponential and one matmul."""
    angles = as_points(angles, 3, "su2", "euler")
    m = len(angles)
    z = np.exp(1j * (angles @ _EULER_PHASE))
    out = z[:, None, 1:] * (z[:, :1].view(float) @ _EULER_TRIG).reshape(m, 4, 4)
    return out[:, 0].reshape(m, 2, 2), out[:, 1:].reshape(m, 3, 2, 2)


def off_pole(pts: np.ndarray, npolar: int, margin: float) -> np.ndarray:
    """Per row of pts and polar angle t, its first npolar coordinates: margin < t < pi - margin."""
    pts = np.asarray(pts)
    polar = (pts.reshape(1, -1) if pts.ndim < 2 else pts)[:, :npolar]
    return (polar > margin) & (polar < np.pi - margin)


def polar_domain(npolar: int, nazimuthal: int, box_margin: float, pole_margin: float) -> SafeDomain:
    """The domain of a chart of ``npolar`` polar angles, then ``nazimuthal`` azimuthal
    ones: its read-only box samples polar angles ``box_margin`` from 0 and pi and
    azimuthal ones in [-pi, pi]; it accepts points ``off_pole`` by ``pole_margin``."""
    box = np.array([[box_margin] * npolar + [-np.pi] * nazimuthal,
                    [np.pi - box_margin] * npolar + [np.pi] * nazimuthal])
    box.setflags(write=False)
    return SafeDomain(lo=box[0], hi=box[1], contains=lambda pts: np.logical_and.reduce(
        off_pole(pts, npolar, pole_margin), 1))


def chart_cache(build: Callable) -> Callable:
    """lru_cache for (spec, chart, ...) builders; a chart that is not a string is unknown."""
    cached = functools.lru_cache(maxsize=64)(build)

    def call(spec, chart, *rest):
        if isinstance(chart, str):
            return cached(spec, chart, *rest)
        raise InvalidInputError(f"unknown chart {chart!r}")
    return functools.update_wrapper(call, build)


@chart_cache
def safe_domain(spec: GroupSpec, chart: str) -> SafeDomain:
    """The one table of charts: sampling box, whose width is the chart's
    coordinate count, and membership predicate, cached per (spec, chart) with
    a read-only box.  An unknown chart or the Euler chart off su2 is
    InvalidInputError.

    Every group's exp chart accepts the ball |theta| < EXP_NORM_MAX and samples
    the box of half-width 0.9 EXP_NORM_MAX / sqrt(d), its corners inside it.
    Its metric 2 kappa psi(ad_theta^2) is regular where rho(ad_theta) < 2 pi
    (Helgason 1978, DGLSS ch. II section 1).  With Tr(X_a^dag X_b) = delta_ab / 2,
    A = theta^a X_a has |A|_F^2 = |theta|^2 / 2 and ad_A's eigenvalues lie among
    i (w_j - w_k) for the eigenvalues w of iA, so rho(ad_theta) <= w_max - w_min
    <= sqrt(2 (w_max^2 + w_min^2)) <= |theta|, tight along a root of su(n) and
    sp(n), and in the ball ad_theta^2 >= -|theta|^2 > ``kernel.PSI_SERIES_MIN``.
    """
    if chart == "euler":
        if spec.name != "su2":
            raise InvalidInputError("euler chart exists only for su2")
        return polar_domain(1, 2, 0.25, EULER_POLE_MARGIN)

    if chart != "exp":
        raise InvalidInputError(f"unknown chart {chart!r}")
    d = spec.dim

    def contains(pts):
        p = np.asarray(pts).reshape(-1, d)  # np.linalg.norm(p, axis=1), without its wrapper
        return np.sqrt(np.add.reduce(p * p, 1)) < EXP_NORM_MAX

    box = np.outer([-0.9, 0.9], np.full(d, EXP_NORM_MAX / np.sqrt(d)))
    box.setflags(write=False)
    return SafeDomain(lo=box[0], hi=box[1], contains=contains)

"""Chart parametrizations U(theta) of group manifolds with first derivatives,
and ``safe_domain``, the one table of charts that every chart consumer reads.

Two charts are provided: the exponential chart for any cataloged group
(U and its derivatives from one eigendecomposition in ``kernel.expm_dual``,
one generator seeded per partial slot; the production metric on this chart
uses the adjoint form in ``metric.py``, so these frames serve the tests and
the benchmark as an oracle) and the z-x-z Euler-angle chart for SU(2) (every
entry of U and its partials a phase times a constant combination of
(cos, sin)(theta / 2)), whose U and d_theta U, with the place of each factor
(``EULER_FACTOR_ORDER``), give the Euler jet in ``metric.py``.
"""

import functools
from typing import Callable, NamedTuple

import numpy as np

from .catalog import GroupSpec
from .errors import InvalidInputError
from .kernel import expm_dual

EXP_SU2_NORM_MAX = 2.0 * np.pi - 1e-2
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
    __slots__ = ()

    def __new__(cls, chart, coords, group):
        coords, width = np.asarray(coords, dtype=float), len(safe_domain(group, chart).lo)
        if coords.shape != (width,):
            raise InvalidInputError(f"{chart} chart for {group.name} needs one vector of "
                                    f"{width} coordinates, got shape {coords.shape}")
        return super().__new__(cls, chart, coords, group)


def exp_chart_batch(spec: GroupSpec, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U = exp(sum_a theta^a X_a) and dU_a for a batch of points (m, dim)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != spec.dim:
        raise InvalidInputError(
            f"exp chart for {spec.name}: expected {spec.dim} coordinates, "
            f"got {thetas.shape[1]}"
        )
    m = thetas.shape[0]
    n = spec.matrix_size
    stack = np.empty((m, spec.dim + 1, n, n), dtype=complex)
    stack[:, 0] = np.einsum("ma,aij->mij", thetas, spec.generators)
    stack[:, 1:] = spec.generators  # seed one direction per coordinate
    out = expm_dual(stack)
    return out[:, 0], out[:, 1:]


def euler_chart_batch(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SU(2) z-x-z chart U = U_z(phi) U_x(theta) U_z(psi) and its partials for a
    batch of (theta, phi, psi) rows, U_z(a) = exp(i a sigma_3 / 2) and
    U_x(t) = exp(i t sigma_1 / 2).  With (c, s) = (cos, sin)(theta / 2) and the
    phases p, q = e^{i (phi +- psi) / 2}, U = [[p c, i q s], [i q* s, p* c]], so
    every entry of U, d_theta U, d_phi U = (i/2) sigma_3 U and d_psi U =
    U (i/2) sigma_3 is a phase times a constant combination of (c, s), the real
    view of e^{i theta / 2}: one complex exponential and one matmul."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.shape[1] != 3:
        raise InvalidInputError("euler chart takes (theta, phi, psi)")
    m = len(angles)
    z = np.exp(1j * (angles @ _EULER_PHASE))
    out = z[:, None, 1:] * (z[:, :1].view(float) @ _EULER_TRIG).reshape(m, 4, 4)
    return out[:, 0].reshape(m, 2, 2), out[:, 1:].reshape(m, 3, 2, 2)


@functools.lru_cache(maxsize=64)
def safe_domain(spec: GroupSpec, chart: str) -> SafeDomain:
    """The one table of charts: sampling box, whose width is the chart's
    coordinate count, and membership predicate, cached per (spec, chart) with
    a read-only box.  An unknown chart or the Euler chart off su2 is
    InvalidInputError.

    The exponential chart of SU(2) is nondegenerate for |theta| < 2*pi - 1e-2;
    other groups get a conservative injectivity ball |theta| < pi/2 in the
    normalized basis.
    """
    if chart == "euler":
        if spec.name != "su2":
            raise InvalidInputError("euler chart exists only for su2")
        box = np.array([[0.25, -np.pi, -np.pi], [np.pi - 0.25, np.pi, np.pi]])
        box.setflags(write=False)

        def contains(pts):
            theta = np.atleast_2d(pts)[:, 0]
            return (theta > EULER_POLE_MARGIN) & (theta < np.pi - EULER_POLE_MARGIN)

        return SafeDomain(lo=box[0], hi=box[1], contains=contains)

    if chart != "exp":
        raise InvalidInputError(f"unknown chart {chart!r}")

    d = spec.dim
    if spec.name == "su2":
        r = 1.5
        nmax = EXP_SU2_NORM_MAX
    else:
        r = 0.95 * (np.pi / 2) / np.sqrt(d)
        nmax = np.pi / 2

    def contains(pts, _nmax=nmax):
        p = np.asarray(pts).reshape(-1, d)  # np.linalg.norm(p, axis=1), without its wrapper
        return np.sqrt((p * p).sum(1)) < _nmax

    box = np.outer([-r, r], np.ones(d))
    box.setflags(write=False)
    return SafeDomain(lo=box[0], hi=box[1], contains=contains)

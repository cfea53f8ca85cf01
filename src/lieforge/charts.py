"""Chart parametrizations U(theta) of group manifolds with first derivatives,
and the safe domain of each chart.

Two charts are provided: the exponential chart for any cataloged group
(U and its derivatives from one eigendecomposition in ``kernel.expm_dual``,
one generator seeded per partial slot; the production metric on this chart
uses the adjoint form in ``metric.py``, so these frames serve the tests and
the benchmark as an oracle) and the z-x-z Euler-angle chart for SU(2) (one
stack of closed 2x2 factors from one phase exponential, derivatives by
constant Pauli products), whose U and d_theta U also give the Euler metric's
exact jet in ``metric.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import GroupSpec
from .errors import InvalidInputError
from .kernel import SIGMA_1, SIGMA_3, expm_dual

EXP_SU2_NORM_MAX = 2.0 * np.pi - 1e-2
# g's smallest eigenvalue is about delta^2 / 2 at a distance delta from a
# pole theta = 0 or pi, and the curvature from the exact jet loses about
# 1e-15 / delta^4 to round-off there: |R - 3/2| reached 1.1e-3 over 100
# points at this margin
EULER_POLE_MARGIN = 1e-3
_HALF_I_SIGMA_1 = 0.5j * SIGMA_1
_HALF_I_SIGMA_3 = 0.5j * SIGMA_3


@dataclass(frozen=True)
class SafeDomain:
    """Sampling box plus the membership predicate for one chart."""

    lo: np.ndarray
    hi: np.ndarray
    contains: Callable[[np.ndarray], np.ndarray]  # (m, d) -> bool (m,)


@dataclass(frozen=True)
class ChartPoint:
    chart: str  # "exp" | "euler"
    coords: np.ndarray
    group: GroupSpec

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        if self.chart == "exp":
            if len(self.coords) != self.group.dim:
                raise InvalidInputError(
                    f"exp chart for {self.group.name} needs {self.group.dim} "
                    f"coordinates, got {len(self.coords)}"
                )
        elif self.chart == "euler":
            if self.group.name != "su2" or len(self.coords) != 3:
                raise InvalidInputError("euler chart is the 3-coordinate SU(2) chart")
        else:
            raise InvalidInputError(f"unknown chart {self.chart!r}")


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
    """SU(2) z-x-z chart U = U_z(phi) U_x(theta) U_z(psi) for a batch of
    (theta, phi, psi) rows, U_z(a) = exp(i a sigma_3 / 2) and
    U_x(t) = exp(i t sigma_1 / 2).  Each derivative is a constant product:
    d_phi U = (i/2) sigma_3 U, d_psi U = U (i/2) sigma_3 and
    d_theta U = U_z(phi) U_x(theta) (i/2) sigma_1 U_z(psi)."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.shape[1] != 3:
        raise InvalidInputError("euler chart takes (theta, phi, psi)")
    half = np.exp(0.5j * angles)  # e^{i theta/2}, e^{i phi/2}, e^{i psi/2}
    # the factors U_z(phi), U_x(theta), U_z(psi), stacked in product order
    f = np.zeros((3,) + angles.shape[:1] + (2, 2), dtype=complex)
    f[1, :, 0, 0] = f[1, :, 1, 1] = half[:, 0].real
    f[1, :, 0, 1] = f[1, :, 1, 0] = 1j * half[:, 0].imag
    f[::2, :, 0, 0] = half[:, 1:].T
    f[::2, :, 1, 1] = half[:, 1:].T.conj()
    zx = f[0] @ f[1]
    u = zx @ f[2]
    du = np.empty(u.shape[:1] + (3, 2, 2), dtype=complex)
    du[:, 0] = zx @ (_HALF_I_SIGMA_1 @ f[2])
    du[:, 1] = _HALF_I_SIGMA_3 @ u
    du[:, 2] = u @ _HALF_I_SIGMA_3
    return u, du


def safe_domain(spec: GroupSpec, chart: str) -> SafeDomain:
    """Sampling box and membership predicate for a chart.

    The exponential chart of SU(2) is nondegenerate for |theta| < 2*pi - 1e-2;
    other groups get a conservative injectivity ball |theta| < pi/2 in the
    normalized basis.
    """
    if chart == "euler":
        if spec.name != "su2":
            raise InvalidInputError("euler chart exists only for su2")
        lo = np.array([0.25, -np.pi, -np.pi])
        hi = np.array([np.pi - 0.25, np.pi, np.pi])

        def contains(pts):
            theta = np.atleast_2d(pts)[:, 0]
            return (theta > EULER_POLE_MARGIN) & (theta < np.pi - EULER_POLE_MARGIN)

        return SafeDomain(lo=lo, hi=hi, contains=contains)

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
        return np.linalg.norm(np.atleast_2d(pts), axis=1) < _nmax

    return SafeDomain(lo=np.full(d, -r), hi=np.full(d, r), contains=contains)

"""Small hand-written metric fields used as curvature test fixtures; each
takes its jet from the finite-difference stencil oracle."""

import numpy as np

from conftest import phim
from lieforge.charts import SafeDomain, safe_domain
from oracles import stencil_field


def everywhere(d):
    """A domain that contains every point, sampled in the box [-1, 1]^d."""
    return SafeDomain(lo=np.full(d, -1.0), hi=np.full(d, 1.0),
                      contains=lambda x: np.ones(len(np.atleast_2d(x)), bool))


def flat_field(d):
    def func(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.eye(d), (len(pts), d, d)).copy()

    return stencil_field(func=func, domain=everywhere(d), name="flat")


def s2_field():
    """diag(1, sin^2 theta): the unit-sphere metric written out by hand."""
    def func(pts):
        pts = np.atleast_2d(pts)
        g = np.zeros((len(pts), 2, 2))
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = np.sin(pts[:, 0]) ** 2
        return g

    def contains(pts):
        pts = np.atleast_2d(pts)
        return (pts[:, 0] > 0.02) & (pts[:, 0] < np.pi - 0.02)

    domain = SafeDomain(lo=np.array([0.3, -np.pi]), hi=np.array([np.pi - 0.3, np.pi]),
                        contains=contains)
    return stencil_field(func=func, domain=domain, name="s2-hand")


def stencil_exp_domain(spec):
    """The exp chart's domain, sampled in the box of half-width 1.5 on su2 and
    0.95 (pi / 2) / sqrt(d) elsewhere, well inside the production box: the
    finite-difference stencil's error grows with |theta|."""
    r = 1.5 if spec.name == "su2" else 0.95 * (np.pi / 2) / np.sqrt(spec.dim)
    return safe_domain(spec, "exp")._replace(lo=np.full(spec.dim, -r), hi=np.full(spec.dim, r))


def left_invariant_field(spec, q):
    """g = J^T Q J with J = phi(M), M_eb = theta^c f_cbe: the left-invariant
    metric with inner product Q on the Lie algebra, on the exp chart of
    ``spec``, with the box of ``stencil_exp_domain``.  Q = I is the
    bi-invariant k = 2 metric; any other Q is a control that need not be
    Einstein."""
    q = np.asarray(q, dtype=float)

    def func(pts):
        j = phim(np.einsum("mc,cbe->meb", np.atleast_2d(pts), spec.structure))
        return np.swapaxes(j, -1, -2) @ q @ j

    return stencil_field(func=func, domain=stencil_exp_domain(spec),
                         name=f"{spec.name}-left-invariant")

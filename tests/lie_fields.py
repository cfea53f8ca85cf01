"""Small hand-written metric fields used as curvature test fixtures."""

import numpy as np

from lieforge.charts import SafeDomain
from lieforge.metric import MetricField


def everywhere(d):
    """A domain that contains every point, sampled in the box [-1, 1]^d."""
    return SafeDomain(lo=np.full(d, -1.0), hi=np.full(d, 1.0),
                      contains=lambda x: np.ones(len(np.atleast_2d(x)), bool))


def flat_field(d):
    def func(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.eye(d), (len(pts), d, d)).copy()

    return MetricField(dim=d, func=func, domain=everywhere(d), name="flat")


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
    return MetricField(dim=2, func=func, domain=domain, name="s2-hand")

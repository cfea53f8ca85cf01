"""The contracted frame jets and the Ricci built from them, against the
full-ddg oracles contracted with g^-1 and turned into the same frame."""

import functools

import numpy as np
import pytest

from conftest import jet_points
from oracles import chart_ricci, exp_full_jet, frame_contractions, sphere_full_jet
from lieforge.catalog import parse_group_name
from lieforge.curvature import riemann_ricci, sample_safe_points
from lieforge.metric import exp_metric_jet, metric_field
from lieforge.sphere import sphere_metric_field, sphere_metric_jet

# every catalog group up to su8: up to dimension 24 at all six jet points,
# up to 36 at a sampled point, on the generator axis and 1e-9 off it, and
# su7 and su8, whose d^5-flop oracle takes up to a second per point, 1e-9 off
# the axis, where the spectrum of ad^2 nearly coincides
GROUPS = ["su2", "su3", "su4", "su5", "su6", "so3", "so4", "so5", "so6", "so7", "so8", "so9",
          "sp1", "sp2", "sp3", "sp4", "su7", "su8"]
SPHERES = list(range(3, 15))  # S^2 .. S^13


def _case(name):
    """The field, its points, and its frame and full-ddg jets at one point."""
    if name.startswith("s") and name[1:].isdigit():
        field = sphere_metric_field(int(name[1:]) + 1)
        pts = sample_safe_points(field, 4, np.random.default_rng(int(name[1:])))
        return field, pts, sphere_metric_jet, sphere_full_jet
    spec = parse_group_name(name)
    keep = slice(None) if spec.dim <= 24 else [0, 4, 5] if spec.dim <= 36 else [5]
    return (metric_field(spec, "exp", 2.0), jet_points(spec)[keep],
            lambda p: exp_metric_jet(spec, p, 2.0), lambda p: exp_full_jet(spec, p, 2.0))


@functools.lru_cache(maxsize=None)
def cases(name):
    """(field, point, frame jet, oracle (g, dg, ddg)) at each point, one
    point per jet call."""
    field, pts, jet, full = _case(name)
    return [(field, p, jet(p), full(p)) for p in pts]


def worst(got, ref):
    """Largest deviation relative to the reference's scale (at least 1)."""
    return np.abs(got - ref).max() / max(1.0, np.abs(ref).max())


NAMES = GROUPS + [f"s{n - 1}" for n in SPHERES]


@pytest.mark.parametrize("name", NAMES)
def test_contractions_match_the_oracle(name):
    for _, _, jet, (g, dg, ddg) in cases(name):
        assert np.abs(jet.g[0] - g).max() <= 1e-15 * np.abs(g).max()
        q = jet.q[0]
        assert np.abs(q.T @ g @ q - np.diag(jet.lam[0])).max() <= 1e-14 * np.abs(g).max()
        assert np.abs(jet.g_inv[0] @ g - np.eye(len(g))).max() <= 1e-13
        ref = frame_contractions(g, dg, ddg, q)
        for got, want in zip((jet.dg, jet.inner, jet.outer, jet.mixed), ref):
            assert worst(got[0], want) <= 1e-13


@pytest.mark.parametrize("name", NAMES)
def test_ricci_matches_the_oracle(name):
    for field, p, _, full in cases(name):
        b = riemann_ricci(field, p)
        ref = chart_ricci(*full)
        assert worst(b.ricci, ref) <= 1e-13
        assert np.array_equal(b.metric, full[0])

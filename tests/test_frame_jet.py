"""The contracted frame jets and the Ricci built from them, against the
full-ddg oracles contracted with g^-1 and turned into the same frame; the
SU(2) Euler chart's jet against the printed metric's derivatives and the
finite-difference stencil."""

import functools

import numpy as np
import pytest

from conftest import jet_points
from oracles import (chart_ricci, chart_view, closed_form_su2_euler_full_jet, exp_full_jet,
                     frame_contractions, metric_jet, sphere_full_jet)
from lieforge.catalog import parse_group_name
from lieforge.charts import EULER_POLE_MARGIN
from lieforge.curvature import einstein_check, riemann_ricci, sample_safe_points
from lieforge.errors import DomainError
from lieforge.metric import euler_full_jet, exp_frame_jet, metric_field
from lieforge.sphere import sphere_metric_field, sphere_frame_jet

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
        return field, pts, sphere_frame_jet, sphere_full_jet
    spec = parse_group_name(name)
    keep = slice(None) if spec.dim <= 24 else [0, 4, 5] if spec.dim <= 36 else [5]
    return (metric_field(spec, "exp", 2.0), jet_points(spec)[keep],
            lambda p: exp_frame_jet(spec, p, 2.0), lambda p: exp_full_jet(spec, p, 2.0))


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


def euler_points(count=20, seed=0):
    """The SU(2) Euler field at k = 2 and ``count`` points sampled from its box."""
    field = metric_field(parse_group_name("su2"), "euler", 2.0)
    return field, sample_safe_points(field, count, np.random.default_rng(seed))


@pytest.mark.parametrize("k", [2.0, 3.0, 1e-3])
def test_euler_jet_matches_the_printed_metric(k):
    # the full jet, and the frame jet's chart view: dg, and the second
    # derivatives contracted with the printed g^-1
    _, pts = euler_points()
    field = metric_field(parse_group_name("su2"), "euler", k)
    g, dg, ddg = closed_form_su2_euler_full_jet(pts, k)
    for got, want in zip(euler_full_jet(pts, k), (g, dg, ddg)):
        assert np.abs(got - want).max() <= 1e-14
    view = chart_view(field.jet(pts))
    assert np.abs(view[0] - dg).max() <= 1e-14
    g_inv = np.linalg.inv(g)
    for got, spec in zip(view[1:], ("mcd,mxycd->mxy", "mcd,mcdxy->mxy", "mcd,mxcdy->mxy")):
        assert worst(got, np.einsum(spec, g_inv, ddg)) <= 1e-14


def test_euler_jet_matches_the_stencil():
    field, pts = euler_points(8, seed=1)
    for p in pts:
        exact = (x[0] for x in euler_full_jet(p[None], 2.0))
        for want, fd, bound in zip(exact, metric_jet(field, p), (1e-12, 1e-11, 1e-8)):
            assert np.abs(want - fd).max() <= bound


def test_euler_verdict_is_exact():
    field, pts = euler_points()
    v = einstein_check(field, pts, 1e-12)
    assert v.passed and v.residual <= 1e-12
    assert abs(v.lambda_hat - 0.25) <= 1e-12


def test_euler_curvature_up_to_the_poles():
    # round-off grows like 1e-15 / delta^4 at a distance delta from a pole;
    # the domain stops at EULER_POLE_MARGIN
    field, pts = euler_points()
    for theta in (1.01 * EULER_POLE_MARGIN, np.pi - 1.01 * EULER_POLE_MARGIN):
        pts[:, 0] = theta
        assert np.abs(riemann_ricci(field, pts).scalar - 1.5).max() <= 1e-2
    for theta in (0.99 * EULER_POLE_MARGIN, np.pi - 0.99 * EULER_POLE_MARGIN):
        pts[:, 0] = theta
        with pytest.raises(DomainError):
            riemann_ricci(field, pts)

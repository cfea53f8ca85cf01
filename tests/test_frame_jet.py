"""The contracted frame jets and the Ricci built from them, against the
full-ddg oracles contracted with g^-1 and turned into the same frame; the
product-chart jet against the printed SU(2) Euler metric's derivatives and
the finite-difference stencil, on the SU(2) Euler chart and on Tilma and
Sudarshan's SU(3) chart."""

import functools

import numpy as np
import pytest
import scipy.linalg

from conftest import fd_derivative, jet_points, killing_lambda
from oracles import (chart_ricci, chart_view, closed_form_su2_euler_full_jet, euler_chart,
                     exp_full_jet, frame_contractions, hess, maurer_cartan, metric_jet,
                     sphere_full_jet)
from lieforge.catalog import parse_group_name
from lieforge.charts import EULER_FACTOR_ORDER, EULER_POLE_MARGIN, SafeDomain, euler_chart_batch
from lieforge.curvature import einstein_check, riemann_ricci, sample_safe_points
from lieforge.errors import DomainError
from lieforge.metric import (MetricField, _gram, contract_jet, exp_frame_jet, metric_field,
                             product_jet)
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
    # the jet keeps only its frame (q, lam) of the oracle's g, and g^-1 = q diag(1 / lam) q^T
    for _, _, jet, (g, dg, ddg) in cases(name):
        q = jet.q[0]
        assert np.abs(q.T @ g @ q - np.diag(jet.lam[0])).max() <= 1e-14 * np.abs(g).max()
        assert np.abs((q / jet.lam[0]) @ q.T @ g - np.eye(len(g))).max() <= 1e-13
        ref = frame_contractions(g, dg, ddg, q)
        for got, want in zip((jet.dg, jet.hess), ref):
            assert worst(got[0], want) <= 1e-13


@pytest.mark.parametrize("name", NAMES)
def test_ricci_matches_the_oracle(name):
    for field, p, _, full in cases(name):
        b = riemann_ricci(field, p)
        ref = chart_ricci(*full)
        assert worst(b.ricci, ref) <= 1e-13
        assert np.array_equal(field(p), full[0][None])


def euler_points(count=20, seed=0):
    """The SU(2) Euler field at k = 2 and ``count`` points sampled from its box."""
    field = metric_field(parse_group_name("su2"), "euler", 2.0)
    return field, sample_safe_points(field, count, np.random.default_rng(seed))


def euler_jet(pts, k):
    """The full (g, dg, ddg) jet of the SU(2) Euler chart at points (m, 3)."""
    return product_jet(parse_group_name("su2"), *euler_chart_batch(pts), EULER_FACTOR_ORDER, k)


@pytest.mark.parametrize("k", [2.0, 3.0, 1e-3])
def test_euler_jet_matches_the_printed_metric(k):
    # the full jet, and the frame jet's chart view: dg, and hess from the
    # second derivatives contracted with the printed g^-1
    _, pts = euler_points()
    field = metric_field(parse_group_name("su2"), "euler", k)
    g, dg, ddg = closed_form_su2_euler_full_jet(pts, k)
    for got, want in zip(euler_jet(pts, k), (g, dg, ddg)):
        assert np.abs(got - want).max() <= 1e-14
    view = chart_view(field.jet(pts))
    assert np.abs(view[0] - dg).max() <= 1e-14
    assert worst(view[1], hess(np.linalg.inv(g), ddg)) <= 1e-14


def test_euler_jet_matches_the_stencil():
    field, pts = euler_points(8, seed=1)
    for p in pts:
        exact = (x[0] for x in euler_jet(p[None], 2.0))
        for want, fd, bound in zip(exact, metric_jet(field, p), (1e-12, 1e-11, 1e-8)):
            assert np.abs(want - fd).max() <= bound


def test_euler_verdict_is_exact():
    field, pts = euler_points()
    v = einstein_check(field, pts, 1e-12)
    assert v.passed and v.residual <= 1e-12
    assert abs(v.lambda_hat - 0.25) <= 1e-12


def test_maurer_cartan_derivatives_are_brackets():
    # d_b w_a = [w_a, w_b] where factor b stands right of factor a, 0 where left
    x = np.array([1.0, 0.2, -0.4])
    w = maurer_cartan(euler_chart(*x))
    place = np.array(EULER_FACTOR_ORDER)
    for b in range(3):
        fd = fd_derivative(lambda y: maurer_cartan(euler_chart(*y)), x, b)
        want = (place[b] > place)[:, None, None] * (w @ w[b] - w[b] @ w)
        assert np.abs(fd - want).max() <= 1e-10


# Tilma & Sudarshan's generalized Euler angles for SU(3) with unit scales:
# U = prod_j exp(t_j Y_j), Y = (i/2) (l3, l2, l3, l5, l3, l2, l3, l8), catalog su3 indices
TS_FACTORS = [6, 1, 6, 3, 6, 1, 6, 7]


def ts_chart(pts):
    """U and dU (m, 8, 3, 3) of the Tilma-Sudarshan chart: scipy's expm of
    each factor, and the product rule."""
    y = parse_group_name("su3").generators[TS_FACTORS]
    e = scipy.linalg.expm(np.atleast_2d(pts)[..., None, None] * y)  # [m, j]
    left, right = [np.eye(3)], [np.eye(3)]
    for j in range(8):
        left.append(left[-1] @ e[:, j])
        right.insert(0, e[:, 7 - j] @ right[0])
    return left[-1], np.stack([left[j] @ e[:, j] @ y[j] @ right[j + 1] for j in range(8)], 1)


def ts_jet(pts, k=2.0):
    return product_jet(parse_group_name("su3"), *ts_chart(pts), tuple(range(8)), k)


def ts_field(k=2.0):
    """The chart's metric field: the Gram of dU as its value, ``product_jet``
    as its jet, and a domain that holds every point, sampled in [0.2, 1.2]^8."""
    def func(pts):
        du = ts_chart(pts)[1]
        return _gram(du.reshape(len(du), 8, 9), k)

    domain = SafeDomain(lo=np.full(8, 0.2), hi=np.full(8, 1.2),
                        contains=lambda x: np.ones(len(np.atleast_2d(x)), bool))
    return MetricField(dim=8, func=func, domain=domain, name="su3-tilma-sudarshan",
                       jet=lambda p: contract_jet(*ts_jet(p, k)))


def test_product_jet_matches_the_stencil_on_su3():
    field = ts_field()
    p = sample_safe_points(field, 1, np.random.default_rng(2))[0]
    exact = (x[0] for x in ts_jet(p[None]))
    for want, fd, bound in zip(exact, metric_jet(field, p), (1e-12, 1e-11, 1e-8)):
        assert np.abs(want - fd).max() <= bound


def test_product_chart_verdict_is_the_killing_lambda_on_su3():
    # cond(g) reaches 1.2e4 on this sample: the field residual, which compares
    # lambda across points, is 1.4e-9 there, while lambda-hat and the
    # pointwise residual stay at 1e-11
    field = ts_field()
    v = einstein_check(field, sample_safe_points(field, 20, np.random.default_rng(0)), 1e-8)
    assert v.passed and v.residual <= 1e-10
    assert abs(v.lambda_hat - killing_lambda(parse_group_name("su3").structure)) <= 1e-10


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

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    corner_names,
    fbdc_thresholds,
    first_near_max_map,
    hausdorff_distance,
    point_contains,
    polygon,
    threshold_map,
)
from switchq import mdp
from switchq import region as rg

EPS_GRID = (0.05, 0.10, 0.25, 0.29, 0.30, 0.40, 0.45, 0.50)
MIRROR_CORNER = {"b0": "b5", "b1": "b4", "b2": "b3", "b3": "b2", "b4": "b1", "b5": "b0"}


def corners_dict(eps):
    return dict(rg.corner_points(eps))


def test_corner_formulas_at_quarter():
    pts = corners_dict(0.25)
    assert pts["b1"] == (0.140625, 0.4375)
    assert pts["b2"] == (1.875 / 7, 2.5 / 7)
    assert pts["b3"] == (2.5 / 7, 1.875 / 7)
    assert pts["b0"] == (0.0, 0.5)
    assert pts["b5"] == (0.5, 0.0)


def test_corner_set_above_critical():
    pts = corners_dict(0.40)
    assert "b1" not in pts and "b4" not in pts
    assert pts["b2"] == pytest.approx((0.20625, 0.34375), abs=1e-15)


def test_corner_count_flips_at_critical_epsilon():
    assert len(rg.corner_points(rg.EPS_CRITICAL - 1e-6)) == 6
    assert len(rg.corner_points(rg.EPS_CRITICAL + 1e-6)) == 4
    assert len(rg.corner_points(rg.EPS_CRITICAL)) == 4


@pytest.mark.parametrize("eps", EPS_GRID)
def test_b2_lies_on_the_sum_facet(eps):
    pts = corners_dict(eps)
    assert pts["b2"][0] + pts["b2"][1] == pytest.approx(0.75 - eps / 2, abs=1e-14)


def test_closed_form_halfspace_lists():
    hs = rg.closed_form_region(0.25).halfspaces
    assert any(
        h.a1 == h.a2 == 1.0 and h.b == pytest.approx(0.625, abs=1e-15) for h in hs
    )
    non_axis = [h for h in rg.closed_form_region(0.40).halfspaces if h.a1 > 0 or h.a2 > 0]
    assert len(non_axis) == 3


def paper_facets(e):
    """The paper's frontier facets, each with the two corners it joins, from b0 to b5."""
    mid = 0.75 - e / 2
    if e < rg.EPS_CRITICAL:
        return {
            ("b0", "b1"): rg.HalfSpace(e, (1 - e) ** 2, (1 - e) ** 2 / 2),
            ("b1", "b2"): rg.HalfSpace(1 - e, 1 + e - e * e, mid),
            ("b2", "b3"): rg.HalfSpace(1.0, 1.0, mid),
            ("b3", "b4"): rg.HalfSpace(1 + e - e * e, 1 - e, mid),
            ("b4", "b5"): rg.HalfSpace((1 - e) ** 2, e, (1 - e) ** 2 / 2),
        }
    g = (1 - e) * (3 - 2 * e)
    return {
        ("b0", "b2"): rg.HalfSpace(1.0, g, g / 2),
        ("b2", "b3"): rg.HalfSpace(1.0, 1.0, mid),
        ("b3", "b5"): rg.HalfSpace(g, 1.0, g / 2),
    }


def check_facets_against_paper(eps):
    # One facet per edge between kept corners, from b0 to b5.  An edge between
    # adjacent corners carries the paper's facet; an edge over corners the
    # frontier pass dropped as flat carries the chord, within 1e-9 of those corners.
    region = rg.closed_form_region(eps)
    named = rg.corner_points(eps)[::-1]  # b0 to b5
    kept = [i for i, (_, pt) in enumerate(named) if pt in region.corners]
    assert [named[i][1] for i in kept] == list(region.corners)[::-1]
    facets = [h for h in region.halfspaces if h not in rg.AXIS_HALFSPACES]
    assert region.halfspaces[:2] == rg.AXIS_HALFSPACES and len(facets) == len(kept) - 1
    formulas = paper_facets(eps)
    for (i, j), h in zip(zip(kept, kept[1:]), facets):
        (u, pu), (v, pv) = named[i], named[j]
        if j == i + 1:
            want = formulas[(u, v)].normalized()
            assert (h.a1, h.a2, h.b) == pytest.approx((want.a1, want.a2, want.b), abs=1e-12), (eps, u, v)
        else:
            assert abs(h.slack(pu)) < 1e-12 and abs(h.slack(pv)) < 1e-12
            norm = math.hypot(h.a1, h.a2)  # slack / norm is the distance to the chord
            assert all(abs(h.slack(pt)) <= 1e-9 * norm for _, pt in named[i + 1 : j]), (eps, u, v)


@pytest.mark.parametrize("eps", EPS_GRID + (0.4999999974, rg.EPS_CRITICAL - 3e-9))
def test_derived_facets_match_paper_formulas(eps):
    check_facets_against_paper(eps)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats(0.0, 0.5, exclude_min=True),
    st.floats(0.5 - 1e-8, 0.5),
    st.floats(rg.EPS_CRITICAL - 1e-8, rg.EPS_CRITICAL + 1e-8),
))
def test_derived_facets_match_paper_formulas_everywhere(eps):
    check_facets_against_paper(eps)


def test_region_continuity_across_critical_epsilon():
    below = rg.closed_form_region(rg.EPS_CRITICAL - 1e-6)
    above = rg.closed_form_region(rg.EPS_CRITICAL + 1e-6)
    assert hausdorff_distance(below, above) < 1e-3


@pytest.mark.parametrize("eps", EPS_GRID)
def test_hull_of_enumerated_rates_matches_closed_form(eps):
    hull = rg.region_from_vertices([v.rates for v in mdp.enumerate_vertices(eps)])
    closed = rg.closed_form_region(eps)
    assert hausdorff_distance(hull, closed) < 1e-9
    assert len(hull.corners) == len(closed.corners)
    for got, want in zip(hull.corners, closed.corners):
        assert got == pytest.approx(want, abs=1e-9)


def test_region_monotone_in_epsilon():
    # more channel memory (smaller epsilon) can only grow the region
    grid = sorted(EPS_GRID)
    for lo, hi in zip(grid, grid[1:]):
        larger = rg.closed_form_region(lo)
        for _, pt in rg.corner_points(hi):
            assert rg.contains(larger, pt)


def test_half_epsilon_equals_iid_region():
    markov = rg.closed_form_region(0.5)
    iid = rg.iid_region(0.5, 0.5)
    assert markov.corners == iid.corners
    assert markov.halfspaces == iid.halfspaces


def test_region_from_vertices_degenerate_inputs():
    single = rg.region_from_vertices([(0.3, 0.2)])
    assert single.corners == ((0.3, 0.2),)
    dedup = rg.region_from_vertices([(0.3, 0.2)] * 5 + [(0.3, 0.2 + 1e-12)])
    assert dedup.corners in (((0.3, 0.2),), ((0.3, 0.2 + 1e-12),))
    # a point 1e-12 from a corner between two others collapses into one corner with it
    near = rg.region_from_vertices([(0.5, 0.0), (0.3, 0.2), (0.3 - 1e-12, 0.2 + 1e-12), (0.0, 0.3)])
    assert len(near.corners) == 3 and near.corners[1] in ((0.3, 0.2), (0.3 - 1e-12, 0.2 + 1e-12))
    with pytest.raises(ValueError):
        rg.region_from_vertices([])


def test_a_lone_lead_corner_takes_in_the_points_within_tol_of_it():
    # the same-point rule at the start of the chain: the first two points
    # 1e-12 apart at one height, or one step up and left, are one corner
    lead = (0.3 + 1e-12, 0.2)
    for near in ((0.3, 0.2), (0.3, 0.2 + 1e-12)):
        for rest in ([], [(0.0, 0.1)]):
            assert rg.region_from_vertices([lead, near, *rest]) == rg.region_from_vertices([lead, *rest])


_COORD = st.one_of(st.floats(0, 1), st.floats(0, 1).map(lambda v: round(v * 8) / 8))
_CLOUD = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=30).flatmap(
    lambda pts: st.lists(st.sampled_from(pts), max_size=5).map(lambda repeats: pts + repeats)
)


@settings(max_examples=300, deadline=None)
@given(_CLOUD, st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=5))
def test_region_from_vertices_is_the_concave_frontier_of_its_points(points, weights):
    region = rg.region_from_vertices(points)
    c = region.corners
    # a strictly concave chain from the max-r1 end up to the max-r2 end, made of input points
    assert all(u[0] > v[0] and u[1] <= v[1] for u, v in zip(c, c[1:])), c
    assert all(rg._cross(u, v, w) > 0 for u, v, w in zip(c, c[1:], c[2:])), c
    assert set(c) <= set(points)
    assert all(h.slack(p) >= -1e-9 for p in points for h in region.halfspaces)
    # so it has the support of the cloud in every direction w >= 0
    for w1, w2 in weights:
        assert max(w1 * x + w2 * y for x, y in points) == pytest.approx(max(w1 * x + w2 * y for x, y in c), abs=1e-12)


def test_contains_examples():
    region = rg.closed_form_region(0.25)
    assert rg.contains(region, (0.0, 0.0))
    assert rg.contains(region, (0.30, 0.30))
    assert not rg.contains(region, (0.32, 0.32))
    assert not rg.contains(region, (-0.01, 0.1))


REGIONS = st.one_of(
    st.floats(5e-324, 0.5).map(rg.closed_form_region),
    st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)).map(lambda p: rg.iid_region(*p)),
    st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)).map(lambda p: rg.no_switchover_region(*p)),
)
COORDINATES = st.one_of(st.floats(-0.2, 1.2), st.sampled_from([0.0, -0.0, math.nan, -5e-324, 1e-300, -1e-13]))


NEAR_FACETS = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-2e-12, 2e-12)), min_size=8, max_size=8)


@settings(max_examples=150, deadline=None)
@given(region=REGIONS, points=st.lists(st.tuples(COORDINATES, COORDINATES), max_size=20), near=NEAR_FACETS)
@example(region=rg.iid_region(1e-13, 0.5), points=[(0.0, 0.9), (math.nan, 0.0), (-0.0, -0.0)],
         near=[(0.0, 0.0)] * 8).via("a region thinner than an absolute 1e-12 slack")
def test_contains_on_arrays_equals_each_point(region, points, near):
    # points anywhere, on the signed zeros and nan, and within 2e-12 of each frontier facet
    points = points + [(x, (h.b - h.a1 * x) / h.a2 + off) for h, (x, off) in zip(region.halfspaces, near) if h.a2 > 0]
    xs, ys = np.array(points).reshape(-1, 2).T
    want = [point_contains(region, p) for p in points]
    assert [rg.contains(region, p) for p in points] == want
    assert all(type(rg.contains(region, p)) is bool for p in points)
    assert rg.contains(region, (xs, ys)).tolist() == want
    assert rg.contains(region, (xs[:, None], ys)).tolist() == [[point_contains(region, (x, y)) for y in ys]
                                                               for x in xs]


# coordinates whose products with any facet coefficient stay normal floats under a scale of 2**-500
SCALE_SAFE = st.one_of(st.floats(-0.2, 1.2).map(lambda v: v if abs(v) >= 1e-100 else 0.0),
                       st.sampled_from([0.0, -0.0, math.nan, -1e-13]))
NEAR_IN_B = st.lists(st.tuples(SCALE_SAFE.filter(lambda v: 0 <= v <= 1), st.integers(-20, 20)), min_size=8, max_size=8)


@settings(max_examples=150, deadline=None)
@given(region=REGIONS, k=st.integers(-500, 500), points=st.lists(st.tuples(SCALE_SAFE, SCALE_SAFE), max_size=20),
       near=NEAR_IN_B)
@example(region=rg.iid_region(1e-13, 0.5), k=-500, points=[(0.0, 0.9), (0.0, 0.5)], near=[(0.0, 10)] * 8)
@example(region=rg.iid_region(0.5, 1e-13), k=500, points=[(0.9, 0.0), (0.5, 0.0)], near=[(0.5, -10)] * 8)
def test_contains_is_unchanged_by_scaling_each_facet(region, k, points, near):
    # a factor 2**k is exact, so each facet's slack and its tolerance 1e-12 b scale alike and no bit moves; points
    # lie anywhere and i * 1e-13 b off each facet, i in [-20, 20], so on both sides of the tolerance
    scaled = rg.RateRegion(region.corners, tuple(rg.HalfSpace(h.a1 * 2.0**k, h.a2 * 2.0**k, h.b * 2.0**k)
                                                 for h in region.halfspaces))
    points = points + [(x, (h.b - h.a1 * x + i * 1e-13 * h.b) / h.a2)
                       for h, (x, i) in zip(region.halfspaces, near) if h.a2 > 0]
    xs, ys = np.array(points).reshape(-1, 2).T
    assert rg.contains(scaled, (xs, ys)).tolist() == rg.contains(region, (xs, ys)).tolist()
    assert rg.contains(scaled, (xs[:, None], ys)).tolist() == rg.contains(region, (xs[:, None], ys)).tolist()


def test_every_facet_built_has_b_in_0_1():
    # so contains' tolerance, 1e-12 b, is never wider than an absolute 1e-12, nor negative
    ps = np.geomspace(1e-300, 1.0, 60).tolist()
    regions = [rg.closed_form_region(e) for e in np.linspace(0.0, 0.5, 2501)[1:].tolist()
               + [5e-324, 1e-300, 1e-12, rg.EPS_CRITICAL, math.nextafter(rg.EPS_CRITICAL, 0.0)]]
    regions += [region_of(p1, p2) for p1 in ps for p2 in ps for region_of in (rg.iid_region, rg.no_switchover_region)]
    assert all(0.0 <= h.b <= 1.0 for region in regions for h in region.halfspaces)


def test_iid_region():
    region = rg.iid_region(0.5, 0.5)
    assert rg.contains(region, (0.25, 0.25))
    assert not rg.contains(region, (0.3, 0.3))
    full = rg.iid_region(1.0, 1.0)
    assert any(h.a1 == 1.0 and h.a2 == 1.0 and h.b == 1.0 for h in full.halfspaces)
    # one range check, as no_switchover_region has: nan, like 0 or a value above 1, is no probability
    for p1, p2 in ((0.0, 0.5), (0.5, 1.5), (math.nan, 0.5), (0.5, math.nan), (-0.5, -0.5)):
        for region_of in (rg.iid_region, rg.no_switchover_region):
            with pytest.raises(ValueError, match="p1, p2"):
                region_of(p1, p2)


def test_iid_facet_is_finite_down_to_the_least_p_with_a_finite_reciprocal():
    least = math.nextafter(1 / sys.float_info.max, 1.0)  # 1 / least is finite, 1 / its predecessor is not
    assert 1 / least < math.inf and 1 / math.nextafter(least, 0.0) == math.inf
    for p1, p2 in ((0.5, least), (least, 0.5), (least, least), (1.0, 1e-300)):
        facet = rg.iid_region(p1, p2).halfspaces[-1]
        assert facet == rg.HalfSpace(1 / p1, 1 / p2, 1.0).normalized()  # the bits of the one formula
        assert all(math.isfinite(v) for v in (facet.a1, facet.a2, facet.b))
        assert rg.contains(rg.iid_region(p1, p2), (p1 / 2, p2 / 2))
    for p1, p2 in ((0.5, math.nextafter(least, 0.0)), (1e-320, 0.5), (5e-324, 5e-324)):
        with pytest.raises(ValueError, match="finite 1/p"):  # a nan facet would fail every point
            rg.iid_region(p1, p2)


def test_no_switchover_region():
    region = rg.no_switchover_region(0.5, 0.5)
    sum_facet = [h for h in region.halfspaces if h.a1 == h.a2 == 1.0]
    assert sum_facet and sum_facet[0].b == pytest.approx(0.75, abs=1e-15)
    assert sum_facet[0].slack((0.5, 0.25)) == pytest.approx(0.0, abs=1e-15)
    deterministic = rg.no_switchover_region(1.0, 0.5)
    assert deterministic.corners == ((1.0, 0.0), (0.5, 0.5), (0.0, 0.5))
    assert rg.contains(deterministic, (0.6, 0.4))
    assert not rg.contains(deterministic, (0.6, 0.45))


def test_fbdc_corner_map_examples():
    # scalar queues give the corner's position in corner_points order as a Python int
    assert type(rg.fbdc_corner_map(0.25, 1.0, 3.0)) is int
    assert corner_names(0.25, rg.fbdc_corner_map(0.25, 1.0, 3.0)) == "b0"  # above (1-e)^2/e = 2.25
    assert corner_names(0.25, rg.fbdc_corner_map(0.25, 1.0, 2.0)) == "b1"
    assert corner_names(0.25, rg.fbdc_corner_map(0.25, 5.0, 5.0)) == "b3"  # tie goes to the lower interval
    assert corner_names(0.25, rg.fbdc_corner_map(0.25, 0.0, 2.0)) == "b0"
    assert corner_names(0.25, rg.fbdc_corner_map(0.25, 2.0, 0.0)) == "b5"
    with pytest.raises(ValueError):
        rg.fbdc_corner_map(0.25, 0.0, 0.0)


def test_myopic_corner_map_examples():
    assert type(rg.myopic_corner_map(0.25, 1.0, 2.5)) is int
    assert corner_names(0.25, rg.myopic_corner_map(0.25, 1.0, 2.5)) == "b1"  # between (2-e)/(1-e) and (1-e)/e
    assert corner_names(0.40, rg.myopic_corner_map(0.40, 1.0, 1.4)) == "b2"  # between 1 and (1-e)/e = 1.5
    assert corner_names(0.25, rg.myopic_corner_map(0.25, 1.0, 1.0)) == "b3"
    with pytest.raises(ValueError):
        rg.myopic_corner_map(0.25, 0.0, 0.0)


def test_myopic_corner_map_mirror_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(300):
        eps = rng.uniform(0.02, 0.5)
        ratio = math.exp(rng.uniform(-3, 3))
        if abs(ratio - 1.0) < 1e-3:
            continue
        a = corner_names(eps, rg.myopic_corner_map(eps, 1.0, ratio))
        b = corner_names(eps, rg.myopic_corner_map(eps, ratio, 1.0))
        assert b == MIRROR_CORNER[a]


def test_fbdc_map_equals_weighted_argmax():
    # the threshold map must coincide with the LP corner selection
    rng = np.random.default_rng(22)
    for _ in range(10_000):
        eps = rng.uniform(0.01, 0.5)
        q1 = rng.uniform(0.0, 10.0)
        q2 = rng.uniform(0.0, 10.0)
        if q1 == q2 == 0.0:
            continue
        corner = corner_names(eps, rg.fbdc_corner_map(eps, q1, q2))
        best, best_v = None, -1.0
        for cid, (x, y) in rg.corner_points(eps):
            v = q1 * x + q2 * y
            if v > best_v + 1e-15:
                best, best_v = cid, v
        assert corner == best, (eps, q1, q2)


# The array path of each corner map must pick the corner its scalar path
# picks, ratios exactly on a threshold and queues at zero included.  Both
# maps take finite queue lengths only.  The FBDC map must also agree with the
# paper's threshold map wherever one corner's value beats every other's by
# more than a relative 1e-12 and each queue length is zero or in the normal
# range; elsewhere the corners tie up to the rounding of their values (at
# epsilon ~ 1e-300 b4 and b5 are both at x = 1/2) or the values underflow.

# at 5e-324 and 1e-17 b4 has b5's x, b2 is b3 and b1 has b0's y: corners that coincide in a
# coordinate are drawn every run, not only when the floats happen on them
EPSILONS = st.one_of(
    st.floats(0.0, 0.5, exclude_min=True),
    st.sampled_from([rg.EPS_CRITICAL, math.nextafter(rg.EPS_CRITICAL, 0.0), 0.5, math.nextafter(0.5, 0.0),
                     5e-324, 1e-17]),
)
QUEUES = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.integers(0, 50))


# epsilon values beside EPS_T (where the psi bands part), EPS_CRITICAL and 1/2, and two at which
# (1 - e) ** 2 (libm pow) and (1 - e) * (1 - e) part
MARKED = sorted({x for e in (0.24512233375330725, rg.EPS_CRITICAL, 0.5)
                 for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0)) if x <= 0.5} | {0.00571, 0.253066})


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 0.5, exclude_min=True), st.sampled_from(MARKED)), min_size=1, max_size=16))
@example(MARKED)
def test_corner_formula_over_an_array_is_corner_points_per_epsilon(eps):
    # psi_value takes the corners of an epsilon array from corner_points' own formula
    for side in ([e for e in eps if e < rg.EPS_CRITICAL], [e for e in eps if e >= rg.EPS_CRITICAL]):
        if not side:
            continue
        named = rg._corners(np.array(side), side[0] < rg.EPS_CRITICAL)
        want = [rg.corner_points(e) for e in side]
        assert all([cid for cid, _ in w] == [cid for cid, _ in named] for w in want)
        got = np.array([np.broadcast_to(c, len(side)) for _, pt in named for c in pt])
        assert got.tobytes() == np.array([[c for _, pt in w for c in pt] for w in want]).T.tobytes()
        ratio = np.geomspace(0.05, 20.0, 2 * len(side)).reshape(len(side), 2)
        psi = rg.psi_value(np.array(side), ratio)
        my = corner_names(side, rg.myopic_corner_map(np.array(side), 1.0, ratio))
        for k, corners in enumerate(want):
            point = dict(corners)
            opt = corner_names(side[k], rg.fbdc_corner_map(side[k], 1.0, ratio[k]))
            values = [[point[c][0] + r * point[c][1] for c in pair]
                      for r, *pair in zip(ratio[k].tolist(), my[k], opt)]
            assert psi[k].tolist() == [v_my / v_opt for v_my, v_opt in values]


def _on_and_beside(thresholds):
    # at epsilon near 5e-324 the top thresholds overflow: (1, inf), which both maps
    # reject, and (1, max float)
    return [(1.0, r) for t in thresholds for r in (t, math.nextafter(t, 0.0), math.nextafter(t, math.inf))]


def _clear_winner(eps, q1, q2):
    if not all(q == 0 or q > 1e-300 for q in (q1, q2)):
        return False
    values = sorted((q1 * x + q2 * y for _, (x, y) in rg.corner_points(eps)), reverse=True)
    return values[0] - values[1] > 1e-12 * values[0]


@settings(max_examples=200, deadline=None)
@given(EPSILONS, st.lists(st.tuples(QUEUES, QUEUES), max_size=30))
def test_array_corner_maps_match_scalar(eps, pairs):
    corners = [cid for cid, _ in rg.corner_points(eps)]  # ascending queue ratio
    fbdc = fbdc_thresholds(eps)
    myopic = rg._myopic_thresholds(eps)
    assert list(myopic) == sorted(myopic)  # searchsorted relies on it
    assert myopic[0] > 0  # so q2 == 0 takes the first corner
    assert len(corners) == len(fbdc) + 1 == len(myopic) + 1
    edges = _on_and_beside(fbdc) + _on_and_beside(myopic)
    finite = [(q1, q2) for q1, q2 in pairs + edges + [(0.0, 3.0), (3.0, 0.0)] if (q1 or q2) and math.isfinite(q2)]
    q1, q2 = np.array(finite, dtype=float).T
    for corner_map in (rg.fbdc_corner_map, rg.myopic_corner_map):
        assert corner_map(eps, q1, q2).tolist() == [corner_map(eps, a, b) for a, b in finite]
        ratios = q2[q1 == 1.0]
        assert corner_map(eps, 1.0, ratios).tolist() == [corner_map(eps, 1.0, r) for r in ratios]
        with pytest.raises(ValueError):
            corner_map(eps, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        with pytest.raises(ValueError):
            corner_map(eps, 0.0, 0.0)
        for a, b in [(-1.0, 2.0), (2.0, -1.0), (1.0, math.inf), (math.inf, 1.0), (math.inf, 0.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                corner_map(eps, a, b)
            with pytest.raises(ValueError):
                corner_map(eps, np.array([1.0, a]), np.array([1.0, b]))
    # an epsilon row takes one row of queues per epsilon, here eps and the far end of its side
    # of EPS_CRITICAL with the queues mirrored
    other, across = (0.5, 0.1) if eps >= rg.EPS_CRITICAL else (math.nextafter(rg.EPS_CRITICAL, 0.0), 0.4)
    rows = rg.myopic_corner_map(np.array([eps, other]), np.stack([q1, q2]), np.stack([q2, q1]))
    assert rows.tolist() == [[rg.myopic_corner_map(eps, a, b) for a, b in finite],
                             [rg.myopic_corner_map(other, b, a) for a, b in finite]]
    with pytest.raises(ValueError, match="both sides"):
        rg.myopic_corner_map(np.array([eps, across]), np.stack([q1, q1]), np.stack([q2, q2]))
    with pytest.raises(ValueError, match="epsilon"):
        rg.myopic_corner_map(np.array([eps, math.nan]), np.stack([q1, q1]), np.stack([q2, q2]))
    for a, b in finite:
        if _clear_winner(eps, a, b):
            assert corner_names(eps, rg.fbdc_corner_map(eps, a, b)) == threshold_map(fbdc, corners, a, b), (eps, a, b)


def test_integer_queue_arrays_are_checked_as_float_ones_are():
    # integer arrays skip the float copies, not the checks: a negative length or two empty queues is refused
    for q1, q2 in (([1, -1], [2, 3]), ([2, 3], [-5, 1]), ([0, 4], [0, 1]), ([-1], [-1]), ([-2**63], [0])):
        for dtype in (np.int64, float):
            for corner_map in (rg.fbdc_corner_map, rg.myopic_corner_map):
                with pytest.raises(ValueError):
                    corner_map(0.25, np.array(q1, dtype=dtype), np.array(q2, dtype=dtype))
    q1, q2 = (a.ravel()[1:] for a in np.meshgrid(*[np.array([0, 1, 7, 2**40, 2**53 + 1], dtype=np.uint64)] * 2))
    for corner_map in (rg.fbdc_corner_map, rg.myopic_corner_map):
        assert corner_map(0.25, q1, q2).tolist() == corner_map(0.25, q1.astype(float), q2.astype(float)).tolist()


@pytest.mark.parametrize("eps", EPS_GRID)
def test_fbdc_corner_map_exact_ties(eps):
    # Queues whose ratio is exactly a threshold of the decimal epsilon (such
    # as q = (33, 25) at 0.4, where b5 and b3 tie) take the lower interval, up
    # to queue lengths of 10**4 where the values q1*x + q2*y round either way.
    exact = fbdc_thresholds(Fraction(repr(eps)))
    corners = [cid for cid, _ in rg.corner_points(eps)]
    lowest = {}  # at 1/2 all three thresholds are 1, and b5 takes the tie
    for t, corner in zip(exact, corners):
        lowest.setdefault(Fraction(t), corner)
    ties, want = [], []
    for t, lower in lowest.items():
        step = (t.denominator, t.numerator)
        for k in range(1, 10**4 // max(step) + 1):
            ties.append((k * step[0], k * step[1]))
            want.append(lower)
    assert [corner_names(eps, rg.fbdc_corner_map(eps, q1, q2)) for q1, q2 in ties] == want
    assert list(corner_names(eps, rg.fbdc_corner_map(eps, *np.array(ties, dtype=float).T))) == want
    assert list(corner_names(eps, rg.fbdc_corner_map(eps, *np.array(ties).T))) == want  # as their floats do
    # a relative 1e-11 beside a tie, far above the rounding, each side keeps its own corner
    beside = [float(t) * (1 + side) for t in lowest for side in (-1e-11, 1e-11)]
    want = [threshold_map(exact, corners, 1, r) for r in beside]
    assert [corner_names(eps, rg.fbdc_corner_map(eps, 1.0, r)) for r in beside] == want
    assert list(corner_names(eps, rg.fbdc_corner_map(eps, 1.0, np.array(beside)))) == want
    if eps == 0.4:
        name = lambda a, b: corner_names(eps, rg.fbdc_corner_map(eps, a, b))
        assert name(33, 25) == "b5" and name(25, 33) == "b2"
        assert name(132, 100) == "b5" and name(100, 132) == "b2"


@pytest.mark.parametrize("eps", EPS_GRID)
def test_fbdc_cuts_are_the_paper_thresholds(eps):
    # the cuts derived from the corners, 2**-48 tie margin included, are the paper's threshold formulas
    assert rg._corner_table(eps)[0] == pytest.approx(fbdc_thresholds(eps), rel=1e-12, abs=0)


# The reference FBDC rule, the first corner within a relative 2**-48 of the
# maximum value, picks the corner the cuts pick: on integer queues, on ratio
# rows on and beside each threshold, and on the integer queues at which two
# corners tie exactly, where rounding the corners moves a cut by far more
# than 2**-48 when epsilon is small (a tie at epsilon 0.005 is (39601, 200)).
# At 1.36e-16 and 2.69e-15 b1's y is within 2**-48 of b0's, so an empty
# queue 1 keeps b1.
REFERENCE_EPSILONS = EPS_GRID + (5e-324, 1e-300, 1e-17, 1.36e-16, 2.69e-15, 1e-9, 1e-3, 0.005, 0.0144, 0.023,
                                 math.nextafter(0.5, 0.0), rg.EPS_CRITICAL, math.nextafter(rg.EPS_CRITICAL, 0.0))


@pytest.mark.parametrize("eps", REFERENCE_EPSILONS)
def test_fbdc_corner_map_equals_the_first_near_max_reference(eps):
    pairs = [(float(a), float(b)) for a in range(40) for b in range(40) if a or b]
    pairs += [(1.0, r) for t in fbdc_thresholds(eps) if math.isfinite(t)
              for r in (t, math.nextafter(t, 0.0), math.nextafter(t, math.inf))]
    pairs += [(float(k * t.denominator), float(k * t.numerator)) for t in fbdc_thresholds(Fraction(repr(eps)))
              if max(t.numerator, t.denominator) < 10**8 for k in (1, 2, 7)]  # the decimal epsilon's exact ties
    want = [first_near_max_map(eps, a, b) for a, b in pairs]
    assert [corner_names(eps, rg.fbdc_corner_map(eps, a, b)) for a, b in pairs] == want
    q1, q2 = np.array(pairs).T
    assert list(corner_names(eps, rg.fbdc_corner_map(eps, q1, q2))) == want
    ratios = q2[q1 == 1.0]
    assert list(corner_names(eps, rg.fbdc_corner_map(eps, 1.0, ratios))) == [w for w, a in zip(want, q1) if a == 1.0]


# just below 1/2 and EPS_CRITICAL the frontier pass drops a flat corner
@pytest.mark.parametrize("eps", EPS_GRID + (0.4999999974, rg.EPS_CRITICAL - 3e-9))
def test_closed_form_halfspaces_tight_at_corners(eps):
    region = rg.closed_form_region(eps)
    vertices = polygon(region)
    for h in region.halfspaces:
        assert all(h.slack(v) > -1e-12 for v in vertices)
        assert sum(1 for v in vertices if abs(h.slack(v)) < 1e-9) >= 2


def test_hausdorff_basic_properties():
    a = rg.closed_form_region(0.25)
    assert hausdorff_distance(a, a) == 0.0
    b = rg.iid_region(0.5, 0.5)
    assert hausdorff_distance(a, b) == pytest.approx(hausdorff_distance(b, a), abs=1e-15)
    assert hausdorff_distance(a, b) > 0.05

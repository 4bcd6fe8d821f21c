import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchq import mdp
from switchq import region as rg

EPS_GRID = (0.05, 0.10, 0.25, 0.29, 0.30, 0.40, 0.45, 0.50)


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


def test_region_continuity_across_critical_epsilon():
    below = rg.closed_form_region(rg.EPS_CRITICAL - 1e-6)
    above = rg.closed_form_region(rg.EPS_CRITICAL + 1e-6)
    assert rg.hausdorff_distance(below, above) < 1e-3


@pytest.mark.parametrize("eps", EPS_GRID)
def test_hull_of_enumerated_rates_matches_closed_form(eps):
    hull = rg.region_from_vertices([v.rates for v in mdp.enumerate_vertices(eps)])
    closed = rg.closed_form_region(eps)
    assert rg.hausdorff_distance(hull, closed) < 1e-9
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
    assert dedup.corners == ((0.3, 0.2),)
    with pytest.raises(ValueError):
        rg.region_from_vertices([])


def test_contains_examples():
    region = rg.closed_form_region(0.25)
    assert rg.contains(region, (0.0, 0.0))
    assert rg.contains(region, (0.30, 0.30))
    assert not rg.contains(region, (0.32, 0.32))
    assert not rg.contains(region, (-0.01, 0.1))
    # delta-stripped membership flips once 2*delta crosses the facet slack
    assert rg.contains(region, (0.30, 0.30), delta=0.012)
    assert not rg.contains(region, (0.30, 0.30), delta=0.013)
    with pytest.raises(ValueError):
        rg.contains(region, (0.1, 0.1), delta=-0.1)


def test_iid_region():
    region = rg.iid_region(0.5, 0.5)
    assert rg.contains(region, (0.25, 0.25))
    assert not rg.contains(region, (0.3, 0.3))
    full = rg.iid_region(1.0, 1.0)
    assert any(h.a1 == 1.0 and h.a2 == 1.0 and h.b == 1.0 for h in full.halfspaces)
    with pytest.raises(ValueError):
        rg.iid_region(0.0, 0.5)


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
    assert rg.fbdc_corner_map(0.25, 1.0, 3.0) == "b0"  # above (1-e)^2/e = 2.25
    assert rg.fbdc_corner_map(0.25, 1.0, 2.0) == "b1"
    assert rg.fbdc_corner_map(0.25, 5.0, 5.0) == "b3"  # tie goes to the lower interval
    assert rg.fbdc_corner_map(0.25, 0.0, 2.0) == "b0"
    assert rg.fbdc_corner_map(0.25, 2.0, 0.0) == "b5"
    with pytest.raises(ValueError):
        rg.fbdc_corner_map(0.25, 0.0, 0.0)


def test_myopic_corner_map_examples():
    assert rg.myopic_corner_map(0.25, 1.0, 2.5) == "b1"  # between (2-e)/(1-e) and (1-e)/e
    assert rg.myopic_corner_map(0.40, 1.0, 1.4) == "b2"  # between 1 and (1-e)/e = 1.5
    assert rg.myopic_corner_map(0.25, 1.0, 1.0) == "b3"
    with pytest.raises(ValueError):
        rg.myopic_corner_map(0.25, 0.0, 0.0)


def test_myopic_corner_map_mirror_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(300):
        eps = rng.uniform(0.02, 0.5)
        ratio = math.exp(rng.uniform(-3, 3))
        if abs(ratio - 1.0) < 1e-3:
            continue
        a = rg.myopic_corner_map(eps, 1.0, ratio)
        b = rg.myopic_corner_map(eps, ratio, 1.0)
        assert b == rg.MIRROR_CORNER[a]


def test_fbdc_map_equals_weighted_argmax():
    # the threshold map must coincide with the LP corner selection
    rng = np.random.default_rng(22)
    for _ in range(10_000):
        eps = rng.uniform(0.01, 0.5)
        q1 = rng.uniform(0.0, 10.0)
        q2 = rng.uniform(0.0, 10.0)
        if q1 == q2 == 0.0:
            continue
        corner = rg.fbdc_corner_map(eps, q1, q2)
        best, best_v = None, -1.0
        for cid, (x, y) in rg.corner_points(eps):
            v = q1 * x + q2 * y
            if v > best_v + 1e-15:
                best, best_v = cid, v
        assert corner == best, (eps, q1, q2)


# The array path of the corner maps (np.searchsorted over the thresholds)
# must pick the corner the scalar loop picks, ratios exactly on a threshold
# and queues at zero included.

EPSILONS = st.one_of(
    st.floats(0.0, 0.5, exclude_min=True),
    st.sampled_from([rg.EPS_CRITICAL, math.nextafter(rg.EPS_CRITICAL, 0.0), 0.5, math.nextafter(0.5, 0.0)]),
)
QUEUES = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.integers(0, 50))
MAPS = ((rg.fbdc_corner_map, 1), (rg.myopic_corner_map, 2))  # index into rg._thresholds


@settings(max_examples=200, deadline=None)
@given(EPSILONS, st.lists(st.tuples(QUEUES, QUEUES), max_size=30))
def test_array_corner_maps_match_scalar(eps, pairs):
    for corner_map, index in MAPS:
        table = rg._thresholds(eps)
        corners, thresholds = table[0], table[index]
        assert list(thresholds) == sorted(thresholds)  # searchsorted relies on it
        assert thresholds[0] > 0  # so q2 == 0 takes the first corner
        assert len(corners) == len(thresholds) + 1
        on_edges = [(1.0, r) for t in thresholds for r in (t, math.nextafter(t, 0.0), math.nextafter(t, math.inf))]
        cases = [(q1, q2) for q1, q2 in pairs + on_edges + [(0.0, 3.0), (3.0, 0.0)] if q1 or q2]
        q1, q2 = np.array(cases, dtype=float).T
        assert list(corner_map(eps, q1, q2)) == [corner_map(eps, a, b) for a, b in cases]
        ratios = np.array([r for _, r in on_edges])
        assert list(corner_map(eps, 1.0, ratios)) == [corner_map(eps, 1.0, r) for r in ratios]
        with pytest.raises(ValueError):
            corner_map(eps, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        with pytest.raises(ValueError):
            corner_map(eps, 0.0, 0.0)


# just below 1/2 and EPS_CRITICAL the flat-corner drop removes a corner
@pytest.mark.parametrize("eps", EPS_GRID + (0.4999999974, rg.EPS_CRITICAL - 3e-9))
def test_closed_form_halfspaces_tight_at_corners(eps):
    region = rg.closed_form_region(eps)
    vertices = region.polygon()
    for h in region.halfspaces:
        assert all(h.slack(v) > -1e-12 for v in vertices)
        assert sum(1 for v in vertices if abs(h.slack(v)) < 1e-9) >= 2


def test_hausdorff_basic_properties():
    a = rg.closed_form_region(0.25)
    assert rg.hausdorff_distance(a, a) == 0.0
    b = rg.iid_region(0.5, 0.5)
    assert rg.hausdorff_distance(a, b) == pytest.approx(rg.hausdorff_distance(b, a), abs=1e-15)
    assert rg.hausdorff_distance(a, b) > 0.05

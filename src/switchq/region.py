"""Rate regions: closed forms, the enumeration oracle, membership, corner maps and psi.

The saturated-system rate region has two shapes depending on the channel
flip probability: six frontier corners b0..b5 below the critical value
EPS_CRITICAL = 1 - sqrt(2)/2, four corners (b1, b4 vanish) at or above it.
Regions are kept in both corner form (counterclockwise along the Pareto
frontier from (1/2, 0) to (0, 1/2)) and halfspace form (a1*x + a2*y <= b,
including the two axis constraints).  One concave pass builds every
frontier: the closed form's, the no-switchover region's and the oracle's
over the 256 policies' rates.  The closed-form facets and the FBDC corner
map's queue-ratio cuts come from corner_points alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import check_epsilon

EPS_CRITICAL = 1.0 - math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class HalfSpace:
    """The constraint a1*x + a2*y <= b."""

    a1: float
    a2: float
    b: float

    def __post_init__(self):
        if self.a1 == 0.0 and self.a2 == 0.0:
            raise ValueError("degenerate halfspace")

    def slack(self, point: tuple[float, float]) -> float:
        return self.b - self.a1 * point[0] - self.a2 * point[1]

    def normalized(self) -> "HalfSpace":
        scale = max(abs(self.a1), abs(self.a2))
        return HalfSpace(self.a1 / scale, self.a2 / scale, self.b / scale)


AXIS_HALFSPACES = (HalfSpace(-1.0, 0.0, 0.0), HalfSpace(0.0, -1.0, 0.0))

_TOL = 1e-9  # a corner this close to its neighbours' chord is flat: the one rule for points that coincide


@dataclass(frozen=True)
class RateRegion:
    """A convex rate region in corner and halfspace form."""

    corners: tuple[tuple[float, float], ...]
    halfspaces: tuple[HalfSpace, ...]


def _dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _corners(e, below) -> list[tuple[str, tuple]]:
    """corner_points' list, b4 and b1 included if below, at e: a float or an array, to the same bits."""
    b2 = ((1 - e) * (3 - 2 * e) / (4 * (2 - e)), (3 - 2 * e) / (4 * (2 - e)))
    b1 = ((1 - e) * (1 - e) / 4, (2 - e) / 4)  # not ** 2: libm's pow and numpy's x*x part on 0.09% of e
    inner = [("b4", b1[::-1]), ("b3", b2[::-1]), ("b2", b2), ("b1", b1)] if below else [("b3", b2[::-1]), ("b2", b2)]
    return [("b5", (0.5, 0.0)), *inner, ("b0", (0.0, 0.5))]


def corner_points(epsilon: float) -> list[tuple[str, tuple[float, float]]]:
    """Frontier corner formulas, ordered b5 down the frontier to b0.

    b2 = ((1-e)(3-2e)/(4(2-e)), (3-2e)/(4(2-e))), b3 its mirror;
    b1 = ((1-e)^2/4, (2-e)/4) and its mirror b4 exist only below
    EPS_CRITICAL; b5 = (1/2, 0), b0 = (0, 1/2).
    """
    e = check_epsilon(epsilon)
    return _corners(e, e < EPS_CRITICAL)


def _frontier(points: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """The concave chain through points ordered right to left (x descending, then y descending).

    A point strictly below the chain's last corner, or within _TOL of a lone
    lead corner, is skipped; a corner within _TOL of the chord from its
    predecessor to the next point, or reflex, is popped.  A horizontal top
    edge keeps its left end, and a lead point below the next a vertical right edge.
    """
    chain: list[tuple[float, float]] = []
    for p in points:
        if chain and (p[1] < chain[-1][1] or (len(chain) == 1 and _dist(chain[0], p) <= _TOL)):
            continue
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= _TOL * _dist(chain[-2], p):
            chain.pop()
        chain.append(p)
    return tuple(chain)


def _edge_halfspace(u: tuple[float, float], v: tuple[float, float]) -> HalfSpace:
    """The halfspace bounded by the line through u and v, outward on the right of u -> v."""
    n1, n2 = v[1] - u[1], u[0] - v[0]
    return HalfSpace(n1, n2, n1 * u[0] + n2 * u[1])


def _frontier_region(corners: tuple[tuple[float, float], ...]) -> RateRegion:
    """The region below a frontier chain: the two axis constraints, then one facet per edge walked from b0 to b5."""
    facets = [_edge_halfspace(u, v) for u, v in zip(corners, corners[1:])][::-1]
    return RateRegion(corners, AXIS_HALFSPACES + tuple(h.normalized() for h in facets))


def closed_form_region(epsilon: float) -> RateRegion:
    """The saturated-system rate region, its facets taken from its corners.

    The corners are the frontier chain of corner_points, which drops a
    corner within 1e-9 of the chord of its neighbours (b2 and b3 at and
    just below 1/2, b1 and b4 just below EPS_CRITICAL).  Each edge between
    consecutive corners gives one frontier facet: the paper's five facets
    below EPS_CRITICAL, its three at or above it.
    """
    return _frontier_region(_frontier([pt for _, pt in corner_points(epsilon)]))


def iid_region(p1: float, p2: float) -> RateRegion:
    """Stability region under per-slot independent channels: x/p1 + y/p2 <= 1."""
    if not (0 < p1 <= 1 and 0 < p2 <= 1 and 1 / min(p1, p2) < math.inf):  # false for nan too
        raise ValueError(f"p1, p2 must lie in (0, 1] with a finite 1/p, got p1={p1}, p2={p2}")
    halfspaces = AXIS_HALFSPACES + (HalfSpace(1 / p1, 1 / p2, 1.0).normalized(),)
    return RateRegion(((p1, 0.0), (0.0, p2)), halfspaces)


def no_switchover_region(p1: float, p2: float) -> RateRegion:
    """Reference region with no switchover cost: x <= p1, y <= p2, x + y <= p1 + p2(1-p1)."""
    if not (0 < p1 <= 1 and 0 < p2 <= 1):
        raise ValueError("p1, p2 must lie in (0, 1]")
    total = p1 + p2 * (1 - p1)
    corners = _frontier([(p1, 0.0), (p1, p2 * (1 - p1)), (p1 * (1 - p2), p2), (0.0, p2)])
    facets = (HalfSpace(1.0, 0.0, p1), HalfSpace(0.0, 1.0, p2), HalfSpace(1.0, 1.0, total))
    halfspaces = AXIS_HALFSPACES + tuple(h.normalized() for h in facets)
    return RateRegion(corners, halfspaces)


def contains(region: RateRegion, point):
    """Whether the point lies in the region (nan does not): a bool, or a bool array for arrays that broadcast.

    Each facet a . point <= b is met to within 1e-12 b, its own scale; every facet built here has b <= 1."""
    inside = (point[0] >= 0) & (point[1] >= 0)
    for h in region.halfspaces:
        inside &= h.slack(point) >= -1e-12 * h.b
    return inside


def region_from_vertices(points: list[tuple[float, float]]) -> RateRegion:
    """The region below the frontier chain of achievable rate points (the brute-force oracle).

    Equal points count once, and _frontier's tolerance takes in points
    that nearly coincide; the corners run from the max-r1 end to the max-r2
    end, and a single point is its own chain.
    """
    if not points:
        raise ValueError("need at least one point")
    return _frontier_region(_frontier(sorted(set(points), reverse=True)))


def _fbdc_cuts(x, y):
    """FBDC's ascending cuts: the ratios q2/q1 at which corner i+1 of the rows x, y (axis 0) takes over from i.

    That is once corner i's value q1*x + q2*y falls below 1 - 2**-48 times
    its own, so a tie goes to the lower corner however the values round.  A cut
    with no positive denominator is infinite, and one above a later cut
    takes its value, skipping a corner that never wins (b2 = b3 at 5e-324).
    """
    tied = 1.0 - 2.0**-48  # tied values part by at most 14 roundings of 2**-53
    with np.errstate(divide="ignore"):
        cuts = (x[:-1] - tied * x[1:]) / np.maximum(tied * y[1:] - y[:-1], 0.0)
    return np.minimum.accumulate(cuts[::-1], axis=0)[::-1]


def _count_below(cuts, q1, q2):
    """How many ascending cuts lie below q2/q1, floats or arrays; q1 = 0 is above each finite cut (inf * 0 is nan)."""
    return sum(q2 > cut * q1 for cut in cuts)


@lru_cache(maxsize=64)
def _corner_table(epsilon: float) -> tuple[float, ...]:
    """FBDC's cuts at epsilon as a tuple of floats."""
    return tuple(_fbdc_cuts(*np.array([pt for _, pt in corner_points(epsilon)]).T).tolist())


def _myopic_thresholds(e) -> tuple:
    """Ascending queue ratios q2/q1 at which the myopic map moves one corner up from b5.

    e is a float, or an array of values on one side of EPS_CRITICAL.
    """
    middle = ((1 - e) / (2 - e), 1.0, (2 - e) / (1 - e)) if np.all(e < EPS_CRITICAL) else (1.0,)
    return (e / (1 - e), *middle, (1 - e) / e)


def _queue_arrays(q1, q2) -> tuple[np.ndarray, np.ndarray]:
    """Queue lengths as arrays, checked finite, nonnegative and not both zero.

    Integer arrays of one type stay as they are: they are finite, a
    negative length sets the sign bit of q1 | q2, which two empty queues
    leave 0, and they compare with a float cut as their float values do.
    Anything else becomes a float array.
    """
    q1, q2 = np.asarray(q1), np.asarray(q2)
    if q1.dtype.kind in "iu" and q1.dtype == q2.dtype:
        ok = (q1 | q2).min(initial=1) > 0
    else:
        q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
        low, high = np.minimum(q1, q2), np.maximum(q1, q2)  # a nan fails every test here
        ok = low.min(initial=0.0) >= 0 and high.min(initial=np.inf) > 0 and high.max(initial=0.0) < np.inf
    if not ok:
        raise ValueError("queue lengths must be finite, nonnegative and not both zero")
    return q1, q2


def fbdc_corner_map(epsilon: float, q1, q2):
    """Position in corner_points order of the frontier corner maximizing q1*r1 + q2*r2.

    It is the count of FBDC's cuts below q2/q1, so a tie goes to the lower
    ratio however the values round: a Python int for scalar queues, an int
    array for arrays of finite queues, which map elementwise.
    """
    cuts = _corner_table(epsilon)
    if isinstance(q1, np.ndarray) or isinstance(q2, np.ndarray):
        q1, q2 = _queue_arrays(q1, q2)
        with np.errstate(invalid="ignore"):  # an infinite cut times q1 = 0
            return _count_below(cuts, q1, q2)
    if not (0 <= q1 < math.inf and 0 <= q2 < math.inf) or q1 == q2 == 0:
        raise ValueError("queue lengths must be finite, nonnegative and not both zero")
    return _count_below(cuts, float(q1), float(q2))  # floats compare as the array path's do


def myopic_corner_map(epsilon, q1, q2):
    """Position in corner_points order of the corner the one-step-lookahead weight comparison drives toward.

    It is the count of myopic thresholds below q2/q1, so a ratio on one
    takes the lower interval: a Python int for scalar queues, an int array
    for arrays.  Queue lengths must be finite; arrays map elementwise.
    epsilon is a float, or a 1-D array of values on one side of
    EPS_CRITICAL with one row of queues each.
    """
    e = np.asarray(epsilon, dtype=float)
    low, high = check_epsilon(e.min()), check_epsilon(e.max())  # a nan fails both
    if low < EPS_CRITICAL <= high:
        raise ValueError("epsilon values lie on both sides of EPS_CRITICAL")
    q1, q2 = _queue_arrays(q1, q2)
    with np.errstate(over="ignore", invalid="ignore"):  # 1 over a tiny e is infinite, and times q1 = 0 nan
        cuts = _myopic_thresholds(e.reshape(e.shape + (1,) * (max(q1.ndim, q2.ndim) - e.ndim)))
        position = _count_below(cuts, q1, q2)
    return position if position.ndim else int(position)


def psi_value(epsilon, ratio):
    """Myopic-to-optimal weighted departure rate ratio psi at queues (1, ratio).

    One numpy pass: the myopic corner from myopic_corner_map, the optimum as
    the count of FBDC's cuts below the ratio (fbdc_corner_map's rule), psi
    the ratio of their values x + ratio * y.  epsilon is a float, or a 1-D
    array of values on one side of EPS_CRITICAL (corners from one pass of
    corner_points' formula); ratio is an array of finite nonnegative q2/q1,
    0-d included, one row per epsilon of an array, and gives psi's shape.
    """
    my = np.asarray(myopic_corner_map(epsilon, 1.0, ratio))  # checks the inputs
    e, r = np.asarray(epsilon, dtype=float), np.asarray(ratio, dtype=float)
    named = _corners(e.reshape(e.shape + (1,) * (r.ndim - e.ndim)), e.max() < EPS_CRITICAL)
    x, y = (np.array(np.broadcast_arrays(*coords)) for coords in zip(*(pt for _, pt in named)))  # [corner, epsilon]
    opt = _count_below(_fbdc_cuts(x, y), 1.0, r)
    rate_my, rate_opt = (np.take_along_axis(x, c[None], 0)[0] + r * np.take_along_axis(y, c[None], 0)[0]
                         for c in (my, opt))
    return rate_my / rate_opt

"""Rate regions: closed forms, convex hulls, membership, and corner maps.

The saturated-system rate region has two shapes depending on the channel
flip probability: six frontier corners b0..b5 below the critical value
EPS_CRITICAL = 1 - sqrt(2)/2, four corners (b1, b4 vanish) at or above it.
Regions are kept in both corner form (counterclockwise along the Pareto
frontier from (1/2, 0) to (0, 1/2)) and halfspace form (a1*x + a2*y <= b,
including the two axis constraints).  The closed-form region's facets and
the FBDC corner map both come from corner_points alone.
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

_TOL = 1e-9  # points this close merge, and a corner this close to its neighbours' chord is flat


@dataclass(frozen=True)
class RateRegion:
    """A convex rate region in corner and halfspace form."""

    corners: tuple[tuple[float, float], ...]
    halfspaces: tuple[HalfSpace, ...]


def _dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def corner_points(epsilon: float) -> list[tuple[str, tuple[float, float]]]:
    """Frontier corner formulas, ordered b5 down the frontier to b0.

    b2 = ((1-e)(3-2e)/(4(2-e)), (3-2e)/(4(2-e))), b3 its mirror;
    b1 = ((1-e)^2/4, (2-e)/4) and its mirror b4 exist only below
    EPS_CRITICAL; b5 = (1/2, 0), b0 = (0, 1/2).
    """
    e = check_epsilon(epsilon)
    b2 = ((1 - e) * (3 - 2 * e) / (4 * (2 - e)), (3 - 2 * e) / (4 * (2 - e)))
    out = [("b5", (0.5, 0.0))]
    if e < EPS_CRITICAL:
        b1 = ((1 - e) ** 2 / 4, (2 - e) / 4)
        out.append(("b4", (b1[1], b1[0])))
    out.append(("b3", (b2[1], b2[0])))
    out.append(("b2", b2))
    if e < EPS_CRITICAL:
        out.append(("b1", b1))
    out.append(("b0", (0.0, 0.5)))
    return out


def _drop_flat_corners(pts: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    # Remove corners within _TOL of the chord of their surviving neighbours.
    kept = list(pts)
    changed = True
    while changed and len(kept) > 2:
        changed = False
        for i in range(1, len(kept) - 1):
            o, a, b = kept[i - 1], kept[i], kept[i + 1]
            chord = _dist(o, b)
            if chord > 0 and abs(_cross(o, a, b)) <= _TOL * chord:
                del kept[i]
                changed = True
                break
    return tuple(kept)


def _edge_halfspace(u: tuple[float, float], v: tuple[float, float]) -> HalfSpace:
    """The halfspace bounded by the line through u and v, outward on the right of u -> v."""
    n1, n2 = v[1] - u[1], u[0] - v[0]
    return HalfSpace(n1, n2, n1 * u[0] + n2 * u[1])


def closed_form_region(epsilon: float) -> RateRegion:
    """The saturated-system rate region, its facets taken from its corners.

    The corners are those of corner_points that survive the flat-corner
    drop, which removes a corner within 1e-9 of the chord of its neighbours
    (b2 and b3 at and just below 1/2, b1 and b4 just below EPS_CRITICAL).
    Each edge between consecutive corners, walked from b0 to b5, gives one
    frontier facet after the two axis constraints: the paper's five facets
    below EPS_CRITICAL, its three at or above it.
    """
    corners = _drop_flat_corners([pt for _, pt in corner_points(epsilon)])
    facets = [_edge_halfspace(u, v) for u, v in zip(corners, corners[1:])][::-1]
    return RateRegion(corners, AXIS_HALFSPACES + tuple(h.normalized() for h in facets))


def iid_region(p1: float, p2: float) -> RateRegion:
    """Stability region under per-slot independent channels: x/p1 + y/p2 <= 1."""
    if p1 <= 0 or p2 <= 0:
        raise ValueError("iid region requires p1, p2 > 0")
    if p1 > 1 or p2 > 1:
        raise ValueError("p1, p2 must be probabilities")
    halfspaces = AXIS_HALFSPACES + (HalfSpace(1 / p1, 1 / p2, 1.0).normalized(),)
    return RateRegion(((p1, 0.0), (0.0, p2)), halfspaces)


def no_switchover_region(p1: float, p2: float) -> RateRegion:
    """Reference region with no switchover cost: x <= p1, y <= p2, x + y <= p1 + p2(1-p1)."""
    if not (0 < p1 <= 1 and 0 < p2 <= 1):
        raise ValueError("p1, p2 must lie in (0, 1]")
    total = p1 + p2 * (1 - p1)
    corners = _drop_flat_corners(
        [(p1, 0.0), (p1, p2 * (1 - p1)), (p1 * (1 - p2), p2), (0.0, p2)]
    )
    facets = (HalfSpace(1.0, 0.0, p1), HalfSpace(0.0, 1.0, p2), HalfSpace(1.0, 1.0, total))
    halfspaces = AXIS_HALFSPACES + tuple(h.normalized() for h in facets)
    return RateRegion(corners, halfspaces)


def contains(region: RateRegion, point: tuple[float, float]) -> bool:
    """Whether the point lies in the region."""
    if point[0] < 0 or point[1] < 0:
        return False
    return all(h.slack(point) >= -1e-12 for h in region.halfspaces)


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew monotone chain; counterclockwise, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def build(seq):
        chain: list[tuple[float, float]] = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= _TOL * max(_dist(chain[-2], p), 1e-30):
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def region_from_vertices(points: list[tuple[float, float]]) -> RateRegion:
    """Convex hull of achievable rate points as a RateRegion (the brute-force oracle).

    Corners are the Pareto-maximal hull vertices ordered from the max-r1 end
    to the max-r2 end; halfspaces are all hull edges.  Points within _TOL
    merge; a single point hulls to itself.
    """
    if not points:
        raise ValueError("need at least one point")
    merged: dict[tuple[int, int], tuple[float, float]] = {}
    for x, y in points:
        merged.setdefault((round(x / _TOL), round(y / _TOL)), (float(x), float(y)))
    hull = _convex_hull(list(merged.values()))
    if len(hull) == 1:
        return RateRegion((hull[0],), ())
    pareto = [
        p for p in hull
        if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in hull)
    ]
    pareto.sort(key=lambda p: (-p[0], p[1]))
    edges = zip(hull, hull[1:] + hull[:1]) if len(hull) >= 3 else ()
    return RateRegion(tuple(pareto), tuple(_edge_halfspace(u, v).normalized() for u, v in edges))


@lru_cache(maxsize=64)
def _corner_table(epsilon: float):
    """corner_points as (id, x, y) triples, as an x row over a y row, and as an array of ids."""
    named = corner_points(epsilon)
    triples = tuple((cid, x, y) for cid, (x, y) in named)
    return triples, np.array([pt for _, pt in named]).T, np.array([cid for cid, _ in named])


def _myopic_thresholds(e) -> tuple:
    """Ascending queue ratios q2/q1 at which the myopic map moves one corner up from b5.

    e is a float, or an array of values on one side of EPS_CRITICAL.
    """
    middle = ((1 - e) / (2 - e), 1.0, (2 - e) / (1 - e)) if np.all(e < EPS_CRITICAL) else (1.0,)
    return (e / (1 - e), *middle, (1 - e) / e)


def _queue_arrays(q1, q2) -> tuple[np.ndarray, np.ndarray]:
    """Queue lengths as float arrays, checked finite, nonnegative and not both zero."""
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    low, high = np.minimum(q1, q2), np.maximum(q1, q2)  # a nan fails every test here
    if not (low.min(initial=0.0) >= 0 and high.min(initial=np.inf) > 0 and high.max(initial=0.0) < np.inf):
        raise ValueError("queue lengths must be finite, nonnegative and not both zero")
    return q1, q2


_TIED = 1.0 - 2.0**-48  # tied values q1*x + q2*y part by at most 14 roundings of 2**-53


def _first_near_max(values: np.ndarray) -> np.ndarray:
    """Per column of the corner rows, the first corner within a relative 2**-48 of the maximum."""
    return (values >= values.max(axis=0) * _TIED).argmax(axis=0)


def fbdc_corner_map(epsilon: float, q1, q2, choices=None):
    """Frontier corner maximizing q1*r1 + q2*r2 (arrays of finite queues map elementwise).

    The first corner in corner_points order within a relative 2**-48 of the
    maximum wins: a tie goes to the lower queue ratio q2/q1 however the values round.
    With ``choices`` (an array when the queues are), the entry at the
    corner's position in corner_points order is returned in place of its id.
    """
    triples, xy, ids = _corner_table(epsilon)
    if isinstance(q1, np.ndarray) or isinstance(q2, np.ndarray):
        q1, q2 = _queue_arrays(q1, q2)
        x, y = xy.reshape(xy.shape + (1,) * max(q1.ndim, q2.ndim))
        return (ids if choices is None else choices)[_first_near_max(x * q1 + y * q2)]  # one row per corner
    if not (0 <= q1 < math.inf and 0 <= q2 < math.inf) or q1 == q2 == 0:
        raise ValueError("queue lengths must be finite, nonnegative and not both zero")
    q1, q2 = float(q1), float(q2)  # float products are faster than int ones, and the same
    best, top, near = 0, -1.0, False
    for i, (_, x, y) in enumerate(triples):
        value = q1 * x + q2 * y
        if value > top:
            best, top, near = i, value, top >= value * _TIED
    if near:  # a corner before the first maximum is within the tolerance, and the first such wins
        best = next(i for i, (_, x, y) in enumerate(triples) if q1 * x + q2 * y >= top * _TIED)
    return triples[best][0] if choices is None else choices[best]


def myopic_corner_map(epsilon, q1, q2, choices=None):
    """Frontier corner the one-step-lookahead weight comparison drives toward.

    The corner's position in corner_points order is the count of myopic
    thresholds below the queue ratio q2/q1, so a ratio on one takes the
    lower interval.  Queue lengths must be finite; arrays map elementwise.
    epsilon is a float, or a 1-D array of values on one side of
    EPS_CRITICAL with one row of queues each.  With ``choices`` (an array),
    the entry at the corner's position is returned in place of its id.
    """
    e = np.asarray(epsilon, dtype=float)
    low, high = check_epsilon(e.min()), check_epsilon(e.max())  # a nan fails both
    if low < EPS_CRITICAL <= high:
        raise ValueError("epsilon values lie on both sides of EPS_CRITICAL")
    q1, q2 = _queue_arrays(q1, q2)
    with np.errstate(divide="ignore", over="ignore"):  # q2 over a zero or tiny q1, and 1 over a tiny e, are infinite
        ratio = np.where(q1 == 0, np.inf, q2 / q1)
        cuts = _myopic_thresholds(e.reshape(e.shape + (1,) * (ratio.ndim - e.ndim)))
    position = sum(ratio > cut for cut in cuts)
    if choices is not None:
        return choices[position]
    corner = _corner_table(high)[2][position]
    return corner if corner.ndim else str(corner)


def weighted_corner_maps(epsilon, ratio):
    """Both corner maps at queues (1, ratio) over arrays, with every corner's weighted rate.

    epsilon is a float, or a 1-D array of values on one side of
    EPS_CRITICAL, so that one corner layout serves them all; ratio is an
    array of finite nonnegative ratios q2/q1, with one row per epsilon when
    epsilon is an array.  Returns (values, ids, myopic, optimal):
    values[c] = x_c + ratio * y_c for the corners c of corner_points, the
    corner ids, and the positions that myopic_corner_map and
    fbdc_corner_map choose, the first by myopic_corner_map itself.
    """
    named = [corner_points(e) for e in np.atleast_1d(epsilon).tolist()]
    myopic = myopic_corner_map(epsilon, 1.0, ratio, np.arange(len(named[0])))  # checks epsilon's side and ratio
    r = np.asarray(ratio, dtype=float)
    shape = (len(named[0]),) + np.shape(epsilon) + (1,) * (r.ndim - np.ndim(epsilon))
    xy = np.array([[pt for _, pt in corners] for corners in named]).T  # [2, corner, epsilon]
    x, y = xy.reshape((2,) + shape).copy()  # contiguous rows, so the passes below run along them
    values = y * r
    values += x  # fbdc_corner_map's q1 * x + q2 * y at q1 = 1
    return values, np.array([cid for cid, _ in named[0]]), myopic, _first_near_max(values)

"""Rate regions: closed forms, convex hulls, membership, and corner maps.

The saturated-system rate region has two shapes depending on the channel
flip probability: six frontier corners b0..b5 below the critical value
EPS_CRITICAL = 1 - sqrt(2)/2, four corners (b1, b4 vanish) at or above it.
Regions are kept in both corner form (counterclockwise along the Pareto
frontier from (1/2, 0) to (0, 1/2)) and halfspace form (a1*x + a2*y <= b,
including the two axis constraints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EPS_CRITICAL = 1.0 - math.sqrt(2.0) / 2.0

CORNER_IDS = ("b0", "b1", "b2", "b3", "b4", "b5")
MIRROR_CORNER = {"b0": "b5", "b1": "b4", "b2": "b3", "b3": "b2", "b4": "b1", "b5": "b0"}


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


@dataclass(frozen=True)
class RateRegion:
    """A convex rate region in corner and halfspace form."""

    corners: tuple[tuple[float, float], ...]
    halfspaces: tuple[HalfSpace, ...]

    def polygon(self) -> list[tuple[float, float]]:
        """Closed-region polygon including the origin, counterclockwise."""
        pts = [(0.0, 0.0)] + list(self.corners)
        return [p for i, p in enumerate(pts) if i == 0 or _dist(p, pts[i - 1]) > 1e-15]


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
    e = _check_eps(epsilon)
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


def _check_eps(epsilon: float) -> float:
    if not (0.0 < epsilon <= 0.5):
        raise ValueError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    return float(epsilon)


def _dedupe_halfspaces(halfspaces) -> tuple[HalfSpace, ...]:
    out: list[HalfSpace] = []
    for h in halfspaces:
        hn = h.normalized()
        if not any(abs(hn.a1 - g.a1) < 1e-12 and abs(hn.a2 - g.a2) < 1e-12 and abs(hn.b - g.b) < 1e-12
                   for g in out):
            out.append(hn)
    return tuple(out)


def _drop_flat_corners(pts: list[tuple[float, float]], tol: float = 1e-9) -> tuple[tuple[float, float], ...]:
    # Remove corners within tol of the chord of their surviving neighbours.
    kept = list(pts)
    changed = True
    while changed and len(kept) > 2:
        changed = False
        for i in range(1, len(kept) - 1):
            o, a, b = kept[i - 1], kept[i], kept[i + 1]
            chord = _dist(o, b)
            if chord > 0 and abs(_cross(o, a, b)) <= tol * chord:
                del kept[i]
                changed = True
                break
    return tuple(kept)


def closed_form_region(epsilon: float) -> RateRegion:
    """The saturated-system rate region in explicit halfspace form.

    Below EPS_CRITICAL the frontier has five facets:
        e x + (1-e)^2 y            <= (1-e)^2 / 2
        (1-e) x + (1+e-e^2) y      <= 3/4 - e/2
        x + y                      <= 3/4 - e/2
        (1+e-e^2) x + (1-e) y      <= 3/4 - e/2
        (1-e)^2 x + e y            <= (1-e)^2 / 2
    at or above it, three:
        x + (1-e)(3-2e) y          <= (1-e)(3-2e) / 2
        x + y                      <= 3/4 - e/2
        (1-e)(3-2e) x + y          <= (1-e)(3-2e) / 2
    plus nonnegativity in both cases.  A facet stays only where it is tight
    (normalized, within 1e-9) at both ends of an edge between corners kept
    by the flat-corner drop; an edge over a dropped corner (epsilon a few
    1e-9 below 1/2 or EPS_CRITICAL) gets its chord, so both forms agree.
    """
    e = _check_eps(epsilon)
    mid = 0.75 - e / 2
    if e < EPS_CRITICAL:
        facets = [
            HalfSpace(e, (1 - e) ** 2, (1 - e) ** 2 / 2),
            HalfSpace(1 - e, 1 + e - e * e, mid),
            HalfSpace(1.0, 1.0, mid),
            HalfSpace(1 + e - e * e, 1 - e, mid),
            HalfSpace((1 - e) ** 2, e, (1 - e) ** 2 / 2),
        ]
    else:
        g = (1 - e) * (3 - 2 * e)
        facets = [
            HalfSpace(1.0, g, g / 2),
            HalfSpace(1.0, 1.0, mid),
            HalfSpace(g, 1.0, g / 2),
        ]
    corners = _drop_flat_corners([pt for _, pt in corner_points(e)])
    edges = list(zip(corners, corners[1:]))
    tight = lambda h, u, v: abs(h.slack(u)) <= 1e-9 and abs(h.slack(v)) <= 1e-9
    facets = [h for h in map(HalfSpace.normalized, facets) if any(tight(h, u, v) for u, v in edges)]
    facets += [HalfSpace(v[1] - u[1], u[0] - v[0], u[0] * v[1] - u[1] * v[0])
               for u, v in edges if not any(tight(h, u, v) for h in facets)]
    return RateRegion(corners, _dedupe_halfspaces(list(AXIS_HALFSPACES) + facets))


def iid_region(p1: float, p2: float) -> RateRegion:
    """Stability region under per-slot independent channels: x/p1 + y/p2 <= 1."""
    if p1 <= 0 or p2 <= 0:
        raise ValueError("iid region requires p1, p2 > 0")
    if p1 > 1 or p2 > 1:
        raise ValueError("p1, p2 must be probabilities")
    halfspaces = _dedupe_halfspaces(list(AXIS_HALFSPACES) + [HalfSpace(1 / p1, 1 / p2, 1.0)])
    return RateRegion(((p1, 0.0), (0.0, p2)), halfspaces)


def no_switchover_region(p1: float, p2: float) -> RateRegion:
    """Reference region with no switchover cost: x <= p1, y <= p2, x + y <= p1 + p2(1-p1)."""
    if not (0 < p1 <= 1 and 0 < p2 <= 1):
        raise ValueError("p1, p2 must lie in (0, 1]")
    total = p1 + p2 * (1 - p1)
    corners = _drop_flat_corners(
        [(p1, 0.0), (p1, p2 * (1 - p1)), (p1 * (1 - p2), p2), (0.0, p2)]
    )
    halfspaces = _dedupe_halfspaces(
        list(AXIS_HALFSPACES)
        + [HalfSpace(1.0, 0.0, p1), HalfSpace(0.0, 1.0, p2), HalfSpace(1.0, 1.0, total)]
    )
    return RateRegion(corners, halfspaces)


def contains(region: RateRegion, point: tuple[float, float], delta: float = 0.0) -> bool:
    """Whether the delta-inflated point (x + delta, y + delta) lies in the region."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    x, y = point
    if x < 0 or y < 0:
        return False
    shifted = (x + delta, y + delta)
    return all(h.slack(shifted) >= -1e-12 for h in region.halfspaces)


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew monotone chain; counterclockwise, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def build(seq):
        chain: list[tuple[float, float]] = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 1e-9 * max(
                _dist(chain[-2], p), 1e-30
            ):
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def region_from_vertices(points: list[tuple[float, float]], tol: float = 1e-9) -> RateRegion:
    """Convex hull of achievable rate points as a RateRegion (the brute-force oracle).

    Corners are the Pareto-maximal hull vertices ordered from the max-r1 end
    to the max-r2 end; halfspaces are all hull edges.  Near-coincident points
    merge at the given tolerance; a single point hulls to itself.
    """
    if not points:
        raise ValueError("need at least one point")
    merged: dict[tuple[int, int], tuple[float, float]] = {}
    for x, y in points:
        merged.setdefault((round(x / tol), round(y / tol)), (float(x), float(y)))
    hull = _convex_hull(list(merged.values()))
    if len(hull) == 1:
        return RateRegion((hull[0],), ())
    pareto = [
        p for p in hull
        if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in hull)
    ]
    pareto.sort(key=lambda p: (-p[0], p[1]))
    halfspaces = []
    if len(hull) >= 3:
        for i, u in enumerate(hull):
            v = hull[(i + 1) % len(hull)]
            n1, n2 = v[1] - u[1], u[0] - v[0]
            halfspaces.append(HalfSpace(n1, n2, n1 * u[0] + n2 * u[1]))
    return RateRegion(tuple(pareto), _dedupe_halfspaces(halfspaces))


def _point_segment_distance(p, a, b) -> float:
    ax, ay = b[0] - a[0], b[1] - a[1]
    denom = ax * ax + ay * ay
    if denom == 0.0:
        return _dist(p, a)
    t = ((p[0] - a[0]) * ax + (p[1] - a[1]) * ay) / denom
    t = min(1.0, max(0.0, t))
    return _dist(p, (a[0] + t * ax, a[1] + t * ay))


def _point_polygon_distance(p, poly: list[tuple[float, float]]) -> float:
    if len(poly) >= 3:
        inside = all(
            _cross(poly[i], poly[(i + 1) % len(poly)], p) >= -1e-12 for i in range(len(poly))
        )
        if inside:
            return 0.0
    return min(
        _point_segment_distance(p, poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))
    )


def hausdorff_distance(a: RateRegion, b: RateRegion) -> float:
    """Hausdorff distance between two convex regions (polygons through the origin)."""
    pa, pb = a.polygon(), b.polygon()
    d_ab = max(_point_polygon_distance(p, pb) for p in pa)
    d_ba = max(_point_polygon_distance(p, pa) for p in pb)
    return max(d_ab, d_ba)


def _map_from_thresholds(thresholds, corners_low_to_high, q1, q2):
    """Corner between the ascending positive thresholds holding q2/q1; arrays map elementwise."""
    if isinstance(q1, np.ndarray) or isinstance(q2, np.ndarray):
        q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
        if ((q1 < 0) | (q2 < 0) | ((q1 == 0) & (q2 == 0))).any():
            raise ValueError("queue lengths must be nonnegative and not both zero")
        with np.errstate(over="ignore"):  # inf, as in the scalar division
            ratio = q2 / np.where(q1 == 0, 1.0, q1)
        # side="left" is the scalar rule below: a ratio on a threshold takes the lower interval
        index = np.searchsorted(thresholds, ratio, side="left")
        return np.asarray(corners_low_to_high)[np.where(q1 == 0, len(thresholds), index)]
    if q1 < 0 or q2 < 0 or (q1 == 0 and q2 == 0):
        raise ValueError("queue lengths must be nonnegative and not both zero")
    if q1 == 0:
        return corners_low_to_high[-1]
    ratio = q2 / q1
    # A ratio exactly on a threshold resolves to the lower interval.
    for t, corner in zip(thresholds, corners_low_to_high):
        if ratio <= t:
            return corner
    return corners_low_to_high[-1]


@lru_cache(maxsize=64)
def _thresholds(epsilon: float):
    """Corners low to high, ascending FBDC (frontier edges' negative reciprocal slopes) and myopic thresholds."""
    e = _check_eps(epsilon)
    if e < EPS_CRITICAL:
        return (("b5", "b4", "b3", "b2", "b1", "b0"),
                (e / (1 - e) ** 2, (1 - e) / (1 + e - e * e), 1.0, (1 + e - e * e) / (1 - e), (1 - e) ** 2 / e),
                (e / (1 - e), (1 - e) / (2 - e), 1.0, (2 - e) / (1 - e), (1 - e) / e))
    g = (1 - e) * (3 - 2 * e)
    return ("b5", "b3", "b2", "b0"), (1.0 / g, 1.0, g), (e / (1 - e), 1.0, (1 - e) / e)


def fbdc_corner_map(epsilon: float, q1, q2):
    """Frontier corner maximizing q1*r1 + q2*r2 (arrays of queues map elementwise)."""
    corners, thresholds, _ = _thresholds(epsilon)
    return _map_from_thresholds(thresholds, corners, q1, q2)


def myopic_corner_map(epsilon: float, q1, q2):
    """Frontier corner the one-step-lookahead weight comparison drives toward (arrays too)."""
    corners, _, thresholds = _thresholds(epsilon)
    return _map_from_thresholds(thresholds, corners, q1, q2)

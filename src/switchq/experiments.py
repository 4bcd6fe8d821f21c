"""Experiment drivers: arrival-grid sweeps, region export, weighted-rate-ratio
verification, corner-rate convergence, and the iid-channel suite.

Everything here emits deterministic CSV: rows are ordered by grid
coordinates, floats are written with shortest round-trip repr, and every
run's seed derives from the grid seed plus the row index, so identical
inputs give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import policies as pol
from . import sim
from .region import (
    EPS_CRITICAL,
    closed_form_region,
    contains,
    corner_points,
    fbdc_corner_map,
    iid_region,
    myopic_corner_map,
    no_switchover_region,
    _thresholds,
)

SWEEP_HEADER = ("epsilon", "lambda1", "lambda2", "policy", "T", "k", "q_avg", "rate1", "rate2", "stable")


def _fmt(value) -> str:
    if isinstance(value, float):  # numpy 2 scalars repr as np.float64(...)
        return repr(float(value))
    return str(value)


def rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# arrival-grid sweep


@dataclass(frozen=True)
class GridSpec:
    """A sweep over the arrival-rate grid for one channel setting."""

    policies: tuple[pol.PolicyConfig, ...]
    epsilon: float | None = None
    p1: float | None = None
    p2: float | None = None
    step: float = 0.01
    boundary_margin: float = 0.02
    horizon: int = 100_000
    warmup: int = 0
    seed: int = 0
    arrival_kind: str = sim.BERNOULLI

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.boundary_margin <= 0:
            raise ValueError("boundary margin must be positive")
        if self.horizon - self.warmup < 4:
            raise ValueError(f"horizon - warmup must be >= 4 slots, got {self.horizon} - {self.warmup}")
        if (self.epsilon is None) == (self.p1 is None or self.p2 is None):
            raise ValueError("give either epsilon or both p1 and p2")

    def channel(self) -> ch.ChannelModel:
        if self.epsilon is not None:
            return ch.gilbert_elliott(self.epsilon)
        return ch.iid(self.p1, self.p2)

    def region(self):
        if self.epsilon is not None:
            return closed_form_region(self.epsilon)
        return iid_region(self.p1, self.p2)


def grid_points(spec: GridSpec) -> list[tuple[float, float]]:
    """Interior lattice points plus one exterior probe above each column.

    Covers the region on a step lattice; every column with interior points
    gets one extra point boundary_margin above the column's exact boundary
    height, so each boundary column has an out-of-region companion.
    """
    region = spec.region()
    step = spec.step
    points: list[tuple[float, float]] = []
    max_x = max(p[0] for p in region.corners)
    i = 0
    while i * step <= max_x + 1e-12:
        x = round(i * step, 12)
        has_interior = False
        j = 0
        while j * step <= 1.0 + 1e-12:
            y = round(j * step, 12)
            if contains(region, (x, y)):
                if (x, y) != (0.0, 0.0):
                    points.append((x, y))
                has_interior = True
            j += 1
        if has_interior:
            boundary = min(
                (h.b - h.a1 * x) / h.a2 for h in region.halfspaces if h.a2 > 1e-12
            )
            points.append((x, round(boundary + spec.boundary_margin, 12)))
        i += 1
    return sorted(set(points))


def sweep(spec: GridSpec) -> list[tuple]:
    """Run every (lambda1, lambda2, policy) cell and classify stability."""
    channel = spec.channel()
    eps_field = spec.epsilon if spec.epsilon is not None else ""
    rows = []
    run_index = 0
    for lam1, lam2 in grid_points(spec):
        for config in spec.policies:
            metrics = sim.run(
                sim.SimConfig(
                    lambda1=lam1,
                    lambda2=lam2,
                    channel=channel,
                    policy=config,
                    horizon=spec.horizon,
                    warmup=spec.warmup,
                    seed=spec.seed + run_index,
                    arrival_kind=spec.arrival_kind,
                )
            )
            rows.append(
                (eps_field, lam1, lam2, config.label(), config.T, config.k,
                 metrics.q_avg, metrics.rate1, metrics.rate2, metrics.verdict)
            )
            run_index += 1
    return rows


def sweep_membership_agreement(spec: GridSpec, rows) -> float:
    """Fraction of non-boundary grid cells whose verdict matches region membership.

    Cells within one grid step of the boundary are excluded, as are
    inconclusive verdicts on the excluded set only; an inconclusive verdict
    on a clearly interior/exterior point counts as disagreement.
    """
    region = spec.region()
    agree = total = 0
    for row in rows:
        lam = (row[1], row[2])
        inside = contains(region, lam)
        if inside:
            clear = contains(region, (lam[0] + spec.step, lam[1] + spec.step))
        else:
            clear = not contains(region, (max(lam[0] - spec.step, 0.0), max(lam[1] - spec.step, 0.0)))
        if not clear:
            continue
        total += 1
        if row[9] == ("stable" if inside else "unstable"):
            agree += 1
    return agree / total if total else 1.0


# ---------------------------------------------------------------------------
# region export


def export_regions(epsilon: float | None = None, p1: float = 0.5, p2: float = 0.5) -> str:
    """Corner and halfspace sections for overlay plots.

    With epsilon given, emits the Markov-channel region followed by the iid
    and no-switchover references at the stationary marginal p = 1/2 (or the
    supplied p1, p2); without it, just the two reference regions.
    """
    sections: list[tuple[str, list[tuple[str, float, float]], object]] = []
    if epsilon is not None:
        named = corner_points(epsilon)
        sections.append((f"markov epsilon={_fmt(float(epsilon))}", [(cid, x, y) for cid, (x, y) in named],
                         closed_form_region(epsilon)))
    for name, region in (
        (f"iid p1={_fmt(float(p1))} p2={_fmt(float(p2))}", iid_region(p1, p2)),
        (f"no_switchover p1={_fmt(float(p1))} p2={_fmt(float(p2))}", no_switchover_region(p1, p2)),
    ):
        sections.append((name, [(f"v{i}", x, y) for i, (x, y) in enumerate(region.corners)], region))
    out = []
    for name, corners, region in sections:
        out.append(f"# region: {name}")
        out.append("corner_id,r1,r2")
        out.extend(f"{cid},{_fmt(x)},{_fmt(y)}" for cid, x, y in corners)
        out.append("a1,a2,b")
        out.extend(f"{_fmt(h.a1)},{_fmt(h.a2)},{_fmt(h.b)}" for h in region.halfspaces)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# weighted departure-rate ratio of the myopic map against the optimal map


def _epsilon_t() -> float:
    # where (2-e)/(1-e) crosses (1-e)^2/e: root of e^3 - 4e^2 + 5e - 1 in (0.2, 0.3)
    f = lambda e: e**3 - 4 * e**2 + 5 * e - 1.0
    lo, hi = 0.2, 0.3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


EPS_T = _epsilon_t()

# Discrepant queue-ratio bands where the myopic and optimal maps pick
# different corners, with the analytic floor each band's minimum must clear.
PSI_REGIONS: tuple[tuple[str, str, tuple[float, float], object, float], ...] = (
    ("case1.1", "R1", (0.0, EPS_T), lambda e: ((1 - e) ** 2 / e, (1 - e) / e), 0.97),
    ("case1.1", "R2", (0.0, EPS_T), lambda e: ((1 + e - e * e) / (1 - e), (2 - e) / (1 - e)), 0.9002),
    ("case1.2", "R1", (EPS_T, EPS_CRITICAL), lambda e: ((2 - e) / (1 - e), (1 - e) / e), 0.95),
    ("case1.2", "R2", (EPS_T, EPS_CRITICAL), lambda e: ((1 - e) ** 2 / e, (2 - e) / (1 - e)), 0.9150),
    ("case1.2", "R3", (EPS_T, EPS_CRITICAL), lambda e: ((1 + e - e * e) / (1 - e), (1 - e) ** 2 / e), 0.9474),
    ("case2", "R1", (EPS_CRITICAL, 0.5), lambda e: ((1 - e) * (3 - 2 * e), (1 - e) / e), 0.914),
)

PSI_GLOBAL_BOUND = 0.9002


def psi_value(epsilon: float, ratio):
    """Myopic-to-optimal weighted departure rate ratio at weights (1, ratio).

    Returns (psi, myopic corner, optimal corner), the optimum from
    fbdc_corner_map.  An array of ratios takes one numpy pass at one
    epsilon and returns arrays, elementwise equal to scalar calls.
    """
    ids, xy = zip(*sorted(corner_points(epsilon)))  # ids ascending, for searchsorted
    ids, xy = np.array(ids), np.array(xy)
    ratios = np.atleast_1d(np.asarray(ratio, dtype=float))
    my = myopic_corner_map(epsilon, 1.0, ratios)
    opt = fbdc_corner_map(epsilon, 1.0, ratios)
    (x_my, y_my), (x_opt, y_opt) = xy[np.searchsorted(ids, my)].T, xy[np.searchsorted(ids, opt)].T
    psi = (x_my + ratios * y_my) / (x_opt + ratios * y_opt)
    if np.ndim(ratio) == 0:
        return float(psi[0]), str(my[0]), str(opt[0])
    return psi, my, opt


@dataclass(frozen=True)
class PsiRegionResult:
    case: str
    region: str
    bound: float
    minimum: float
    argmin_epsilon: float
    argmin_ratio: float


@dataclass(frozen=True)
class PsiReport:
    regions: tuple[PsiRegionResult, ...]
    global_minimum: float
    global_bound: float = PSI_GLOBAL_BOUND

    def rows(self):
        out = [(r.case, r.region, r.bound, r.minimum, r.argmin_epsilon, r.argmin_ratio)
               for r in self.regions]
        out.append(("global", "", self.global_bound, self.global_minimum, float("nan"), float("nan")))
        return out


def _golden_min(f, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc < fd else d
    return (x, min(fc, fd))


def verify_psi(epsilon_grid_step: float = 1e-3, ratio_grid_points: int = 400) -> PsiReport:
    """Numerically minimize the weighted-rate ratio over every discrepant band.

    The bands are open (strict threshold inequalities), so the grid samples
    strictly interior points: epsilon at multiples of the step inside the
    band's interval, the ratio at log-spaced points excluding the
    endpoints.  Golden-section refinement then sharpens the minimum inside
    the bracket of neighbouring samples; it never extrapolates to the open
    boundary, where the maps change corner.  Each epsilon's ratio grid is
    one array pass of psi_value; the refinement calls it on scalars.
    """
    results = []
    global_min = math.inf
    for case, name, (eps_lo, eps_hi), ratio_iv, bound in PSI_REGIONS:
        k_lo = math.floor(eps_lo / epsilon_grid_step) + 1
        k_hi = math.ceil(eps_hi / epsilon_grid_step) - 1
        best = (math.inf, math.nan, math.nan, None)
        for k in range(k_lo, k_hi + 1):
            e = k * epsilon_grid_step
            if not (eps_lo < e < eps_hi):
                continue
            rs = np.geomspace(*ratio_iv(e), ratio_grid_points + 2)[1:-1]
            vals = psi_value(e, rs)[0]
            i = int(np.argmin(vals))
            if vals[i] < best[0]:
                best = (vals[i], e, float(rs[i]), (float(rs[max(i - 1, 0)]), float(rs[min(i + 1, len(rs) - 1)])))
        if best[3] is None:
            raise ValueError(f"epsilon grid step {epsilon_grid_step} leaves band {case}/{name} without a sample")
        # refine in ratio inside the sampled bracket at the best epsilon
        e_star = best[1]
        x, v = _golden_min(lambda r: psi_value(e_star, r)[0], *best[3])
        if v < best[0]:
            best = (v, e_star, x, best[3])
        results.append(PsiRegionResult(case, name, bound, best[0], best[1], best[2]))
        global_min = min(global_min, best[0])
    return PsiReport(tuple(results), global_min)


def corner_map_partition(epsilon: float) -> list[tuple[float, float, str, str]]:
    """Atomic ratio intervals with the corner each map picks inside them.

    The union of agreement and discrepant atoms tiles (0, inf); used to
    check that the discrepant bands above are exactly where the maps part.
    """
    e = epsilon
    _, fbdc, myopic = _thresholds(e)
    cuts = sorted(set(fbdc + myopic))
    edges = [0.0] + cuts + [cuts[-1] * 4.0]
    atoms = []
    for lo, hi in zip(edges, edges[1:]):
        mid = math.sqrt(lo * hi) if lo > 0 else hi / 2
        atoms.append((lo, hi, myopic_corner_map(e, 1.0, mid), fbdc_corner_map(e, 1.0, mid)))
    return atoms


# ---------------------------------------------------------------------------
# corner-rate convergence against frame restarts


def throughput_gap(
    epsilon: float,
    t_list: tuple[int, ...],
    corner: str,
    slots_per_t: int = 200_000,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Total-rate deficit of a corner policy restarted every T slots.

    Each frame starts from a uniformly random state (server position and
    both channels), runs the corner's table for T saturated slots, and the
    deficit is the stationary total rate minus the frame-averaged empirical
    total rate.  The deficit shrinks as T grows past the chain's mixing
    time.
    """
    from .mdp import build_kernel, policy_rates, state_index, stationary_distribution

    luts = sim._saturated_luts([pol.CORNER_TABLES[corner]])
    kernel = build_kernel(epsilon)
    pi = stationary_distribution(kernel, pol.CORNER_TABLES[corner])
    r1, r2 = policy_rates(pi, pol.CORNER_TABLES[corner])
    rng = np.random.default_rng(seed)
    out = []
    for T in t_list:
        n_frames = max(1, slots_per_t // T)
        m = rng.integers(1, 3, size=n_frames)
        c1 = rng.integers(0, 2, size=n_frames)
        c2 = rng.integers(0, 2, size=n_frames)
        flips1 = (rng.random((n_frames, T)) < epsilon).T.copy()  # time first, frames as rows
        flips2 = (rng.random((n_frames, T)) < epsilon).T.copy()
        flips1[0] = flips2[0] = False  # slot 0 is the drawn start state
        c1s = np.logical_xor.accumulate(flips1) ^ (c1 == 1)
        c2s = np.logical_xor.accumulate(flips2) ^ (c2 == 1)
        x = state_index(1, c1s.astype(np.int8), c2s.astype(np.int8))
        departures = 0
        for f in range(0, n_frames, sim._ROWS):
            _, counts = sim._saturated_steps(luts, m[f : f + sim._ROWS] - 1, x[:, f : f + sim._ROWS])
            departures += int(counts[:2].sum())
        deficit = (r1 + r2) - departures / (n_frames * T)
        out.append((T, deficit))
    return out


# ---------------------------------------------------------------------------
# iid-channel suite


def iid_suite(
    p1: float,
    p2: float,
    rho_points: tuple[float, ...],
    horizon: int = 100_000,
    seed: int = 0,
) -> list[tuple]:
    """Gated and exhaustive stability verdicts across system loads.

    The load rho = lambda1/p1 + lambda2/p2 splits evenly between the queues:
    lambda_i = rho * p_i / 2.
    """
    if horizon < 4000:
        raise ValueError("iid suite probes need at least 4000 slots")
    rows = []
    for i, rho in enumerate(rho_points):
        lam1, lam2 = rho * p1 / 2, rho * p2 / 2
        for j, kind in enumerate(("gated", "exhaustive")):
            config = sim.SimConfig(
                lambda1=lam1,
                lambda2=lam2,
                channel=ch.iid(p1, p2),
                policy=pol.PolicyConfig(kind),
                horizon=horizon,
                seed=seed + 2 * i + j,
            )
            metrics = sim.run(config)
            rows.append((p1, p2, rho, lam1, lam2, kind, metrics.verdict, metrics.q_avg))
    return rows


IID_HEADER = ("p1", "p2", "rho", "lambda1", "lambda2", "policy", "stable", "q_avg")


# ---------------------------------------------------------------------------
# flat key=value config files


def parse_config(text: str) -> dict[str, object]:
    """Parse `key=value` lines; '#' starts a comment, values are typed."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = _coerce(value)
    return out


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value

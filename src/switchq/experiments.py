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
from .mdp import build_kernel, policy_rates, state_index, stationary_distribution
from .region import (
    EPS_CRITICAL,
    closed_form_region,
    contains,
    corner_points,
    iid_region,
    no_switchover_region,
    weighted_corner_maps,
)

# The most points a sweep or psi grid may sample, checked before it is built:
# about 2.1 s of grid_points (step 1e-3, 166k cells to simulate) and 0.25 s
# of verify_psi on a 2-vCPU Xeon.
MAX_GRID_POINTS = 10**6

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

    def __post_init__(self):
        if not self.step >= MAX_GRID_POINTS ** -0.5:  # false for nan too; grid_points tests about 1 / step**2 points
            raise ValueError(f"--step must be at least {MAX_GRID_POINTS ** -0.5} (MAX_GRID_POINTS = "
                             f"{MAX_GRID_POINTS:,}), got {self.step}")
        if not 0 < self.boundary_margin < math.inf:
            raise ValueError(f"boundary_margin must be positive and finite, got {self.boundary_margin}")
        if self.horizon - self.warmup < 4:
            raise ValueError(f"horizon - warmup must be >= 4 slots, got {self.horizon} - {self.warmup}")
        if (self.epsilon is None) == (self.p1 is None) or (self.p1 is None) != (self.p2 is None):
            raise ValueError("give either --epsilon or both --p1 and --p2")

    def region(self):
        if self.epsilon is not None:
            return closed_form_region(self.epsilon)
        return iid_region(self.p1, self.p2)


def grid_points(spec: GridSpec) -> list[tuple[float, float]]:
    """Interior lattice points plus one exterior probe above each column.

    Covers the region on a step lattice; every column with interior points
    gets one extra point boundary_margin above the column's exact boundary
    height, so each boundary column has an out-of-region companion.  A
    probe above rate 1 is left out: it is no Bernoulli arrival rate.
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
            probe = round(boundary + spec.boundary_margin, 12)
            if probe <= 1.0:
                points.append((x, probe))
        i += 1
    return sorted(set(points))


# Per policy kind, the fewest cells that sim.run_batch runs faster than one
# sim.run each; below it numpy's per-call cost outweighs the per-cell slot
# loop.  Crossovers at 20k slots on a 2-vCPU Xeon (table in README): the
# table-driven kinds cross first, gated, whose per-cell loop is cheapest
# against its lock-step step, last.
_LOCKSTEP_MIN_CELLS = {"fbdc": 40, "fixed_table": 48, "myopic": 48, "exhaustive": 56, "gated": 72}


def _run_grid(points, policies, channel, horizon: int, seed: int, warmup: int | None = None) -> list[tuple]:
    """sim.run of every (point, policy) cell: one row per point of (lambda1, lambda2), one Metrics per policy.

    Point i runs policy j with seed seed + i * len(policies) + j.  The
    cells of a policy go to one sim.run_batch from its kind's
    _LOCKSTEP_MIN_CELLS points on, and to one sim.run each below.
    """
    by_policy = []
    for j, policy in enumerate(policies):
        configs = [
            sim.SimConfig(lambda1=lam1, lambda2=lam2, channel=channel, policy=policy, horizon=horizon,
                          warmup=warmup, seed=seed + i * len(policies) + j)
            for i, (lam1, lam2) in enumerate(points)
        ]
        by_policy.append(sim.run_batch(configs) if len(configs) >= _LOCKSTEP_MIN_CELLS[policy.kind]
                         else [sim.run(config) for config in configs])
    return list(zip(*by_policy))


def sweep(spec: GridSpec) -> list[tuple]:
    """Run every (lambda1, lambda2, policy) cell of the grid, seeded as _run_grid does, and classify stability."""
    eps_field = spec.epsilon if spec.epsilon is not None else ""
    points = grid_points(spec)
    channel = ch.gilbert_elliott(spec.epsilon) if spec.epsilon is not None else ch.iid(spec.p1, spec.p2)
    results = _run_grid(points, spec.policies, channel, spec.horizon, spec.seed, spec.warmup)
    return [
        (eps_field, lam1, lam2, config.label(), config.T, config.k,
         metrics.q_avg, metrics.rate1, metrics.rate2, metrics.verdict)
        for (lam1, lam2), row in zip(points, results)
        for config, metrics in zip(spec.policies, row)
    ]


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


# Where (2-e)/(1-e) crosses (1-e)^2/e: the one real root of e^3 - 4e^2 + 5e - 1,
# correctly rounded (a test checks it in exact arithmetic).  Not np.roots at
# import: its LAPACK eigenvalue call raised every run's peak RSS by about 0.9 MB.
EPS_T = 0.24512233375330725

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


def psi_value(epsilon, ratio):
    """Myopic-to-optimal weighted departure rate ratio at weights (1, ratio).

    Returns (psi, myopic corner, optimal corner) in one numpy pass
    (region.weighted_corner_maps): the myopic corner from
    myopic_corner_map, the optimum from fbdc_corner_map's rule.  ratio is an
    array, 0-d included, at one epsilon, or a 2-D array with one row of
    ratios per value of a 1-D array of epsilon values on one side of
    EPS_CRITICAL; the results have ratio's shape.
    """
    ids, (my, opt), (rate_my, rate_opt) = weighted_corner_maps(epsilon, ratio)
    return rate_my / rate_opt, ids[my], ids[opt]


# Grid points per array pass of verify_psi, so a pass's memory does not grow
# with the grid.  A whole band per pass raised the peak RSS of `psi --check`
# by about 11 MB; at 4096 points it peaks as low as one epsilon per pass,
# and halving the block made the check about a third slower.
_PSI_BLOCK = 4096


def verify_psi(epsilon_grid_step: float = 1e-3, ratio_grid_points: int = 400) -> list[tuple]:
    """Minimize the weighted-rate ratio over every discrepant band on a sampled grid.

    The bands are open (strict threshold inequalities), so the grid samples
    strictly interior points: epsilon at multiples of the step inside the
    band's interval, the ratio at log-spaced points excluding the
    endpoints.  Inside a band both maps keep one corner each, so psi is
    monotone along each ratio row and a row's minimum is one of its end
    samples; the grid minimum needs no refinement.  A band's epsilon x
    ratio grid is evaluated in array passes of psi_value over blocks of
    epsilon rows, at most _PSI_BLOCK points each (at least one row); the
    first minimum in (epsilon, ratio) order wins, as strict < across blocks
    keeps it.  Returns one row (case, region, bound, minimum,
    argmin_epsilon, argmin_ratio) per band, then ("global", "",
    PSI_GLOBAL_BOUND, the least minimum, nan, nan).
    """
    width = sum(hi - lo for _, _, (lo, hi), _, _ in PSI_REGIONS)  # about width / step epsilon rows in all
    if not ratio_grid_points * width <= MAX_GRID_POINTS * epsilon_grid_step:  # false for a step <= 0 or nan
        raise ValueError(f"--eps-step must be positive and, with --ratio-points {ratio_grid_points}, sample at most "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS:,} points, got {epsilon_grid_step}")
    rows = max(1, _PSI_BLOCK // ratio_grid_points)
    results = []
    for case, name, (eps_lo, eps_hi), ratio_iv, bound in PSI_REGIONS:
        k_lo = math.floor(eps_lo / epsilon_grid_step) + 1
        k_end = math.ceil(eps_hi / epsilon_grid_step)
        best = (math.inf, math.nan, math.nan)
        for k in range(k_lo, k_end, rows):
            eps = np.arange(k, min(k + rows, k_end)) * epsilon_grid_step
            eps = eps[(eps_lo < eps) & (eps < eps_hi)]
            if not eps.size:
                continue
            lo, hi = np.array([ratio_iv(e) for e in eps.tolist()]).T
            rs = np.geomspace(lo, hi, ratio_grid_points + 2, axis=1)[:, 1:-1]
            vals = psi_value(eps, rs)[0]
            i, j = divmod(int(np.argmin(vals)), ratio_grid_points)
            if vals[i, j] < best[0]:
                best = (vals[i, j], float(eps[i]), float(rs[i, j]))
        if best[0] == math.inf:
            raise ValueError(f"epsilon grid step {epsilon_grid_step} leaves band {case}/{name} without a sample")
        results.append((case, name, bound, *best))
    return results + [("global", "", PSI_GLOBAL_BOUND, min(r[3] for r in results), math.nan, math.nan)]


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
    total rate.  From the uniform start a frame's expected departures fall
    short of T times the stationary rate by one constant c whatever T (1/8
    for b2 at epsilon = 0.25, 1/4 for b0 and b5), so the expected deficit
    is exactly c / T.  The simulated deficit adds sampling noise, and at
    large T, where c / T is below the noise, it can come out negative.
    """
    table = pol.CORNER_TABLES[corner]
    r1, r2 = policy_rates(stationary_distribution(build_kernel(epsilon), table), table)
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
        out.append((T, (r1 + r2) - sim.saturated_frame_departures(table, m, x) / (n_frames * T)))
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
    loads = [(rho, rho * p1 / 2, rho * p2 / 2) for rho in rho_points]
    policies = (pol.PolicyConfig("gated"), pol.PolicyConfig("exhaustive"))
    results = _run_grid([(lam1, lam2) for _, lam1, lam2 in loads], policies, ch.iid(p1, p2), horizon, seed)
    return [
        (p1, p2, rho, lam1, lam2, policy.kind, metrics.verdict, metrics.q_avg)
        for (rho, lam1, lam2), row in zip(loads, results)
        for policy, metrics in zip(policies, row)
    ]


IID_HEADER = ("p1", "p2", "rho", "lambda1", "lambda2", "policy", "stable", "q_avg")

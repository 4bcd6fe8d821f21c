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
    psi_value,
)

# The most points a sweep or psi grid may sample, checked before it is built:
# about 0.3 s of grid_points (step 1e-3, 166k cells to simulate) on a 2-vCPU
# Xeon.  verify_psi computes two samples of each epsilon row, so a million
# points take 0.04 s at 400 ratios a row and about 0.4 s at one.
MAX_GRID_POINTS = 10**6

SWEEP_HEADER = ("epsilon", "lambda1", "lambda2", "policy", "T", "k", "q_avg", "rate1", "rate2", "stable")


def rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)  # str of a float, np.float64 too, is its shortest repr
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# arrival-grid sweep


@dataclass(frozen=True)
class GridSpec:
    """A sweep over the arrival-rate grid of any valid channel model, in its closed-form (Markov) or iid region."""

    policies: tuple[pol.PolicyConfig, ...]
    channel: ch.ChannelModel
    step: float = 0.01
    boundary_margin: float = 0.02
    horizon: int = 100_000
    warmup: int = 0
    seed: int = 0

    def __post_init__(self):
        if not MAX_GRID_POINTS ** -0.5 <= self.step < math.inf:  # false for nan; grid_points tests ~1 / step**2 points
            raise ValueError(f"--step must be finite and at least {MAX_GRID_POINTS ** -0.5} (MAX_GRID_POINTS = "
                             f"{MAX_GRID_POINTS:,}), got {self.step}")
        if not 0 < self.boundary_margin < math.inf:
            raise ValueError(f"boundary_margin must be positive and finite, got {self.boundary_margin}")
        if self.horizon - self.warmup < 4:
            raise ValueError(f"horizon - warmup must be >= 4 slots, got {self.horizon} - {self.warmup}")

    def region(self):
        if self.channel.epsilon is not None:
            return closed_form_region(self.channel.epsilon)
        return iid_region(self.channel.p1, self.channel.p2)


def grid_points(spec: GridSpec) -> list[tuple[float, float]]:
    """Interior lattice points plus one exterior probe above each column.

    Covers the region on a step lattice, one contains call; every column
    with interior points gets one extra point boundary_margin above its
    exact boundary height, so each boundary column has an out-of-region
    companion.  A probe above rate 1 is left out: no Bernoulli arrival rate.
    """
    region, step = spec.region(), spec.step
    xs, ys = (np.array([round(i * step, 12) for i in range(int(top / step) + 2) if i * step <= top])
              for top in (max(p[0] for p in region.corners) + 1e-12, 1.0 + 1e-12))
    inside = contains(region, (xs[:, None], ys))  # [column, row]
    columns = xs[inside.any(axis=1)]
    inside[0, 0] = False  # the origin gives its column a probe, but is no point
    column, row = np.nonzero(inside)
    boundary = np.min([(h.b - h.a1 * columns) / h.a2 for h in region.halfspaces if h.a2 > 0], axis=0)
    probes = [(x, probe) for x, b in zip(columns.tolist(), boundary.tolist())
              if (probe := round(b + spec.boundary_margin, 12)) <= 1.0]
    return sorted({*zip(xs[column].tolist(), ys[row].tolist()), *probes})


# Per policy kind, the fewest cells that sim.run_batch runs faster than one
# sim.run each; below it numpy's per-call cost outweighs the per-cell slot
# loop.  Crossovers at 20k slots on a 2-vCPU Xeon (table in README): the
# table-driven kinds, whose slot makes no decision call, cross first.
_LOCKSTEP_MIN_CELLS = {"fbdc": 16, "fixed_table": 16, "myopic": 16, "exhaustive": 24, "gated": 24}


def _run_grid(points, policies, channel, horizon: int, seed: int, warmup: int) -> list[tuple]:
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
    eps_field = spec.channel.epsilon if spec.channel.epsilon is not None else ""
    points = grid_points(spec)
    results = _run_grid(points, spec.policies, spec.channel, spec.horizon, spec.seed, spec.warmup)
    return [
        (eps_field, lam1, lam2, config.label(), config.T, config.k,
         metrics.q_avg, metrics.rate1, metrics.rate2, metrics.verdict)
        for (lam1, lam2), row in zip(points, results)
        for config, metrics in zip(spec.policies, row)
    ]


def sweep_membership_agreement(spec: GridSpec, rows) -> float | None:
    """Fraction of non-boundary grid cells whose verdict matches region membership, None with no such cell.

    Cells within one grid step of the boundary are excluded, as are
    inconclusive verdicts on the excluded set only; an inconclusive verdict
    on a clearly interior/exterior point counts as disagreement.
    """
    region, lam = spec.region(), np.array([row[1:3] for row in rows], dtype=float).reshape(-1, 2).T  # [axis, row]
    inside = contains(region, lam)
    clear = np.where(inside, contains(region, lam + spec.step), ~contains(region, np.maximum(lam - spec.step, 0.0)))
    agree = clear & (np.array([row[9] for row in rows], dtype=str) == np.where(inside, "stable", "unstable"))
    total = int(clear.sum())  # not clear.any(), whose first call raised a sweep's peak RSS by 0.13 MB
    return int(agree.sum()) / total if total else None


# ---------------------------------------------------------------------------
# region export


def export_regions(epsilon: float | None = None, p1: float = 0.5, p2: float = 0.5) -> str:
    """Corner and halfspace sections for overlay plots.

    With epsilon given, emits the Markov-channel region followed by the iid
    and no-switchover references at the stationary marginal p = 1/2 (or the
    supplied p1, p2); without it, just the two reference regions.
    """
    sections = [] if epsilon is None else [(f"markov epsilon={float(epsilon)}", corner_points(epsilon),
                                            closed_form_region(epsilon))]
    for name, region in ((f"iid p1={float(p1)} p2={float(p2)}", iid_region(p1, p2)),
                         (f"no_switchover p1={float(p1)} p2={float(p2)}", no_switchover_region(p1, p2))):
        sections.append((name, [(f"v{i}", corner) for i, corner in enumerate(region.corners)], region))
    return "".join(f"# region: {name}\n" + rows_to_csv(("corner_id", "r1", "r2"), [(cid, *c) for cid, c in corners])
                   + rows_to_csv(("a1", "a2", "b"), [(h.a1, h.a2, h.b) for h in region.halfspaces])
                   for name, corners, region in sections)


# ---------------------------------------------------------------------------
# weighted departure-rate ratio of the myopic map against the optimal map


# Where (2-e)/(1-e) crosses (1-e)^2/e: the one real root of e^3 - 4e^2 + 5e - 1,
# correctly rounded (a test checks it in exact arithmetic).  Not np.roots at
# import: its LAPACK eigenvalue call raised every run's peak RSS by about 0.9 MB.
EPS_T = 0.24512233375330725

# Discrepant queue-ratio bands where the myopic and optimal maps pick
# different corners, with the analytic floor each band's minimum must clear.
# An interval takes a float or an array, alike to the bit ((1-e)^2 a product).
PSI_REGIONS: tuple[tuple[str, str, tuple[float, float], object, float], ...] = (
    ("case1.1", "R1", (0.0, EPS_T), lambda e: ((1 - e) * (1 - e) / e, (1 - e) / e), 0.97),
    ("case1.1", "R2", (0.0, EPS_T), lambda e: ((1 + e - e * e) / (1 - e), (2 - e) / (1 - e)), 0.9002),
    ("case1.2", "R1", (EPS_T, EPS_CRITICAL), lambda e: ((2 - e) / (1 - e), (1 - e) / e), 0.95),
    ("case1.2", "R2", (EPS_T, EPS_CRITICAL), lambda e: ((1 - e) * (1 - e) / e, (2 - e) / (1 - e)), 0.9150),
    ("case1.2", "R3", (EPS_T, EPS_CRITICAL), lambda e: ((1 + e - e * e) / (1 - e), (1 - e) * (1 - e) / e), 0.9474),
    ("case2", "R1", (EPS_CRITICAL, 0.5), lambda e: ((1 - e) * (3 - 2 * e), (1 - e) / e), 0.914),
)

PSI_GLOBAL_BOUND = 0.9002


# Epsilon rows per verify_psi pass: whole-band passes raise the peak RSS at the finest
# --eps-step from 31 to 53 MB at --ratio-points 4, and from 31 to about 120 MB at 1.
_PSI_BLOCK = 4096


def _end_samples(lo, hi, points: int) -> np.ndarray:
    """Samples j = 1 and points, as [row, 2], of the ratio rows of verify_psi over arrays lo, hi."""
    log_lo = np.log10(lo)[:, None]
    return 10.0 ** (np.array([1.0, points]) * ((np.log10(hi)[:, None] - log_lo) / (points + 1)) + log_lo)


def verify_psi(epsilon_grid_step: float = 1e-3, ratio_grid_points: int = 400) -> list[tuple]:
    """Minimize the weighted-rate ratio over every discrepant band on a sampled grid.

    The bands are open, so the grid samples strictly interior points: epsilon
    at multiples of the step inside the band's interval, and on each epsilon
    row N = ratio_grid_points ratios 10 ** (j * step + log10(lo)), j = 1..N,
    step = (log10(hi) - log10(lo)) / (N + 1) on the row's ratio interval
    (lo, hi), which is np.geomspace(lo, hi, N + 2)'s interior to the bit.
    psi is monotone along a row (both maps keep one corner each in a band),
    so a row's first minimum is one of its end samples j = 1, N: only those
    are computed.  Each pass takes _PSI_BLOCK epsilon rows as arrays, and
    the first minimum in (epsilon, ratio) order wins.  Returns one row (case,
    region, bound, minimum, argmin_epsilon, argmin_ratio) per band, then
    ("global", "", PSI_GLOBAL_BOUND, the least minimum, nan, nan).
    """
    width = sum(hi - lo for _, _, (lo, hi), _, _ in PSI_REGIONS)  # about width / step epsilon rows in all
    # false for a step <= 0 or nan; the points are bounded first: an int too large for a float overflows the product
    if not (ratio_grid_points <= MAX_GRID_POINTS and ratio_grid_points * width <= MAX_GRID_POINTS * epsilon_grid_step):
        raise ValueError(f"--eps-step must be positive and, with --ratio-points {ratio_grid_points}, sample at most "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS:,} points, got {epsilon_grid_step}")
    results = []
    for case, name, (eps_lo, eps_hi), ratio_iv, bound in PSI_REGIONS:
        k_lo, k_hi = math.floor(eps_lo / epsilon_grid_step) + 1, math.ceil(eps_hi / epsilon_grid_step)
        minima = []  # (psi, epsilon, ratio) of each pass's first minimum
        for k in range(k_lo, k_hi, _PSI_BLOCK):
            eps = np.arange(k, min(k + _PSI_BLOCK, k_hi)) * epsilon_grid_step
            eps = eps[(eps_lo < eps) & (eps < eps_hi)]
            if eps.size:
                rs = _end_samples(*ratio_iv(eps), ratio_grid_points)
                vals = psi_value(eps, rs)
                i, j = divmod(int(np.argmin(vals)), 2)
                minima.append((vals[i, j], float(eps[i]), float(rs[i, j])))
        if not minima:
            raise ValueError(f"--eps-step {epsilon_grid_step} leaves band {case}/{name} without a sample")
        results.append((case, name, bound, *min(minima, key=lambda m: m[0])))  # min keeps the first of ties
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

    For each T, one stationary channels.generate_paths path is cut into
    T-slot frames, and each frame draws only its server queue, uniformly.
    Every slot of a stationary path holds a uniform channel pair, so each
    frame starts from the uniform law over (server position, both
    channels), though the frames of one path are not independent.  Each
    runs the corner's table for T saturated slots, and the
    deficit is the stationary total rate minus the frame-averaged empirical
    total rate.  From the uniform start a frame's expected departures fall
    short of T times the stationary rate by one constant c whatever T (1/8
    for b2 at epsilon = 0.25, 1/4 for b0 and b5), so the expected deficit
    is exactly c / T.  The simulated deficit adds sampling noise, and at
    large T, where c / T is below the noise, it can come out negative.
    """
    table, channel = pol.CORNER_TABLES[corner], ch.gilbert_elliott(epsilon)
    r1, r2 = policy_rates(stationary_distribution(build_kernel(epsilon), table), table)
    rng = np.random.default_rng(seed)
    out = []
    for T in t_list:
        n_frames = max(1, slots_per_t // T)
        x = state_index(1, *ch.generate_paths(channel, n_frames * T, rng)).reshape(n_frames, T).T  # [slot, frame]
        m = rng.integers(1, 3, size=n_frames)
        out.append((T, (r1 + r2) - sim.saturated_frame_departures(table, m, x) / (n_frames * T)))
    return out


# ---------------------------------------------------------------------------
# iid-channel suite


def iid_suite(
    channel: ch.ChannelModel,
    rho_points: tuple[float, ...],
    horizon: int = 100_000,
    seed: int = 0,
) -> list[tuple]:
    """Gated and exhaustive stability verdicts across system loads of an iid channel model.

    The load rho = lambda1/p1 + lambda2/p2 splits evenly between the queues:
    lambda_i = rho * p_i / 2.  Each run drops the first tenth of its horizon as warmup.
    """
    p1, p2 = channel.p1, channel.p2
    loads = [(rho, rho * p1 / 2, rho * p2 / 2) for rho in rho_points]
    policies = (pol.PolicyConfig("gated"), pol.PolicyConfig("exhaustive"))
    results = _run_grid([(lam1, lam2) for _, lam1, lam2 in loads], policies, channel, horizon, seed, horizon // 10)
    return [
        (p1, p2, rho, lam1, lam2, policy.kind, metrics.verdict, metrics.q_avg)
        for (rho, lam1, lam2), row in zip(loads, results)
        for policy, metrics in zip(policies, row)
    ]


IID_HEADER = ("p1", "p2", "rho", "lambda1", "lambda2", "policy", "stable", "q_avg")

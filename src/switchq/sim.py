"""Slot-by-slot simulation of the two-queue system under any policy.

Slot contract, in order within slot t:
  1. the channel pair C(t) is the one produced at the end of slot t-1
     (slot 0 is drawn from the stationary law);
  2. the policy observes (m, C(t), queue information) and emits an action;
     queue lengths enter the metrics as read here;
  3. stay with C_m(t)=1 and a packet available (always, when saturated)
     produces one departure; switch flips m and serves nothing this slot;
  4. arrivals are added, so a packet is never served in its arrival slot;
  5. the channels step to C(t+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import policies as pol
from .mdp import STAY, SWITCH

BERNOULLI = "bernoulli"
POISSON = "poisson"


@dataclass(frozen=True)
class SimConfig:
    """All inputs of one simulation run; equal configs give bit-equal metrics.

    ``warmup`` slots are dropped from every average; it defaults to a tenth
    of the horizon (occupancy-surface experiments pass 0 to keep the plain
    time-average metric).
    """

    lambda1: float
    lambda2: float
    channel: ch.ChannelModel
    policy: pol.PolicyConfig
    horizon: int
    seed: int
    arrival_kind: str = BERNOULLI
    warmup: int | None = None
    saturated: bool = False
    trace_every: int = 0
    m0: int = 1

    def __post_init__(self):
        if self.warmup is None:
            object.__setattr__(self, "warmup", self.horizon // 10)
        if self.arrival_kind not in (BERNOULLI, POISSON):
            raise ValueError(f"unknown arrival kind {self.arrival_kind!r}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("arrival rates must be nonnegative")
        if self.arrival_kind == BERNOULLI and (self.lambda1 > 1 or self.lambda2 > 1):
            raise ValueError("bernoulli arrivals require lambda <= 1")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError("need horizon > warmup >= 0")
        if self.trace_every < 0:
            raise ValueError("trace_every must be nonnegative")
        if self.m0 not in (1, 2):
            raise ValueError("m0 must be 1 or 2")
        if self.saturated and self.policy.kind not in ("fixed_table", "fixed_corner"):
            raise ValueError("saturated mode supports fixed_table/fixed_corner policies only")
        if self.policy.kind in ("fbdc", "myopic") and self.channel.kind != ch.GILBERT_ELLIOTT:
            raise ValueError(f"{self.policy.kind} policy requires the gilbert_elliott channel model")


@dataclass
class Metrics:
    """Post-warmup averages and counters of one run."""

    q_avg: float
    rate1: float
    rate2: float
    d1: int
    d2: int
    switch_count: int
    window_means: tuple[float, ...] | None  # None when saturated or under 4 post-warmup slots
    verdict: str | None  # stability_verdict(window_means), None with it
    arrivals1: int = 0
    arrivals2: int = 0
    q1_final: int = 0
    q2_final: int = 0
    trace: tuple[tuple, ...] = field(default_factory=tuple)


def _arrival_array(kind: str, lam: float, horizon: int, rng: np.random.Generator) -> np.ndarray:
    if kind == BERNOULLI:
        return (rng.random(horizon) < lam).astype(np.int64)
    return rng.poisson(lam, horizon).astype(np.int64)


def stability_verdict(window_means: tuple[float, ...]) -> str:
    """Stable / unstable / inconclusive from the means of 4 equal post-warmup windows.

    Monotone growth to >3x the first window and past 50 packets reads as
    unstable, a flat tail as stable; runs near the region boundary can
    legitimately come back inconclusive.
    """
    w0, w3 = window_means[0], window_means[-1]
    increasing = all(a < b for a, b in zip(window_means, window_means[1:]))
    if increasing and w3 > 3.0 * w0 and w3 > 50.0:
        return "unstable"
    if w3 < 2.0 * w0 + 1e-9 and w3 <= 10.0 * w0 + 1e-9:
        return "stable"
    return "inconclusive"


def run(config: SimConfig) -> Metrics:
    """Execute the slot contract for `horizon` slots."""
    H, warmup = config.horizon, config.warmup
    rng = np.random.default_rng(config.seed)
    c1s, c2s = ch.generate_paths(config.channel, H, rng)
    a1s = _arrival_array(config.arrival_kind, config.lambda1, H, rng)
    a2s = _arrival_array(config.arrival_kind, config.lambda2, H, rng)
    c1s, c2s, a1s, a2s = c1s.tolist(), c2s.tolist(), a1s.tolist(), a2s.tolist()

    cfg_pol = config.policy
    kind = cfg_pol.kind
    saturated = config.saturated
    epsilon = config.channel.epsilon
    # per-slot myopic weighs the current queues: a frame of one slot
    T = 1 if kind == "myopic" and not cfg_pol.frame_based else cfg_pol.T

    table: tuple[int, ...] | None = None
    if kind == "fixed_table":
        table = cfg_pol.table
    elif kind == "fixed_corner":
        table = pol.CORNER_TABLES[cfg_pol.corner]
    if kind == "myopic":
        sigma = pol.myopic_credit(config.channel, cfg_pol.k)
        myopic_action = pol.myopic_action

    m = config.m0
    q1 = q2 = 0
    d1 = d2 = 0
    d1_post = d2_post = 0
    switch_count = 0
    arrivals1 = arrivals2 = 0
    gate = 0
    just_arrived = True
    q1_frame = q2_frame = 0

    n_post = H - warmup
    qsum = 0
    win_len = n_post // 4
    win_sums = [0, 0, 0, 0]
    trace_rows: list[tuple] = []
    trace_every = config.trace_every

    for t in range(H):
        c1 = c1s[t]
        c2 = c2s[t]

        if kind in ("fbdc", "myopic") and t % T == 0:
            q1_frame, q2_frame = q1, q2
            if kind == "fbdc":
                table = pol.fbdc_frame_start(epsilon, q1_frame, q2_frame)

        # stage 2: observe and decide
        if table is not None:
            action = table[(m - 1) * 4 + (1 - c1) * 2 + (1 - c2)]
        elif kind == "myopic":
            action = myopic_action(sigma, m, c1, c2, q1_frame, q2_frame)
        elif kind == "gated":
            if just_arrived:
                gate = q1 if m == 1 else q2
                just_arrived = False
            action = STAY if gate > 0 else SWITCH
        else:  # exhaustive
            action = STAY if (q1 if m == 1 else q2) > 0 else SWITCH

        post = t >= warmup
        if post:
            qsum += q1 + q2
            k = t - warmup
            if k < 4 * win_len:
                win_sums[k // win_len] += q1 + q2

        # stage 3: serve or switch
        dep1 = dep2 = 0
        if action == STAY:
            if m == 1 and c1 == 1 and (saturated or q1 > 0):
                dep1 = 1
            elif m == 2 and c2 == 1 and (saturated or q2 > 0):
                dep2 = 1
        if trace_every and t % trace_every == 0:
            trace_rows.append((t, m, c1, c2, q1, q2, action, dep1, dep2))
        if dep1 or dep2:
            d1 += dep1
            d2 += dep2
            if post:
                d1_post += dep1
                d2_post += dep2
            if not saturated:
                q1 -= dep1
                q2 -= dep2
            if kind == "gated":
                gate -= 1
        if action != STAY:
            m = 3 - m
            switch_count += 1
            if kind == "gated":
                just_arrived = True

        # stage 4: arrivals
        if not saturated:
            a1 = a1s[t]
            a2 = a2s[t]
            q1 += a1
            q2 += a2
            arrivals1 += a1
            arrivals2 += a2

    window_means: tuple[float, ...] | None = None
    verdict: str | None = None
    if not saturated and win_len >= 1:
        window_means = tuple(s / win_len for s in win_sums)
        verdict = stability_verdict(window_means)
    return Metrics(
        q_avg=qsum / n_post,
        rate1=d1_post / n_post,
        rate2=d2_post / n_post,
        d1=d1,
        d2=d2,
        switch_count=switch_count,
        window_means=window_means,
        verdict=verdict,
        arrivals1=arrivals1,
        arrivals2=arrivals2,
        q1_final=q1,
        q2_final=q2,
        trace=tuple(trace_rows),
    )


def saturated_rate(
    policy_table: tuple[int, ...], epsilon: float, horizon: int, seed: int, warmup: int = 0
) -> tuple[float, float]:
    """Empirical departure-rate pair of a fixed table with infinite backlog."""
    config = SimConfig(
        lambda1=0.0,
        lambda2=0.0,
        channel=ch.gilbert_elliott(epsilon),
        policy=pol.PolicyConfig("fixed_table", table=tuple(policy_table)),
        horizon=warmup + horizon,
        warmup=warmup,
        seed=seed,
        saturated=True,
    )
    metrics = run(config)
    return metrics.rate1, metrics.rate2


def saturated_rates_batch(
    tables: list[tuple[int, ...]],
    epsilon: float,
    horizon: int,
    seed: int,
    warmup: int = 0,
    m0: int = 1,
) -> np.ndarray:
    """Empirical saturated rates of many tables over one shared channel path.

    The channels are exogenous, so a single path drives every table; only
    the server position differs per table.  Vectorizing across tables keeps
    the 256-policy oracle check within its runtime budget.
    """
    rng = np.random.default_rng(seed)
    total = warmup + horizon
    c1s, c2s = ch.generate_paths(ch.gilbert_elliott(epsilon), total, rng)
    cidx = ((1 - c1s.astype(np.int64)) * 2 + (1 - c2s.astype(np.int64))).tolist()
    c1_list = c1s.tolist()
    c2_list = c2s.tolist()

    tab = np.asarray(tables, dtype=np.int64)
    n = tab.shape[0]
    rows = np.arange(n)
    m = np.full(n, m0, dtype=np.int64)
    acc1 = np.zeros(n, dtype=np.int64)
    acc2 = np.zeros(n, dtype=np.int64)

    for t in range(total):
        s = (m - 1) * 4 + cidx[t]
        stay = tab[rows, s] == 1
        if t >= warmup:
            if c1_list[t]:
                acc1 += stay & (m == 1)
            if c2_list[t]:
                acc2 += stay & (m == 2)
        m = np.where(stay, m, 3 - m)
    return np.stack([acc1, acc2], axis=1) / float(horizon)

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
from math import isqrt

import numpy as np

from . import channels as ch
from . import policies as pol
from .mdp import STAY, SWITCH, state_index

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
        if self.saturated and self.trace_every:
            raise ValueError("saturated runs write no trace rows")
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

    cfg_pol = config.policy
    kind = cfg_pol.kind
    epsilon = config.channel.epsilon
    # per-slot myopic weighs the current queues: a frame of one slot
    T = 1 if kind == "myopic" and not cfg_pol.frame_based else cfg_pol.T

    table: tuple[int, ...] | None = None
    if kind == "fixed_table":
        table = cfg_pol.table
    elif kind == "fixed_corner":
        table = pol.CORNER_TABLES[cfg_pol.corner]
    if config.saturated:  # infinite backlog: the saturated engine below replaces the slot loop
        luts, x = _saturated_luts([table]), state_index(1, c1s, c2s)
        state, warm = _saturated_path(luts, x[:warmup], np.array([config.m0 - 1]))
        post = _saturated_path(luts, x[warmup:], state)[1][:, 0].tolist()
        d1, d2, switches = (warm[:, 0] + post).tolist()
        n_post = H - warmup
        return Metrics(q_avg=0 / n_post, rate1=post[0] / n_post, rate2=post[1] / n_post, d1=d1, d2=d2,
                       switch_count=switches, window_means=None, verdict=None)
    a1s = _arrival_array(config.arrival_kind, config.lambda1, H, rng)
    a2s = _arrival_array(config.arrival_kind, config.lambda2, H, rng)
    c1s, c2s, a1s, a2s = c1s.tolist(), c2s.tolist(), a1s.tolist(), a2s.tolist()

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
            if m == 1 and c1 == 1 and q1 > 0:
                dep1 = 1
            elif m == 2 and c2 == 1 and q2 > 0:
                dep2 = 1
        if trace_every and t % trace_every == 0:
            trace_rows.append((t, m, c1, c2, q1, q2, action, dep1, dep2))
        if dep1 or dep2:
            d1 += dep1
            d2 += dep2
            if post:
                d1_post += dep1
                d2_post += dep2
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
        a1 = a1s[t]
        a2 = a2s[t]
        q1 += a1
        q2 += a2
        arrivals1 += a1
        arrivals2 += a2

    window_means: tuple[float, ...] | None = None
    verdict: str | None = None
    if win_len >= 1:
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
    the server position differs per table.  The saturated engine below
    steps all tables side by side, a block of slots per lookup.
    """
    rng = np.random.default_rng(seed)
    c1s, c2s = ch.generate_paths(ch.gilbert_elliott(epsilon), warmup + horizon, rng)
    x, luts = state_index(1, c1s, c2s), _saturated_luts(tables)
    state, _ = _saturated_path(luts, x[:warmup], 2 * np.arange(len(tables)) + (m0 - 1))
    return np.stack(_saturated_path(luts, x[warmup:], state)[1][:2], axis=1) / float(horizon)


# ---------------------------------------------------------------------------
# saturated engine
#
# The channels never depend on the server, so under a fixed table the server
# position is a 2-state automaton driven by the channel symbol
# state_index(1, c1, c2) = (1-c1)*2 + (1-c2).  A state j*2 + m-1 is table j
# at queue m.  For every code of _BLOCK symbols (first slot most significant)
# and every state, the lookup tables give the state after the block and its
# counts packed as d1 + 2**8*d2 + 2**16*switches.

_BLOCK = 4
_ROWS = 4096  # states stepped side by side
_FLUSH = 16  # lookups between count unpackings; _FLUSH * _BLOCK < 2**8


def _saturated_luts(tables: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables indexed code * n_states + state; code 4**_BLOCK + symbol steps one slot."""
    stay = np.asarray(tables).reshape(-1, 2, 4).transpose(2, 0, 1) == STAY  # [symbol, table, m-1]
    m, x = np.arange(2), np.arange(4)[:, None, None]
    nxt1 = (2 * np.arange(stay.shape[1])[:, None] + np.where(stay, m, 1 - m)).reshape(4, -1).astype(np.int16)
    cnt1 = (stay & (m == 0) & (x < 2)) + (stay & (m == 1) & (x % 2 == 0)) * 2**8 + ~stay * 2**16
    cnt1 = cnt1.reshape(4, -1).astype(np.int32)
    nxt, cnt = nxt1, cnt1
    for _ in range(_BLOCK - 1):  # one slot more: code -> code * 4 + symbol
        cnt = (cnt[:, None] + cnt1[:, nxt].swapaxes(0, 1)).reshape(-1, nxt.shape[1])
        nxt = nxt1[:, nxt].swapaxes(0, 1).reshape(cnt.shape)
    return np.concatenate([nxt.ravel(), nxt1.ravel()]), np.concatenate([cnt.ravel(), cnt1.ravel()])


def _saturated_steps(luts, state: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step every state through its symbols x (time first); return end states and (d1, d2, switches)."""
    nxt, cnt = luts
    n_blocks = len(x) // _BLOCK
    code = np.zeros((n_blocks, *x.shape[1:]), dtype=np.int64)
    for i in range(_BLOCK):
        code = code * 4 + x[i : n_blocks * _BLOCK : _BLOCK]
    offsets = np.concatenate([code, 4**_BLOCK + x[n_blocks * _BLOCK :].astype(np.int64)])
    offsets *= len(nxt) // (4**_BLOCK + 4)
    counts = np.zeros((3, *state.shape), dtype=np.int64)
    for k in range(0, len(offsets), _FLUSH):
        span = offsets[k : k + _FLUSH]
        idx = np.empty((len(span), *state.shape), dtype=np.int64)
        for offset, row in zip(span, idx):
            np.add(state, offset, out=row)
            state = nxt[row]
        packed = cnt[idx].sum(axis=0)
        counts += np.stack([packed & 255, packed >> 8 & 255, packed >> 16])
    return state, counts


def _saturated_path(luts, x: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run one symbol path from each start state: chunks stepped side by side from every state, then chained."""
    n_states = len(luts[0]) // (4**_BLOCK + 4)
    n_chunks = max(1, min(isqrt(len(x) // _BLOCK), _ROWS // n_states))
    length = len(x) // n_chunks // _BLOCK * _BLOCK
    every = np.repeat(np.arange(n_states)[None, :], n_chunks, axis=0)  # [chunk, state]
    chunks = x[: n_chunks * length].reshape(n_chunks, length).T[..., None]  # [slot, chunk, 1]
    ends, chunk_counts = _saturated_steps(luts, every, chunks)
    state, counts = start, np.zeros((3, len(start)), dtype=np.int64)
    for c in range(n_chunks):
        counts += chunk_counts[:, c, state]
        state = ends[c, state]
    state, rest = _saturated_steps(luts, state, x[n_chunks * length :])
    return state, counts + rest


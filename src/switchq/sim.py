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

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import isqrt

import numpy as np

from . import channels as ch
from . import policies as pol
from .mdp import ID_BITS, N_STATES, STAY, SWITCH, all_policies, policy_rates, state_index


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
    warmup: int | None = None
    saturated: bool = False
    trace_every: int = 0

    def __post_init__(self):
        if self.warmup is None:
            object.__setattr__(self, "warmup", self.horizon // 10)
        if not (0 <= self.lambda1 <= 1 and 0 <= self.lambda2 <= 1):  # Bernoulli arrivals; false for nan
            raise ValueError(f"arrival rates must lie in [0, 1], got lambda1={self.lambda1}, lambda2={self.lambda2}")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError("need horizon > warmup >= 0")
        if self.trace_every < 0:
            raise ValueError("trace_every must be nonnegative")
        if self.saturated and self.policy.kind != "fixed_table":
            raise ValueError("saturated mode supports fixed_table policies only")
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


def _marks(horizon: int, warmup: int) -> list[int]:
    """The slots before which a run notes its occupancy sum and queue lengths.

    They are the end of the warmup and the ends of the four equal windows
    after it (the first alone when a window would be empty); one more note
    is taken at the end of the run.
    """
    win_len = (horizon - warmup) // 4
    return [warmup + k * win_len for k in range(5 if win_len else 1)]


def _metrics(n_post: int, noted, switches: int, arrivals_pre, arrivals, trace=()) -> Metrics:
    """Metrics from a run's notes (occupancy sum, q1, q2) at its marks and at its end.

    The departures are the arrivals a queue no longer holds, taken at the
    end of the run and at the end of its warmup.
    """
    (sum_warm, *q_warm), (sum_end, *q_final) = noted[0], noted[-1]
    d1, d2 = arrivals[0] - q_final[0], arrivals[1] - q_final[1]
    d1_warm, d2_warm = arrivals_pre[0] - q_warm[0], arrivals_pre[1] - q_warm[1]
    win_len = n_post // 4
    window_means = None
    if win_len >= 1:
        window_means = tuple((b[0] - a[0]) / win_len for a, b in zip(noted[:4], noted[1:5]))
    return Metrics(
        q_avg=(sum_end - sum_warm) / n_post,
        rate1=(d1 - d1_warm) / n_post,
        rate2=(d2 - d2_warm) / n_post,
        d1=d1,
        d2=d2,
        switch_count=switches,
        window_means=window_means,
        verdict=stability_verdict(window_means) if window_means else None,
        arrivals1=arrivals[0],
        arrivals2=arrivals[1],
        q1_final=q_final[0],
        q2_final=q_final[1],
        trace=tuple(trace),
    )


# Per state index, whether the channel of the queue the server is at is ON (a staying server
# departs there); per slot byte of run(), the arrivals to queue 1 and to queue 2.
_ON = tuple((sum(policy_rates(np.eye(N_STATES), (STAY,) * N_STATES)) > 0).tolist())
_ARRIVED1, _ARRIVED2 = tuple(b >> 2 & 1 for b in range(16)), tuple(b >> 3 for b in range(16))


def run(config: SimConfig) -> Metrics:
    """Execute the slot contract for `horizon` slots, the server starting at queue 1.

    The slots are read one packed byte each, in segments between the slots
    where a run notes its marks, starts a frame or writes a trace row, so
    that no slot tests for them.
    """
    H, warmup = config.horizon, config.warmup
    rng = np.random.default_rng(config.seed)
    c1s, c2s = ch.generate_paths(config.channel, H, rng)

    cfg_pol = config.policy
    kind = cfg_pol.kind
    epsilon = config.channel.epsilon
    T, table = cfg_pol.T, cfg_pol.table
    if config.saturated:  # infinite backlog: the saturated engine below replaces the slot loop
        warm, post = (counts[:, 0].tolist() for counts in _saturated_split([table], state_index(1, c1s, c2s), warmup))
        d1, d2, switches = (w + p for w, p in zip(warm, post))
        n_post = H - warmup
        return Metrics(q_avg=0 / n_post, rate1=post[0] / n_post, rate2=post[1] / n_post, d1=d1, d2=d2,
                       switch_count=switches, window_means=None, verdict=None)
    arrived = next(ch.bit_chunks([rng], [[config.lambda1], [config.lambda2]], H, H))[:, 0]
    arrivals_pre, arrivals = arrived[:, :warmup].sum(axis=1).tolist(), arrived.sum(axis=1).tolist()
    # one byte per slot: the channel symbol state_index(1, c1, c2) in bits 0-1, the arrivals in bits 2 and 3
    bits = arrived.view(np.int8)
    slots = (state_index(1, c1s, c2s) | bits[0] << 2 | bits[1] << 3).astype(np.uint8).tobytes()

    myopic, gated, per_slot = kind == "myopic", kind == "gated", kind == "myopic" and T == 1
    if myopic:
        credit = pol.myopic_table(config.channel, cfg_pol.k)
        myopic_action = pol.myopic_action
    polling_action = pol.polling_action
    on, arrived1, arrived2 = _ON, _ARRIVED1, _ARRIVED2

    # segments end at the marks, at frame starts (per-slot myopic reads the current queues in
    # the loop instead) and around each traced slot
    trace_every = config.trace_every
    marks = _marks(H, warmup)
    cuts = {0, H, *marks}
    if kind == "fbdc" or (myopic and not per_slot):
        cuts.update(range(0, H, T))
    if trace_every:
        cuts.update(t + d for t in range(0, H, trace_every) for d in (0, 1) if t + d < H)
    cuts = sorted(cuts)
    marks = iter(marks)

    m4 = 0  # 4 * (m - 1) for the server at queue m, so that m4 | symbol is the state index
    q1 = q2 = qsum = 0  # qsum: occupancy summed over every slot so far
    w1 = w2 = 0  # myopic: the queue weights of the frame
    switch_count = 0
    gate = 0  # gated: packets found at the current queue on arrival and not yet served
    just_arrived = True
    mark, noted = next(marks), []
    trace_rows: list[tuple] = []

    for t0, t1 in zip(cuts, cuts[1:]):
        if t0 == mark:
            noted.append((qsum, q1, q2))
            mark = next(marks, -1)
        if t0 % T == 0:  # a frame start; every segment starts one when T = 1
            w1, w2 = q1, q2
            if kind == "fbdc":
                table = pol.fbdc_frame_start(epsilon, w1, w2)
        traced = trace_every and t0 % trace_every == 0
        if traced:
            m4_0, q1_0, q2_0, switches_0 = m4, q1, q2, switch_count

        for b in slots[t0:t1]:
            # stage 2: observe and decide
            s = m4 | b & 3
            if table is not None:
                action = table[s]
            elif myopic:
                if per_slot:
                    w1, w2 = q1, q2
                action = myopic_action(credit, s, w1, w2)
            elif gated:
                if just_arrived:
                    gate = q2 if m4 else q1
                    just_arrived = False
                action = polling_action(gate)
            else:  # exhaustive
                action = polling_action(q2 if m4 else q1)
            qsum += q1 + q2

            # stage 3: serve or switch
            if action == STAY:
                if on[s]:
                    if m4:
                        if q2:
                            q2 -= 1
                            gate -= 1
                    elif q1:
                        q1 -= 1
                        gate -= 1
            else:
                m4 ^= 4
                switch_count += 1
                just_arrived = True

            # stage 4: arrivals
            q1 += arrived1[b]
            q2 += arrived2[b]

        if traced:  # a segment of one slot: its action and departures from the state before and after it
            b = slots[t0]
            action = STAY if switch_count == switches_0 else SWITCH
            trace_rows.append((t0, 1 + (m4_0 >> 2), 1 - (b >> 1 & 1), 1 - (b & 1), q1_0, q2_0, action,
                               q1_0 + arrived1[b] - q1, q2_0 + arrived2[b] - q2))

    noted.append((qsum, q1, q2))
    return _metrics(H - warmup, noted, switch_count, arrivals_pre, arrivals, trace_rows)


# ---------------------------------------------------------------------------
# lock-step engine
#
# run_batch steps the cells of one policy together, a slot per iteration,
# with numpy arrays across the cells.  Each cell's server plays an action
# table for the slot: its fixed table, the corner table of its frame
# (fbdc), or the table that plays the slot's one action everywhere
# (myopic, gated, exhaustive).  A table is named by its policy id (its
# index in mdp.all_policies()), and the offset 8 * id + 4 * (m - 1) plus the
# channel symbol state_index(1, c1, c2) is the cell's entry in the step
# tables.  The policies of one action per slot keep id 0 in the offset,
# so that the entry before their decision is the state index itself.

MAX_BATCH_HORIZON = 2**31 - 1  # no count or sum of run_batch exceeds 2 * H * H, which stays below 2**63
_CHUNK_SYMBOLS = 2**16  # cells x slots of each stream held at once
_MIN_CHUNK = 1024  # slots per chunk, however many cells
_BLOCK_SYMBOLS = 2**13  # cells x slots per block of int64 rows, at least a slot: equal types skip ufunc casts


@lru_cache(maxsize=1)
def _step_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per state 8 * id + s of every policy: the service of queue 1 and of queue 2
    (given a packet), and 4 where the server switches."""
    tables = np.array(all_policies())
    serve = np.array(policy_rates(np.eye(N_STATES), tables[:, None]), dtype=np.int64)  # each state's departures
    return serve.reshape(2, -1), np.where(tables == STAY, 0, 4).ravel()


def _slot_rows(t0: int, paths: np.ndarray, arrivals: np.ndarray):
    """Slot by slot from a chunk indexed [channel or queue, cell, slot]: t, and the channel
    symbols and arrivals of every cell as int64 rows, widened a block of slots at a time."""
    block = max(1, _BLOCK_SYMBOLS // paths.shape[1])
    for b0 in range(0, paths.shape[2], block):
        c, a = (x[:, :, b0 : b0 + block].transpose(2, 0, 1).astype(np.int64) for x in (paths, arrivals))
        yield from zip(range(t0 + b0, t0 + b0 + len(c)), state_index(1, c[:, 0], c[:, 1]), a)


def run_batch(configs: list[SimConfig]) -> list[Metrics]:
    """run() of many configs at once: all cells step together, one slot per iteration.

    The configs may differ in lambda1, lambda2 and seed only, and none may
    trace or be saturated.  Each result equals run(config) field for field:
    a cell draws from its own seed in run()'s order (channel paths, then
    arrivals), in chunks of slots read at each stream's place in the seed's
    stream, so no cells x horizon array is held.  The decisions are the
    rules of policies, called on arrays.
    """
    if not configs:
        return []
    first = configs[0]
    for config in configs:
        if config.trace_every or config.saturated:
            raise ValueError("run_batch takes no traced or saturated runs")
        if replace(config, lambda1=first.lambda1, lambda2=first.lambda2, seed=first.seed) != first:
            raise ValueError("batched configs may differ in lambda1, lambda2 and seed only")
    H, warmup, n_cells = first.horizon, first.warmup, len(configs)
    if H > MAX_BATCH_HORIZON:  # run() has no such limit
        raise OverflowError("horizon too long for the lock-step engine's int64 sums")
    policy = first.policy
    kind, epsilon, T, table = policy.kind, first.channel.epsilon, policy.T, policy.table
    serve, switch4 = _step_tables()
    policy_id = int(np.dot(table, ID_BITS)) if table else 0  # fbdc sets its own at each frame start
    one_action = table is None and kind != "fbdc"
    offset = np.full(n_cells, 8 * policy_id)  # every server starts at queue 1
    if kind == "myopic":
        credit = tuple(np.array(row) for row in pol.myopic_table(first.channel, policy.k))
    gate, just_arrived = np.zeros(n_cells, dtype=np.int64), np.ones(n_cells, dtype=bool)

    size = min(H, max(_MIN_CHUNK, _CHUNK_SYMBOLS // n_cells))
    rngs = [np.random.default_rng(config.seed) for config in configs]
    paths = ch.path_chunks(first.channel, H, rngs, size)
    rates = [[config.lambda1 for config in configs], [config.lambda2 for config in configs]]
    # zip takes the first path chunk before the first arrival chunk, so the arrival streams start past the paths
    chunks = zip(range(0, H, size), paths, ch.bit_chunks(rngs, rates, H, size))

    q = np.zeros((2, n_cells), dtype=np.int64)
    weights = tuple(q)  # myopic: views of the current queues, which per-slot myopic (T = 1) weighs
    occupancy = q.copy()  # per queue, summed over every slot so far
    arrivals, arrivals_pre = q.copy(), q.copy()
    switches4 = np.zeros(n_cells, dtype=np.int64)
    index, dep = np.empty(n_cells, dtype=np.int64), np.empty((2, n_cells), dtype=np.int64)
    marks = iter(_marks(H, warmup))
    mark, noted = next(marks), []

    for t0, chunk_paths, chunk_arrivals in chunks:  # each indexed [channel or queue, cell, slot]
        arrivals += chunk_arrivals.sum(axis=2)
        arrivals_pre += chunk_arrivals[:, :, : max(0, warmup - t0)].sum(axis=2)
        for t, symbol, arrived in _slot_rows(t0, chunk_paths, chunk_arrivals):
            if t == mark:
                noted.append(np.vstack([occupancy.sum(axis=0), q]))
                mark = next(marks, -1)
            if kind == "fbdc" and t % T == 0:
                offset = 8 * (pol.fbdc_frame_start(epsilon, q[0], q[1]) @ ID_BITS) + (offset & 4)
            np.add(offset, symbol, out=index)
            if one_action:  # offset is 4 * (m - 1), so index is the state; the action picks its table
                if kind == "myopic":
                    if T > 1 and t % T == 0:
                        weights = tuple(q.copy())  # int64 * float64 gives the scalar rule's int * float
                    action = pol.myopic_action(credit, index, *weights)
                else:
                    counter = np.where(offset, q[1], q[0])
                    if kind == "gated":
                        counter = gate = np.where(just_arrived, counter, gate)
                    action = pol.polling_action(counter)
                index += 8 * 255 * action  # policy 255 stays everywhere, policy 0 switches
            occupancy += q

            np.minimum(q, serve.take(index, axis=1), out=dep)
            q -= dep
            flip = switch4.take(index)
            offset ^= flip
            switches4 += flip
            q += arrived
            if kind == "gated":
                gate -= dep[0] + dep[1]
                just_arrived = flip != 0

    noted.append(np.vstack([occupancy.sum(axis=0), q]))
    columns = zip(np.stack(noted).transpose(2, 0, 1).tolist(), (switches4 // 4).tolist(),
                  arrivals_pre.T.tolist(), arrivals.T.tolist())
    return [_metrics(H - warmup, *column) for column in columns]


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
) -> np.ndarray:
    """Empirical saturated rates of many tables over one shared channel path.

    The channels are exogenous, so a single path drives every table; only
    the server position, at queue 1 in the first slot, differs per table.  The saturated engine below
    steps all tables side by side, a block of slots per lookup.
    """
    c1s, c2s = ch.generate_paths(ch.gilbert_elliott(epsilon), warmup + horizon, np.random.default_rng(seed))
    return np.stack(_saturated_split(tables, state_index(1, c1s, c2s), warmup)[1][:2], axis=1) / float(horizon)


def saturated_frame_departures(table: tuple[int, ...], m: np.ndarray, x: np.ndarray) -> int:
    """Saturated departures of a fixed table summed over frames stepped side by side, frame f
    from queue m[f] through the channel symbols x[:, f] (time first)."""
    luts = _saturated_luts([table])
    return sum(int(_saturated_steps(luts, m[f : f + _ROWS] - 1, x[:, f : f + _ROWS])[1][:2].sum())
               for f in range(0, len(m), _ROWS))


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
    tables = np.asarray(tables)
    d1, d2 = policy_rates(np.eye(N_STATES), tables[:, None])  # each state's departures, [table, state]
    stay, d1, d2 = (a.reshape(-1, 2, 4).transpose(2, 0, 1) for a in (tables == STAY, d1, d2))  # [symbol, table, m-1]
    m = np.arange(2)
    nxt1 = (2 * np.arange(stay.shape[1])[:, None] + np.where(stay, m, 1 - m)).reshape(4, -1).astype(np.int16)
    cnt1 = (d1 + d2 * 2**8 + ~stay * 2**16).reshape(4, -1).astype(np.int32)
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


def _saturated_split(tables: list[tuple[int, ...]], x: np.ndarray, warmup: int) -> tuple[np.ndarray, np.ndarray]:
    """(d1, d2, switches) of each table over the symbols x[:warmup] and x[warmup:], every server from queue 1."""
    luts = _saturated_luts(tables)
    state, warm = _saturated_path(luts, x[:warmup], 2 * np.arange(len(tables)))
    return warm, _saturated_path(luts, x[warmup:], state)[1]

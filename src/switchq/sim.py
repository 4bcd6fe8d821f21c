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

import heapq
from dataclasses import dataclass, field, replace
from itertools import pairwise
from math import isqrt

import numpy as np

from . import channels as ch
from . import policies as pol
from .mdp import N_STATES, STAY, SWITCH, policy_rates, state_index


@dataclass(frozen=True)
class SimConfig:
    """All inputs of one simulation run; equal configs give bit-equal metrics.

    The first ``warmup`` slots (none by default) are dropped from every average.
    """

    lambda1: float
    lambda2: float
    channel: ch.ChannelModel
    policy: pol.PolicyConfig
    horizon: int
    seed: int
    warmup: int = 0
    saturated: bool = False
    trace_every: int = 0

    def __post_init__(self):
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
        if self.policy.kind in ("fbdc", "myopic") and self.channel.epsilon is None:
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


# ---------------------------------------------------------------------------
# step table, which both engines step
#
# A server plays one of K action tables in a slot: its fixed table (K = 1),
# its frame's table (fbdc, K = len(frame_tables), 7 or 5), or, for the
# policies of one action per slot (myopic, gated, exhaustive), the table that
# switches everywhere or the one that stays everywhere (K = 2, so that the
# stay bit is the entry's lowest bit and a decision adds it).  The slot is one
# integer entry K * (4 * s + a1 + 2 * a2) + k of the step table, for the state
# index s, the arrivals a1, a2 and the table k: the slot's packed byte
# K * (4 * symbol + a1 + 2 * a2) plus the server's offset 16 K (m - 1) + k.

MAX_BATCH_HORIZON = 2**31 - 1  # no count or sum of run_batch exceeds 2 * H * H, which stays below 2**63
_CHUNK_SYMBOLS = 2**16  # cells x slots of each stream held at once; past 64 cells the 1,024-slot floor holds more
_MIN_CHUNK = 1024  # slots per chunk, however many cells
_BLOCK_SYMBOLS = 2**13  # cells x slots per block of int64 rows, at least a slot: equal types skip ufunc casts
# run's polling skip sums stretches of _SKIP_MIN to _SKIP_MAX certain stays, weighing the j-th of n by the n - 1 - j
# slots after it (_SKIP_WEIGHTS' last n rows); elsewhere its slot loop tests the gate after _GATE_TEST_FIRST slots,
# doubling to _GATE_TEST_LAST.  On a 2-vCPU Xeon a sum takes 3.4 us at 64 slots and 6.8 us at 512 (12 kB), the loop
# 130 ns a slot.  Paired runs of the iid suite's 100k-slot cells: loads 0.6-0.9 ran 1-2% slower testing every 64, 256
# or 1024 slots, within noise doubling; loads 1.1 and 1.2 took 24-30% of their time (30-52% testing every 1024).
_SKIP_MIN, _SKIP_MAX, _GATE_TEST_FIRST, _GATE_TEST_LAST = 32, 512, 64, 4096
_SKIP_WEIGHTS = np.stack([np.ones(_SKIP_MAX, np.int64), np.arange(_SKIP_MAX)[::-1]], axis=1)
# run's table of fbdc_frame_start for queues below 64, a 32 kB list built in about 0.2 ms: in 100k-slot fbdc T=1 runs
# at epsilon 0.25 such queues start every frame at lambda = 0.2 or 0.25 a queue, 94% at 0.3 (all below 128)
_STARTS_MEMO = 64


def _step_table(tables: np.ndarray, kind: str, n_cells: int) -> np.ndarray:
    """The rows of the step table (see above) for the action tables stacked in `tables`, a column per entry.

    The first rows are added to a cell's state: the changes a - service of q1 and q2 (service given a packet), for
    gated and exhaustive those of h and the queue index (+-n_cells a switch), then those of the offset (+-16 K a
    switch) and the switch count.  The rest, a1 and a2, bound the new q1 and q2 from below: q - min(q, service) + a
    is max(q + a - service, a).  Gated and exhaustive serve no empty queue; their last row, 1 - switched, clears h
    on a switch.  The queue index, cell plus n_cells at queue 2, reads the server's queue from q1 and q2 stacked;
    h counts the arrivals there since the server came (gated's gate is that queue less h, exhaustive's h is 0).
    """
    K = len(tables)
    s, a2, a1, k = np.indices((N_STATES, 2, 2, K)).reshape(4, -1)  # in entry order
    serve1, serve2 = (np.array(d, dtype=np.int64)[k, s] for d in policy_rates(np.eye(N_STATES), tables[:, None]))
    switched = (tables[k, s] == SWITCH).astype(np.int64)
    away = np.where(s < 4, switched, -switched)  # to queue 2, or back to queue 1
    if kind not in ("gated", "exhaustive"):
        return np.array([a1 - serve1, a2 - serve2, 16 * K * away, switched, a1, a2])
    h = np.where(s < 4, a1, a2) if kind == "gated" else 0 * s
    return np.array([a1 - serve1, a2 - serve2, h, n_cells * away, 16 * K * away, switched, 1 - switched])


def _setup(config: SimConfig, n_cells: int):
    """Both engines' setup: K, the step table for n_cells cells, and as a list myopic's credit."""
    policy = config.policy
    if policy.kind == "fbdc":  # in frame_tables order: fbdc_frame_start's index is the table k
        tables = np.array(pol.frame_tables(config.channel.epsilon))
    else:
        tables = np.array([policy.table] if policy.table else [(SWITCH,) * N_STATES, (STAY,) * N_STATES])
    K = len(tables)
    credit = None
    if policy.kind == "myopic":
        credit = np.array(pol.myopic_table(config.channel, policy.k))[:, np.arange(32 * K) // (4 * K)].tolist()
    return K, _step_table(tables, policy.kind, n_cells), credit


def run(config: SimConfig) -> Metrics:
    """Execute the slot contract for `horizon` slots, the server starting at queue 1, as one cell of the step table.

    The slots' packed bytes are read in segments between the slots where a
    run notes its marks, starts a frame or writes a trace row, so that no
    slot tests for them.  A slot's entry is its byte plus the offset, plus
    the stay bit of myopic_action on the credit at the entry or of "the
    server's queue exceeds h"; its column moves q1, q2, h, the offset and
    the switch count in Python ints, each q as max(q + change, a), or as
    q + change for gated and exhaustive, which serve no empty queue.

    Gated and exhaustive sum the stays their gate makes certain, in exact integers, so a polling cell's cost
    falls with load past 1 (see _SKIP_MIN).  fbdc reads the frame starts of small queues from a table.
    """
    H, warmup = config.horizon, config.warmup
    rng = np.random.default_rng(config.seed)
    c1s, c2s = ch.generate_paths(config.channel, H, rng)
    policy, epsilon = config.policy, config.channel.epsilon
    kind, T, table = policy.kind, policy.T, policy.table
    if config.saturated:  # infinite backlog: the saturated engine below replaces the slot loop
        warm, post = (counts[:, 0].tolist() for counts in _saturated_split([table], state_index(1, c1s, c2s), warmup))
        d1, d2, switches = (w + p for w, p in zip(warm, post))
        n_post = H - warmup
        return Metrics(q_avg=0 / n_post, rate1=post[0] / n_post, rate2=post[1] / n_post, d1=d1, d2=d2,
                       switch_count=switches, window_means=None, verdict=None)
    K, steps, credit = _setup(config, 1)
    packed, arrivals_pre, arrivals = np.empty(H, np.int8), np.zeros(2, np.int64), np.zeros(2, np.int64)
    draws = ch.bit_chunks([rng], [[config.lambda1], [config.lambda2]], H, _CHUNK_SYMBOLS)
    for t0, arrived in zip(range(0, H, _CHUNK_SYMBOLS), draws):
        a = arrived[:, 0].view(np.int8)
        t1 = t0 + a.shape[1]
        arrivals += a.sum(axis=1)
        arrivals_pre += a[:, : max(0, warmup - t0)].sum(axis=1)
        packed[t0:t1] = K * (4 * state_index(1, c1s[t0:t1], c2s[t0:t1]) + a[0] + 2 * a[1])
    del c1s, c2s  # the paths go before the bytes come, so that the peak stays at 3 B a slot
    slots = packed.tobytes()

    myopic, polling, per_slot = kind == "myopic", kind in ("gated", "exhaustive"), kind in ("fbdc", "myopic") and T == 1
    # per entry, the changes of q1, q2, h (if polling), the offset and the switch count, then a1 and a2 (if not)
    columns = list(map(tuple, (steps[[0, 1, 2, 4, 5]] if polling else steps).T.tolist()))
    myopic_action = pol.myopic_action
    if kind == "fbdc":  # at q1 * _STARTS_MEMO + q2, by the array rule, which gives the scalar rule's indices
        starts = pol.fbdc_frame_start(epsilon, *np.divmod(np.arange(_STARTS_MEMO**2), _STARTS_MEMO)).tolist()

    def frame_start(q1, q2):
        if q1 < _STARTS_MEMO and q2 < _STARTS_MEMO:
            return starts[q1 * _STARTS_MEMO + q2]
        return pol.fbdc_frame_start(epsilon, q1, q2)

    # segments end at the marks, at frame starts (not at frames of one slot) and around each traced slot
    cuts = [(0, H), _marks(H, warmup)]
    if kind in ("fbdc", "myopic") and not per_slot:
        cuts.append(range(0, H, T))
    if config.trace_every:
        cuts.append(t + d for t in range(0, H, config.trace_every) for d in (0, 1) if t + d < H)
    marks = iter(cuts[1])

    offset = 0  # 16 K (m - 1) + k for the server at queue m playing table k
    q1 = q2 = h = qsum = 0  # qsum: occupancy summed over every slot so far
    switch_count = 0
    stride = _GATE_TEST_FIRST  # polling: slots to the next gate test
    mark, noted = next(marks), []
    trace_rows: list[tuple] = []

    for t0, t1 in pairwise(heapq.merge(*cuts)):
        if t0 == t1:  # a cut made twice (skipped here, not dropped by groupby, which costs about 100 ns a cut)
            continue
        if t0 == mark:
            noted.append((qsum, q1, q2))
            mark = next(marks, -1)
        if t0 % T == 0 and not per_slot:  # a frame start
            w1, w2 = q1, q2  # myopic's weights, the frame's first queues
            if kind == "fbdc":  # keep the server's queue, play the frame's corner
                offset += frame_start(w1, w2) - offset % K
        traced = config.trace_every and t0 % config.trace_every == 0
        if traced:
            offset_0, q1_0, q2_0, switches_0 = offset, q1, q2, switch_count

        if polling:  # stay iff the gate, the server's queue less h, holds a packet (h stays 0 for exhaustive)
            t = t0
            while t < t1:
                n = min((q2 if offset else q1) - h, t1 - t, _SKIP_MAX)
                if n >= _SKIP_MIN:  # a stay drops the gate by at most 1, so the next n slots all stay
                    moves = steps[:3, offset + 1 :].take(packed[t : t + n], axis=1) @ _SKIP_WEIGHTS[-n:]
                    (dq1, later1), (dq2, later2), (dh, _) = moves.tolist()
                    qsum += n * (q1 + q2) + later1 + later2
                    q1, q2, h, t, stride = q1 + dq1, q2 + dq2, h + dh, t + n, _GATE_TEST_FIRST
                    continue
                stride_end = min(t + stride, t1)
                for b in slots[t:stride_end]:
                    qsum += q1 + q2
                    dq1, dq2, dh, doffset, switched = columns[offset + b + ((q2 if offset else q1) > h)]
                    q1 += dq1
                    q2 += dq2
                    h = 0 if switched else h + dh
                    offset += doffset
                    switch_count += switched
                t, stride = stride_end, min(2 * stride, _GATE_TEST_LAST)
        else:
            for b in slots[t0:t1]:
                if per_slot:  # frames of one slot weigh the current queues
                    w1, w2 = q1, q2
                    if kind == "fbdc":
                        offset += frame_start(q1, q2) - offset % K
                e = offset + b
                if myopic:
                    e += myopic_action(credit, e, w1, w2)
                qsum += q1 + q2
                dq1, dq2, doffset, switched, a1, a2 = columns[e]
                q1 += dq1
                if q1 < a1:
                    q1 = a1
                q2 += dq2
                if q2 < a2:
                    q2 = a2
                offset += doffset
                switch_count += switched

        if traced:  # a segment of one slot: its action and departures from the state before and after it
            x = slots[t0] // K  # 4 * symbol + a1 + 2 * a2
            action = STAY if switch_count == switches_0 else SWITCH
            trace_rows.append((t0, 1 + offset_0 // (16 * K), 1 - (x >> 3), 1 - (x >> 2 & 1), q1_0, q2_0, action,
                               q1_0 + (x & 1) - q1, q2_0 + (x >> 1 & 1) - q2))

    noted.append((qsum, q1, q2))
    return _metrics(H - warmup, noted, switch_count, arrivals_pre.tolist(), arrivals.tolist(), trace_rows)


def run_batch(configs: list[SimConfig]) -> list[Metrics]:
    """run() of many configs at once: all cells step run()'s step table together, a slot per iteration, as numpy rows.

    The configs may differ in lambda1, lambda2 and seed only, and none may
    trace or be saturated.  Each result equals run(config) field for field:
    a cell draws from its own seed in run()'s order (channel paths, then
    arrivals), in chunks of slots read at each stream's place in the seed's
    stream, so no cells x horizon array is held.  The stay bits come from
    the cells' rows: myopic_action's comparison of the weighted credit, and
    for gated and exhaustive the server's queue, read through a queue index.
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
    kind, epsilon, T = first.policy.kind, first.channel.epsilon, first.policy.T
    myopic, polling = kind == "myopic", kind in ("gated", "exhaustive")
    frames = kind == "fbdc" or (myopic and T > 1)
    K, steps, credit = _setup(first, n_cells)
    credit = np.array(credit, dtype=float)  # nan but for myopic

    size = min(H, max(_MIN_CHUNK, _CHUNK_SYMBOLS // n_cells))
    rngs = [np.random.default_rng(config.seed) for config in configs]
    paths = ch.path_chunks(first.channel, H, rngs, size)
    rates = [[config.lambda1 for config in configs], [config.lambda2 for config in configs]]
    # zip takes the first path chunk before the first arrival chunk, so the arrival streams start past the paths
    chunks = zip(range(0, H, size), paths, ch.bit_chunks(rngs, rates, H, size))

    # state rows: q1, q2, then h and the queue index for gated and exhaustive, then the offset (the entry less
    # K * (4 * symbol + a1 + 2 * a2)) and the switch count; every server starts at queue 1 with table 0
    state = np.zeros((6 if polling else 4, n_cells), dtype=np.int64)
    q, offset = state[:2], state[-2]
    if polling:
        h, queue_index, q_flat = state[2], state[3], q.reshape(-1)
        queue_index += np.arange(n_cells)
    step = np.empty((len(steps), n_cells), dtype=np.int64)
    moves, arrived, keep = step[: len(state)], step[len(state) :], step[-1]  # keep: gated and exhaustive's 1 - switched
    entry, counter = np.empty(n_cells, dtype=np.int64), np.empty(n_cells, dtype=np.int64)
    stay = np.empty(n_cells, dtype=bool)
    weights = q.copy() if frames else q  # myopic: the frame-start queues, the current ones per slot
    weighed = np.empty((2, n_cells))
    weighed1, weighed2 = weighed
    occupancy = np.zeros((2, n_cells), dtype=np.int64)  # per queue, summed over every slot so far
    arrivals, arrivals_pre = occupancy.copy(), occupancy.copy()
    marks = iter(_marks(H, warmup))
    mark, frame, noted = next(marks), 0 if frames else H, []  # the next slot that notes a mark, and that starts a frame
    event = min(mark, frame)

    block = max(1, _BLOCK_SYMBOLS // n_cells)
    for t0, chunk_paths, chunk_arrivals in chunks:  # each indexed [channel or queue, cell, slot]
        arrivals += chunk_arrivals.sum(axis=2)
        arrivals_pre += chunk_arrivals[:, :, : max(0, warmup - t0)].sum(axis=2)
        chunk_arrivals = chunk_arrivals.view(np.int8)
        for b0 in range(0, chunk_paths.shape[2], block):
            c, a = chunk_paths[:, :, b0 : b0 + block], chunk_arrivals[:, :, b0 : b0 + block]
            packed = K * (4 * state_index(1, c[0], c[1]) + a[0] + 2 * a[1])  # int8 [cell, slot]
            rows = np.ascontiguousarray(packed.T, dtype=np.int64)
            for t, symbols in zip(range(t0 + b0, t0 + b0 + len(rows)), rows):
                if t == event:
                    if t == mark:
                        noted.append(np.vstack([occupancy.sum(axis=0), q]))
                        mark = next(marks, H)
                    if t == frame:
                        if myopic:
                            np.copyto(weights, q)
                        else:  # keep the server's queue, play the frame's corner
                            offset += pol.fbdc_frame_start(epsilon, q[0], q[1]) - offset % K
                        frame += T
                    event = min(mark, frame)
                np.add(offset, symbols, out=entry)
                if myopic:  # stay iff w1 * u >= w2 * v
                    credit.take(entry, axis=1, out=weighed, mode="clip")
                    np.multiply(weighed, weights, out=weighed)  # int64 * float64 gives the scalar rule's int * float
                    np.greater_equal(weighed1, weighed2, out=stay)
                    np.add(entry, stay, out=entry)
                elif polling:  # stay iff the gate, the server's queue less h, holds a packet
                    q_flat.take(queue_index, out=counter, mode="clip")
                    np.greater(counter, h, out=stay)
                    np.add(entry, stay, out=entry)
                np.add(occupancy, q, out=occupancy)
                steps.take(entry, axis=1, out=step, mode="clip")  # mode="raise" would buffer out
                np.add(state, moves, out=state)
                if polling:  # a switch clears h
                    np.multiply(h, keep, out=h)
                else:
                    np.maximum(q, arrived, out=q)

    noted.append(np.vstack([occupancy.sum(axis=0), q]))
    columns = zip(np.stack(noted).transpose(2, 0, 1).tolist(), state[-1].tolist(),
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

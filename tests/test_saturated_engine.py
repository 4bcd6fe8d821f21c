"""Property tests of the saturated engine against a per-slot transcription.

The reference below executes the slot contract of ``switchq.sim`` for a
fixed table with infinite backlog, one slot at a time: look up the action
of (m, C1, C2), serve the own queue on STAY when its channel is ON, or
switch and serve nothing.  Every engine entry point must reproduce its
counts exactly, for any channel path, table, start position and warm-up.
The public entry points start every server at queue 1; the private
``_saturated_steps`` and ``_saturated_path`` are run from both queues.
"""

import numpy as np
import pytest

from switchq import channels as ch
from switchq import mdp
from switchq import policies as pol
from switchq import sim

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

TABLES = st.tuples(*[st.integers(0, 1)] * 8)
EPSILONS = st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.45, 0.5])
SEEDS = st.integers(0, 2**31 - 1)


def reference(table, c1s, c2s, m0, warmup=0):
    """(d1, d2, switches) before and after `warmup`, one slot at a time."""
    m, counts = m0, [[0, 0, 0], [0, 0, 0]]
    for t, (c1, c2) in enumerate(zip(c1s, c2s)):
        phase = counts[t >= warmup]
        if table[mdp.state_index(m, c1, c2)] == mdp.STAY:
            phase[0] += m == 1 and c1 == 1
            phase[1] += m == 2 and c2 == 1
        else:
            phase[2] += 1
            m = 3 - m
    return counts


def paths(eps, seed, horizon):
    c1s, c2s = ch.generate_paths(ch.gilbert_elliott(eps), horizon, np.random.default_rng(seed))
    return c1s.tolist(), c2s.tolist()


@settings(max_examples=150, deadline=None)
@given(st.lists(TABLES, min_size=1, max_size=12), EPSILONS, SEEDS, st.integers(1, 300), st.integers(0, 60))
def test_batch_equals_per_slot_reference(tables, eps, seed, horizon, warmup):
    rates = sim.saturated_rates_batch(tables, eps, horizon=horizon, seed=seed, warmup=warmup)
    c1s, c2s = paths(eps, seed, warmup + horizon)
    for table, row in zip(tables, rates):
        _, (d1, d2, _) = reference(table, c1s, c2s, 1, warmup)
        assert row.tolist() == [d1 / horizon, d2 / horizon]


@settings(max_examples=150, deadline=None)
@given(st.lists(TABLES, min_size=1, max_size=12), EPSILONS, SEEDS, st.integers(1, 300), st.integers(0, 60))
def test_path_from_either_queue_equals_per_slot_reference(tables, eps, seed, horizon, warmup):
    # saturated_rates_batch's two chained paths, every table started at queue 1 and at queue 2
    c1s, c2s = paths(eps, seed, warmup + horizon)
    x, luts = mdp.state_index(1, np.array(c1s), np.array(c2s)), sim._saturated_luts(tables)
    start = np.arange(2 * len(tables))  # state j * 2 + m - 1: table j at queue m
    state, warm = sim._saturated_path(luts, x[:warmup], start)
    _, post = sim._saturated_path(luts, x[warmup:], state)
    for s in start.tolist():
        assert [warm[:, s].tolist(), post[:, s].tolist()] == reference(tables[s // 2], c1s, c2s, s % 2 + 1, warmup)


@settings(max_examples=150, deadline=None)
@given(TABLES, EPSILONS, SEEDS, st.integers(1, 300), st.data())
def test_saturated_run_equals_per_slot_reference(table, eps, seed, horizon, data):
    warmup = data.draw(st.integers(0, horizon - 1))
    config = sim.SimConfig(lambda1=0.0, lambda2=0.0, channel=ch.gilbert_elliott(eps),
                           policy=pol.PolicyConfig("fixed_table", table=table),
                           horizon=horizon, warmup=warmup, seed=seed, saturated=True)
    metrics = sim.run(config)
    warm, post = reference(table, *paths(eps, seed, horizon), 1, warmup)
    n_post = horizon - warmup
    assert (metrics.rate1, metrics.rate2) == (post[0] / n_post, post[1] / n_post)
    assert (metrics.d1, metrics.d2, metrics.switch_count) == tuple(w + p for w, p in zip(warm, post))
    assert metrics.q_avg == 0.0 and metrics.verdict is None


@settings(max_examples=150, deadline=None)
@given(TABLES, st.integers(1, 40), st.integers(0, 30), SEEDS)
def test_frames_as_rows_equal_per_slot_reference(table, n_frames, length, seed):
    # throughput_gap's shape: every row runs its own path from its own start
    rng = np.random.default_rng(seed)
    c1s, c2s = rng.integers(0, 2, (2, length, n_frames), dtype=np.int8)
    m0 = rng.integers(1, 3, n_frames)
    ends, counts = sim._saturated_steps(sim._saturated_luts([table]), m0 - 1, mdp.state_index(1, c1s, c2s))
    for f in range(n_frames):
        _, expected = reference(table, c1s[:, f].tolist(), c2s[:, f].tolist(), int(m0[f]))
        assert counts[:, f].tolist() == expected
    # the end position is the start flipped once per switch
    assert ((ends + counts[2]) % 2 == (m0 - 1) % 2).all()


@settings(max_examples=100, deadline=None)
@given(TABLES, st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=300),
       st.integers(1, 2))
def test_mirror_policy_on_swapped_paths_swaps_rates(table, path, m0):
    c1s, c2s = (np.array(c, dtype=np.int8) for c in zip(*path))
    luts = sim._saturated_luts([table, mdp.mirror_policy(table)])
    _, own = sim._saturated_path(luts, mdp.state_index(1, c1s, c2s), np.array([m0 - 1]))
    _, mirrored = sim._saturated_path(luts, mdp.state_index(1, c2s, c1s), np.array([2 + (3 - m0) - 1]))
    assert own[:, 0].tolist() == [mirrored[1, 0], mirrored[0, 0], mirrored[2, 0]]
    assert own[:, 0].tolist() == reference(table, c1s.tolist(), c2s.tolist(), m0)[1]


def test_saturated_run_rejects_trace_rows():
    with pytest.raises(ValueError, match="trace"):
        sim.SimConfig(lambda1=0.0, lambda2=0.0, channel=ch.gilbert_elliott(0.25),
                      policy=pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b2"]),
                      horizon=100, seed=0, saturated=True, trace_every=1)

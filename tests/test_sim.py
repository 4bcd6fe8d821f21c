import dataclasses

import numpy as np
import pytest
from oracles import slot_loop_run

from switchq import channels as ch
from switchq import mdp
from switchq import policies as pol
from switchq import sim

GE25 = ch.gilbert_elliott(0.25)


def make_config(**overrides):
    base = dict(
        lambda1=0.2,
        lambda2=0.2,
        channel=GE25,
        policy=pol.PolicyConfig("exhaustive"),
        horizon=20_000,
        seed=42,
    )
    base.update(overrides)
    base.setdefault("warmup", base["horizon"] // 10)  # these runs drop a tenth of the horizon unless told
    return sim.SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(lambda1=1.5)  # bernoulli cap
    with pytest.raises(ValueError):
        make_config(lambda2=float("nan"))
    with pytest.raises(ValueError):
        make_config(warmup=20_000)
    with pytest.raises(ValueError):
        make_config(saturated=True)  # needs a fixed table
    with pytest.raises(ValueError):
        make_config(policy=pol.PolicyConfig("fbdc", T=25), channel=ch.iid(0.5, 0.5))


def test_determinism_bitwise():
    a = sim.run(make_config(policy=pol.PolicyConfig("fbdc", T=25), trace_every=500))
    b = sim.run(make_config(policy=pol.PolicyConfig("fbdc", T=25), trace_every=500))
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_seed_changes_the_run():
    a = sim.run(make_config())
    b = sim.run(make_config(seed=43))
    assert a.q_avg != b.q_avg


@pytest.mark.parametrize("policy", [
    pol.PolicyConfig("exhaustive"),
    pol.PolicyConfig("gated"),
    pol.PolicyConfig("fbdc", T=25),
    pol.PolicyConfig("myopic", T=25, k=1),
    pol.PolicyConfig("myopic", T=1, k=2),
    pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b2"]),
])
def test_queue_conservation(policy):
    metrics = sim.run(make_config(policy=policy, lambda2=0.3))
    assert metrics.q1_final == metrics.arrivals1 - metrics.d1
    assert metrics.q2_final == metrics.arrivals2 - metrics.d2
    assert metrics.q1_final >= 0 and metrics.q2_final >= 0


def test_empty_system():
    metrics = sim.run(make_config(lambda1=0.0, lambda2=0.0))
    assert metrics.q_avg == 0.0
    assert metrics.d1 == metrics.d2 == 0
    # idle exhaustive cycling: a switch every slot
    assert metrics.switch_count == 20_000


def test_unstable_flag_set_on_overloaded_run():
    metrics = sim.run(make_config(lambda1=0.4, lambda2=0.4, horizon=60_000))
    assert metrics.verdict == "unstable"
    calm = sim.run(make_config(lambda1=0.1, lambda2=0.1))
    assert calm.verdict == "stable"


def test_stability_probe_overloaded_system():
    metrics = sim.run(make_config(lambda1=0.4, lambda2=0.4, horizon=60_000))
    means = metrics.window_means
    assert len(means) == 4
    assert all(a < b for a, b in zip(means, means[1:]))
    assert sim.stability_verdict(means) == "unstable"


def test_switch_everywhere_serves_nothing():
    cfg = make_config(policy=pol.PolicyConfig("fixed_table", table=(0,) * 8), lambda1=0.4, lambda2=0.4)
    metrics = sim.run(cfg)
    assert metrics.rate1 == metrics.rate2 == 0.0
    assert metrics.switch_count == cfg.horizon


def test_trace_rows_respect_the_slot_contract():
    cfg = make_config(policy=pol.PolicyConfig("fbdc", T=10), horizon=4000, trace_every=1,
                      lambda1=0.25, lambda2=0.25)
    metrics = sim.run(cfg)
    rows = metrics.trace
    assert len(rows) == cfg.horizon
    prev_m = 1  # every run starts at queue 1
    for slot, m, c1, c2, q1, q2, action, dep1, dep2 in rows:
        assert m == prev_m  # trace reports the observed position
        if dep1:
            assert m == 1 and c1 == 1 and action == mdp.STAY and q1 > 0
        if dep2:
            assert m == 2 and c2 == 1 and action == mdp.STAY and q2 > 0
        if action == mdp.SWITCH:
            assert dep1 == dep2 == 0
        prev_m = m if action == mdp.STAY else 3 - m


def test_departures_only_when_connected():
    cfg = make_config(policy=pol.PolicyConfig("exhaustive"), horizon=5000, trace_every=1)
    rows = sim.run(cfg).trace
    assert any(r[7] or r[8] for r in rows)
    for r in rows:
        c_here = r[2] if r[1] == 1 else r[3]
        if r[7] or r[8]:
            assert c_here == 1


def test_saturated_stay_everywhere_rates():
    r1, r2 = sim.saturated_rate((1,) * 8, 0.25, horizon=1_000_000, seed=5)
    assert abs(r1 - 0.5) < 2e-3
    assert r2 == 0.0


def test_saturated_corner_rates_match_analytics():
    kernel = mdp.build_kernel(0.25)
    for corner in ("b0", "b2"):
        table = pol.CORNER_TABLES[corner]
        exact = mdp.policy_rates(mdp.stationary_distribution(kernel, table), table)
        emp = sim.saturated_rate(table, 0.25, horizon=200_000, seed=8, warmup=2000)
        se = mdp.rate_asymptotic_std(kernel, table, 200_000)
        assert abs(emp[0] - exact[0]) <= max(3 * se[0], 1e-4)
        assert abs(emp[1] - exact[1]) <= max(3 * se[1], 1e-4)


def test_batch_engine_matches_analytics_for_all_policies():
    eps, horizon = 0.25, 100_000
    policies = mdp.all_policies()
    rates = sim.saturated_rates_batch(policies, eps, horizon=horizon, seed=9, warmup=2000)
    kernel = mdp.build_kernel(eps)
    exact = np.array([v.rates for v in mdp.enumerate_vertices(eps)])
    ses = np.array([mdp.rate_asymptotic_std(kernel, p, horizon) for p in policies])
    tol = np.maximum(3.0 * ses, 2e-3)
    assert np.all(np.abs(rates - exact) <= tol)


def test_start_position_matters_for_stay_everywhere():
    r1, r2 = sim.saturated_rate((1,) * 8, 0.25, horizon=50_000, seed=3)
    assert r1 > 0.4 and r2 == 0.0
    # the saturated engine from queue 2 (state 1) serves queue 2 alone
    c1s, c2s = ch.generate_paths(GE25, 50_000, np.random.default_rng(3))
    _, counts = sim._saturated_path(sim._saturated_luts([(1,) * 8]), mdp.state_index(1, c1s, c2s), np.array([1]))
    assert counts[0, 0] == 0 and counts[1, 0] / 50_000 > 0.4


def test_gated_alternates_when_empty():
    metrics = sim.run(make_config(policy=pol.PolicyConfig("gated"), lambda1=0.0, lambda2=0.0))
    assert metrics.switch_count == 20_000


def test_gated_waits_for_on_slots():
    # gate persists through OFF slots: departures equal gate consumption
    cfg = make_config(policy=pol.PolicyConfig("gated"), lambda1=0.3, lambda2=0.3,
                      horizon=50_000, seed=11)
    metrics = sim.run(cfg)
    assert metrics.d1 + metrics.d2 > 0
    assert metrics.q1_final == metrics.arrivals1 - metrics.d1


def test_verdict_of_empty_saturated_and_short_runs():
    assert sim.run(make_config(lambda1=0.0, lambda2=0.0)).verdict == "stable"
    # four post-warmup slots fill the four windows; fewer give no verdict
    assert sim.run(make_config(horizon=4, warmup=0)).verdict is not None
    short = sim.run(make_config(horizon=5, warmup=2))
    assert short.verdict is None and short.window_means is None
    saturated = sim.run(
        sim.SimConfig(
            lambda1=0.0, lambda2=0.0, channel=GE25,
            policy=pol.PolicyConfig("fixed_table", table=(1,) * 8),
            horizon=20_000, seed=0, saturated=True,
        )
    )
    assert saturated.verdict is None


def _arrivals(lam, horizon, rng):
    """One arrival stream of horizon slots, drawn as the slot loops draw each queue's."""
    return next(ch.bit_chunks([rng], [[lam]], horizon, horizon))[0, 0]


def test_sample_arrivals_bernoulli():
    rng = np.random.default_rng(14)
    assert not _arrivals(0.0, 1000, rng).any()
    draws = _arrivals(0.3, 1_000_000, rng)
    assert abs(draws.mean() - 0.3) < 0.002
    with pytest.raises(ValueError):
        make_config(lambda1=1.2)


# -- lock-step engine ----------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MARKOV_POLICIES = st.one_of(
    st.builds(pol.PolicyConfig, st.just("fbdc"), T=st.integers(1, 30)),
    st.builds(pol.PolicyConfig, st.just("myopic"), T=st.integers(1, 30), k=st.integers(1, 2)),
    st.builds(pol.PolicyConfig, st.just("myopic"), T=st.just(1), k=st.integers(1, 2)),
)
ANY_CHANNEL_POLICIES = st.one_of(
    st.builds(pol.PolicyConfig, st.sampled_from(["gated", "exhaustive"])),
    st.builds(pol.PolicyConfig, st.just("fixed_table"), table=st.sampled_from(list(pol.CORNER_TABLES.values()))),
    st.builds(pol.PolicyConfig, st.just("fixed_table"), table=st.tuples(*[st.integers(0, 1)] * 8)),
)
GE_CHANNELS = st.builds(ch.gilbert_elliott, st.floats(0.01, 0.5))
IID_CHANNELS = st.builds(ch.iid, st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@st.composite
def batches(draw):
    """Configs differing in arrival rates and seed only, as a sweep builds them."""
    policy = draw(st.one_of(MARKOV_POLICIES, ANY_CHANNEL_POLICIES))
    markov = policy.kind in ("fbdc", "myopic")
    channel = draw(GE_CHANNELS if markov else st.one_of(GE_CHANNELS, IID_CHANNELS))
    horizon = draw(st.integers(4, 400))
    warmup = draw(st.integers(0, horizon - 1))
    rate = st.floats(0.0, 1.0)
    cells = draw(st.lists(st.tuples(rate, rate, st.integers(0, 2**32)), min_size=1, max_size=5))
    return [sim.SimConfig(lam1, lam2, channel, policy, horizon, seed, warmup=warmup)
            for lam1, lam2, seed in cells]


def _polling_examples(kind, **overrides):
    """Gated or exhaustive with no arrivals, an arrival at both queues every slot (so each gated switch clears an h
    that arrivals fed) and a rate pair in between."""
    return [make_config(policy=pol.PolicyConfig(kind), lambda1=lam1, lambda2=lam2, horizon=300, **overrides)
            for lam1, lam2 in ((0.0, 0.0), (1.0, 1.0), (0.3, 0.6))]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(batches())
@hypothesis.example(_polling_examples("gated", channel=ch.iid(0.5, 0.7)))
@hypothesis.example(_polling_examples("exhaustive", warmup=0))
def test_run_batch_equals_per_cell_runs(configs):
    expected = [dataclasses.asdict(sim.run(c)) for c in configs]
    assert [dataclasses.asdict(m) for m in sim.run_batch(configs)] == expected


@st.composite
def single_runs(draw):
    """One config of any policy, channel, warmup and trace period, horizons short enough to span few frames."""
    policy = draw(st.one_of(MARKOV_POLICIES, ANY_CHANNEL_POLICIES))
    markov = policy.kind in ("fbdc", "myopic")
    channel = draw(GE_CHANNELS if markov else st.one_of(GE_CHANNELS, IID_CHANNELS))
    horizon = draw(st.integers(1, 300))
    # a tenth of the horizon, none, any, and one that leaves fewer than 4 post-warmup slots
    short_post = st.integers(max(0, horizon - 3), horizon - 1)
    warmup = draw(st.one_of(st.just(horizon // 10), st.just(0), st.integers(0, horizon - 1), short_post))
    trace_every = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 40)))
    rate = st.floats(0.0, 1.0)
    return sim.SimConfig(draw(rate), draw(rate), channel, policy, horizon, draw(st.integers(0, 2**32)),
                         warmup=warmup, trace_every=trace_every)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(single_runs())
@hypothesis.example(make_config(policy=pol.PolicyConfig("myopic", T=1, k=2), horizon=301, trace_every=7))
@hypothesis.example(make_config(policy=pol.PolicyConfig("fbdc", T=7), horizon=100, warmup=97, trace_every=1))
@hypothesis.example(make_config(policy=pol.PolicyConfig("gated"), channel=ch.iid(0.5, 0.5), lambda1=0.3,
                                lambda2=0.3, horizon=500, warmup=0))
@hypothesis.example(_polling_examples("gated", trace_every=1)[0])
@hypothesis.example(_polling_examples("gated", channel=ch.iid(0.5, 0.7), trace_every=1)[1])
@hypothesis.example(_polling_examples("exhaustive", trace_every=3)[0])
@hypothesis.example(_polling_examples("exhaustive", trace_every=1)[1])
def test_run_equals_the_slot_loop(config):
    # every Metrics field, trace rows included, equals the loop that tests each slot for a mark, a frame and a row
    assert dataclasses.asdict(sim.run(config)) == dataclasses.asdict(slot_loop_run(config))


IID55 = ch.iid(0.5, 0.5)


def _even(load, p1=0.5, p2=0.5):
    """Arrival rates at `load` split evenly between queues ON with probability p1 and p2 (GE25's are 1/2)."""
    return load * p1 / 2, load * p2 / 2


_OVERLOADED = [  # (channel, (lambda1, lambda2), horizon, warmup, trace_every)
    (IID55, _even(1.1), 30_000, 3_000, 0),
    (IID55, _even(1.8), 5_000, 0, 1),
    (IID55, (0.9, 0.1), 8_000, 0, 0),  # lopsided
    (ch.iid(0.3, 0.8), _even(1.4, 0.3, 0.8), 12_345, 6_000, 64),  # a horizon no multiple of 64, 256 or 512
    (ch.iid(0.3, 0.8), _even(1.2, 0.3, 0.8), 20_000, 19_999, 997),
    (GE25, _even(1.5), 10_000, 1_000, 997),
    (GE25, _even(1.1), 25_000, 12_500, 64),
]


@pytest.mark.parametrize("kind", ["gated", "exhaustive"])
@pytest.mark.parametrize("channel, rates, horizon, warmup, trace_every", _OVERLOADED,
                         ids=[f"{lam1:.3g}_{lam2:.3g}_H{h}" for _, (lam1, lam2), h, *_ in _OVERLOADED])
def test_overloaded_polling_runs_equal_the_slot_loop(kind, channel, rates, horizon, warmup, trace_every,
                                                     monkeypatch):
    # overloaded gated and exhaustive runs spend most slots in stretches that sim.run sums in bulk; the
    # hypothesis runs above are too short to reach them
    skipped = []  # the length of each stretch summed, read off the weights it takes

    class Weights(np.ndarray):
        def __getitem__(self, index):
            skipped.append(-index.start)
            return np.asarray(self)[index]

    monkeypatch.setattr(sim, "_SKIP_WEIGHTS", sim._SKIP_WEIGHTS.view(Weights))
    config = make_config(policy=pol.PolicyConfig(kind), channel=channel, lambda1=rates[0], lambda2=rates[1],
                         horizon=horizon, warmup=warmup, trace_every=trace_every, seed=horizon)
    assert dataclasses.asdict(sim.run(config)) == dataclasses.asdict(slot_loop_run(config))
    # most slots were summed, but under trace_every=1, whose segments of one slot are too short to skip
    assert (sum(skipped) > horizon / 2) == (trace_every != 1)


@pytest.mark.parametrize("policy, channel, lam", [
    (pol.PolicyConfig("fbdc", T=25), GE25, 0.2),
    (pol.PolicyConfig("fbdc", T=1), GE25, 0.2),
    (pol.PolicyConfig("myopic", T=1, k=1), GE25, 0.2),
    (pol.PolicyConfig("myopic", T=5, k=2), GE25, 0.2),
    (pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b2"]), GE25, 0.2),
    (pol.PolicyConfig("gated"), IID55, 0.2),
    (pol.PolicyConfig("exhaustive"), IID55, 0.2),
    (pol.PolicyConfig("gated"), IID55, 0.3),
    (pol.PolicyConfig("exhaustive"), IID55, 0.3),
], ids=["fbdc_T25", "fbdc_T1", "myopic1_slot", "myopic2_T5", "corner_b2", "gated", "exhaustive",
        "gated_overloaded", "exhaustive_overloaded"])
def test_run_counts_and_trace_fields_are_python_ints(policy, channel, lam):
    # the per-cell loop adds Python ints only: a numpy integer that got into it (an offset from a frame start or a
    # sum of skipped polling slots, say) would slow every slot after it while every value stayed equal.  At load
    # 1.2, rows every 97 slots leave segments long enough for the polling runs to skip slots in bulk.
    horizon, trace_every = (3000, 7) if lam < 0.3 else (20_000, 97)
    metrics = sim.run(make_config(policy=policy, channel=channel, lambda1=lam, lambda2=lam, horizon=horizon,
                                  warmup=300, trace_every=trace_every))
    counts = (metrics.d1, metrics.d2, metrics.switch_count, metrics.arrivals1, metrics.arrivals2,
              metrics.q1_final, metrics.q2_final)
    assert [type(x) for x in counts] == [int] * len(counts)
    assert len(metrics.trace) == -(-horizon // trace_every) and {type(x) for row in metrics.trace for x in row} == {int}
    if policy.kind == "fixed_table":
        saturated = sim.run(make_config(policy=policy, channel=channel, horizon=3000, saturated=True))
        assert [type(x) for x in (saturated.d1, saturated.d2, saturated.switch_count)] == [int] * 3


@pytest.mark.parametrize("policy, channel, lam", [
    (pol.PolicyConfig("fbdc", T=1), GE25, 0.2),
    (pol.PolicyConfig("fbdc", T=25), GE25, 0.2),
    (pol.PolicyConfig("gated"), IID55, 0.2),
    (pol.PolicyConfig("gated"), IID55, 0.3),
    (pol.PolicyConfig("exhaustive"), IID55, 0.3),
], ids=["fbdc_T1", "fbdc_T25", "gated", "gated_overloaded", "exhaustive_overloaded"])
def test_run_memory_grows_by_under_4_bytes_a_slot(policy, channel, lam):
    # a run holds its two channel paths and one packed byte a slot, 3 B; its arrivals are drawn in chunks and its
    # segment cuts merged lazily, so no float draw or frame start per slot is held.  Both horizons fill the chunk
    # buffers of 2**16 slots, which then do not grow, as fbdc's frame-start table and the overloaded polling
    # runs' bulk windows.
    import tracemalloc

    sim.run(make_config(policy=policy, channel=channel, horizon=1000))  # fill the caches before measuring
    peaks = []
    for horizon in (2**16, 2**16 + 2**15):
        tracemalloc.start()
        try:
            sim.run(make_config(policy=policy, channel=channel, lambda1=lam, lambda2=lam, horizon=horizon))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 2**15 < 4


def test_run_batch_equals_per_cell_runs_over_several_chunks():
    # 3000 slots of 100 cells come in chunks of 1024 slots
    configs = [make_config(lambda1=0.004 * i, lambda2=0.2, seed=i, horizon=3000, warmup=777,
                           policy=pol.PolicyConfig("myopic", T=7, k=2)) for i in range(100)]
    assert sim.run_batch(configs) == [sim.run(c) for c in configs]


@pytest.mark.parametrize("policy, channel, lam1", [
    (pol.PolicyConfig("fbdc", T=25), GE25, 0.02),
    (pol.PolicyConfig("fbdc", T=7), GE25, 0.02),
    (pol.PolicyConfig("myopic", T=1, k=1), GE25, 0.02),
    (pol.PolicyConfig("myopic", T=5, k=2), GE25, 0.02),
    (pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b2"]), GE25, 0.02),
    (pol.PolicyConfig("gated"), IID55, 0.02),
    (pol.PolicyConfig("exhaustive"), IID55, 0.02),
    (pol.PolicyConfig("gated"), IID55, 0.4),
    (pol.PolicyConfig("exhaustive"), IID55, 0.4),
], ids=["fbdc_T25", "fbdc_T7", "myopic1_slot", "myopic2_T5", "corner_b2", "gated", "exhaustive",
        "gated_overloaded", "exhaustive_overloaded"])
def test_wide_run_batch_equals_per_cell_runs_for_every_kind(policy, channel, lam1):
    # 89 cells take chunks of 1024 slots and blocks of 92: the marks after the warmup of 777 fall inside
    # blocks, and frames cross block and chunk edges.  From lambda1 = 0.02 the loads on iid(0.5, 0.5) run from 0.44
    # to 0.84; from 0.4, 1.2 to 1.3, where sim.run skips polling slots in bulk and run_batch has no such path.
    configs = [make_config(lambda1=lam1 + 0.2 * i / 89, lambda2=0.2 - 0.15 * i / 89, channel=channel, policy=policy,
                           seed=100 + i, horizon=3000, warmup=777) for i in range(89)]
    assert [dataclasses.asdict(m) for m in sim.run_batch(configs)] == [dataclasses.asdict(sim.run(c)) for c in configs]


EVERY_KIND = [
    (pol.PolicyConfig("fbdc", T=25), GE25),
    (pol.PolicyConfig("myopic", T=1, k=1), GE25),
    (pol.PolicyConfig("myopic", T=10, k=2), GE25),
    (pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b2"]), GE25),
    (pol.PolicyConfig("gated"), IID55),
    (pol.PolicyConfig("exhaustive"), IID55),
]
EVERY_KIND_IDS = ["fbdc_T25", "myopic1_slot", "myopic2_T10", "corner_b2", "gated", "exhaustive"]


@pytest.mark.parametrize("policy, channel", EVERY_KIND, ids=EVERY_KIND_IDS)
@pytest.mark.parametrize("warmup, horizon", [(128, 1153), (127, 642), (1024, 2050)],
                         ids=["first_slot", "last_slot", "chunk_edge"])
def test_run_batch_notes_marks_at_the_edges_of_its_history_blocks(policy, channel, warmup, horizon):
    # 64 cells take chunks of 1024 slots and history blocks of 128: every mark (the warmup's end and four windows
    # of 256, 128 and 256 slots) falls on the first slot of a block, on its last slot, or on a chunk edge
    assert sim._BLOCK_SYMBOLS // 64 == 128 and max(sim._MIN_CHUNK, sim._CHUNK_SYMBOLS // 64) == 1024
    configs = [make_config(lambda1=0.02 + 0.3 * i / 64, lambda2=0.25 - 0.2 * i / 64, channel=channel, policy=policy,
                           seed=300 + i, horizon=horizon, warmup=warmup) for i in range(64)]
    assert [dataclasses.asdict(m) for m in sim.run_batch(configs)] == [dataclasses.asdict(sim.run(c)) for c in configs]


@pytest.mark.parametrize("policy, channel", EVERY_KIND[::2], ids=EVERY_KIND_IDS[::2])
def test_run_batch_with_history_blocks_of_one_slot(policy, channel):
    # from 4097 cells a block is one slot, so each slot sums and carries its history.  Drawing 4097 cells costs
    # most of the time, so a spread sample of them runs per cell, for fbdc, myopic and gated (the three slot paths)
    n_cells = sim._BLOCK_SYMBOLS // 2 + 1
    assert sim._BLOCK_SYMBOLS // n_cells == 1
    configs = [make_config(lambda1=0.3 * i / n_cells, lambda2=0.3 - 0.3 * i / n_cells, channel=channel, policy=policy,
                           seed=i, horizon=40, warmup=7) for i in range(n_cells)]
    sample = [*range(0, n_cells, 512), n_cells - 1]
    batch = sim.run_batch(configs)
    assert [dataclasses.asdict(batch[i]) for i in sample] == [dataclasses.asdict(sim.run(configs[i])) for i in sample]


def test_run_batch_validation():
    assert sim.run_batch([]) == []
    base = make_config(horizon=100)
    sim.run_batch([base, make_config(horizon=100, lambda1=0.3, lambda2=0.0, seed=7)])  # rates and seed may differ
    for other in (dict(horizon=101), dict(warmup=20),
                  dict(channel=ch.gilbert_elliott(0.3)), dict(policy=pol.PolicyConfig("gated"))):
        with pytest.raises(ValueError):
            sim.run_batch([base, make_config(**{"horizon": 100, **other})])
    with pytest.raises(ValueError):
        sim.run_batch([make_config(horizon=100, trace_every=5)])
    saturated = make_config(horizon=100, policy=pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b2"]),
                            saturated=True)
    with pytest.raises(ValueError):
        sim.run_batch([saturated])
    with pytest.raises(ValueError):  # every SimConfig check runs before a batch exists
        sim.run_batch([make_config(horizon=100, lambda1=1.5)])


@pytest.mark.parametrize("lam, horizon", [(1e15, 100), (5e16, 200)])  # totals near or past 2**63
def test_run_batch_refuses_counts_its_int64_sums_cannot_hold(lam, horizon):
    # arrivals are Bernoulli: a rate above 1 is refused before a batch exists, so no
    # cell brings more than one arrival a slot and its total stays within the horizon
    with pytest.raises(ValueError):
        sim.run_batch([make_config(lambda1=lam, lambda2=0.0, horizon=horizon)])
    full = make_config(lambda1=1.0, lambda2=1.0, horizon=horizon)
    [metrics] = sim.run_batch([full])
    assert metrics == sim.run(full)
    assert metrics.arrivals1 == metrics.arrivals2 == horizon


def test_run_batch_refuses_horizons_its_int64_sums_cannot_hold(monkeypatch):
    # occupancy sums reach 2 * H * H, which is 2**63 at H = 2**31
    monkeypatch.setattr(ch, "bit_chunks", None)  # drawing a stream would raise TypeError instead
    with pytest.raises(OverflowError):
        sim.run_batch([make_config(horizon=2**31)])


def test_run_batch_memory_does_not_grow_with_the_horizon():
    import tracemalloc

    def peak(horizon):
        configs = [make_config(lambda1=0.005 * i, horizon=horizon, seed=i,
                               policy=pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b2"]))
                   for i in range(64)]
        tracemalloc.start()
        try:
            sim.run_batch(configs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # the first run fills the caches
    assert peak(12_000) - peak(2_000) < 64 * 10_000 / 8  # a bit per cell and slot would add 80 kB

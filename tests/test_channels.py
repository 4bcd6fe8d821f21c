import numpy as np
import pytest

from oracles import channel_prediction, myopic_sigma
from switchq import channels as ch
from switchq import experiments as exp
from switchq import policies as pol


def test_model_validation():
    with pytest.raises(ValueError):
        ch.gilbert_elliott(0.0)
    with pytest.raises(ValueError):
        ch.gilbert_elliott(0.6)
    with pytest.raises(ValueError):
        ch.iid(1.2, 0.5)
    for p1, p2, epsilon in ((0.5, 0.5, 0.25), (None, None, None), (0.5, None, None), (None, 0.5, 0.25)):
        with pytest.raises(ValueError, match="either epsilon or both p1 and p2"):  # Markov iff epsilon is given
            ch.ChannelModel(p1, p2, epsilon)
    ch.gilbert_elliott(0.5)
    ch.iid(0.0, 1.0)


def test_generate_paths_degenerate_iid():
    rng = np.random.default_rng(0)
    c1, c2 = ch.generate_paths(ch.iid(1.0, 0.0), 100, rng)
    assert np.all(c1 == 1) and np.all(c2 == 0)


def test_generate_paths_slot_0_ge_marginal():
    # slot 0 of a Markov path is the stationary law: each channel ON w.p. 1/2 (the iid slot 0 is an iid draw)
    rng = np.random.default_rng(1)
    model = ch.gilbert_elliott(0.1)
    n = 10_000
    starts = np.array([[int(path[0]) for path in ch.generate_paths(model, 2, rng)] for _ in range(n)])
    assert np.all(np.abs(starts.mean(axis=0) - 0.5) < 0.02)  # 4 standard errors


def test_generate_paths_iid_joint_uniform():
    # p1 = p2 = 0.5 makes the four channel pairs equally likely
    rng = np.random.default_rng(2)
    n = 1_000_000
    c1, c2 = ch.generate_paths(ch.iid(0.5, 0.5), n, rng)
    counts = np.bincount(2 * c1 + c2, minlength=4)
    assert np.all(np.abs(counts / n - 0.25) < 0.01)


def _on_after(path, state):
    """Frequency of ON in the slot after each slot in `state`."""
    return path[1:][path[:-1] == state].mean()


def test_step_half_epsilon_is_memoryless():
    rng = np.random.default_rng(3)
    for path in ch.generate_paths(ch.gilbert_elliott(0.5), 200_000, rng):
        assert abs(_on_after(path, 1) - 0.5) < 0.01
        assert abs(_on_after(path, 0) - 0.5) < 0.01


def test_step_stay_probability():
    # one-step stay frequency over a million-slot path
    rng = np.random.default_rng(4)
    c1, _ = ch.generate_paths(ch.gilbert_elliott(0.25), 1_000_000, rng)
    from_on = c1[:-1] == 1
    stay = (c1[1:] == 1) & from_on
    assert abs(stay.sum() / from_on.sum() - 0.75) < 0.005


def test_step_iid_independent_of_input():
    rng = np.random.default_rng(5)
    c1, c2 = ch.generate_paths(ch.iid(0.3, 0.7), 200_000, rng)
    for path, p in ((c1, 0.3), (c2, 0.7)):
        assert abs(_on_after(path, 1) - p) < 0.01
        assert abs(_on_after(path, 0) - p) < 0.01


def _increment(model, c, tau):
    """sigma_tau - sigma_(tau-1) of a channel now in state c, the credit myopic_table gains at lookahead tau."""
    return myopic_sigma(model, tau)[c] - myopic_sigma(model, tau - 1)[c]


def test_predict_one_step():
    for eps in (0.05, 0.25, 0.5):
        model = ch.gilbert_elliott(eps)
        assert _increment(model, 1, 1) == pytest.approx(1 - eps, abs=1e-15)
        assert _increment(model, 0, 1) == pytest.approx(eps, abs=1e-15)


def test_predict_two_step_value():
    assert _increment(ch.gilbert_elliott(0.25), 1, 2) == pytest.approx(0.625, abs=1e-15)


def test_predict_long_horizon_mixes():
    model = ch.gilbert_elliott(0.25)
    assert _increment(model, 1, 200) == pytest.approx(0.5, abs=1e-12)
    assert _increment(model, 0, 200) == pytest.approx(0.5, abs=1e-12)


def test_predict_matches_matrix_powers():
    for eps in (0.05, 0.25, 0.4):
        model = ch.gilbert_elliott(eps)
        for tau in range(1, 21):
            assert _increment(model, 1, tau) == pytest.approx(channel_prediction(eps, 1, tau), abs=1e-12)
            assert _increment(model, 0, tau) == pytest.approx(channel_prediction(eps, 0, tau), abs=1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.25, 0.45])
def test_predict_symmetry_and_monotonicity(eps):
    model = ch.gilbert_elliott(eps)
    prev = 1.0
    for tau in range(1, 40):
        p_on = _increment(model, 1, tau)
        assert p_on + _increment(model, 0, tau) == pytest.approx(1.0, abs=1e-14)
        # strictly decreasing until it saturates at 1/2; an increment of the summed credit can sit an ulp
        # of sigma (below 1e-14 here) off 1/2 where the sum crosses a power of two
        assert p_on < prev or p_on - 0.5 < 1e-14
        assert p_on >= 0.5
        prev = p_on


def test_predict_rejects_iid_and_bad_tau():
    # the credit has no lookahead on iid channels; a lookahead k below 1 is refused where it is set
    with pytest.raises(ValueError):
        pol.myopic_table(ch.iid(0.5, 0.5), 1)
    with pytest.raises(ValueError):
        pol.PolicyConfig("myopic", k=0)


def test_empirical_tau_step_frequencies_match_predict():
    # strided pairs on one long path are near-independent samples
    rng = np.random.default_rng(6)
    eps = 0.25
    model = ch.gilbert_elliott(eps)
    c1, _ = ch.generate_paths(model, 1_000_000, rng)
    for tau in (1, 2, 5, 10):
        stride = tau + 20
        starts = np.arange(0, len(c1) - tau, stride)
        from_on = c1[starts] == 1
        hits = (c1[starts + tau] == 1) & from_on
        n = int(from_on.sum())
        freq = hits.sum() / n
        expected = _increment(model, 1, tau)
        assert expected == pytest.approx(channel_prediction(eps, 1, tau), abs=1e-12)
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(freq - expected) < 3 * se


def test_lookahead_sum():
    model = ch.gilbert_elliott(0.25)
    assert myopic_sigma(model, 1)[1] == pytest.approx(0.75)
    assert myopic_sigma(model, 2)[1] == pytest.approx(0.75 + 0.625)
    assert myopic_sigma(model, 2)[0] == pytest.approx(0.25 + 0.375)


def test_generate_paths_deterministic():
    model = ch.gilbert_elliott(0.3)
    a = ch.generate_paths(model, 1000, np.random.default_rng(9))
    b = ch.generate_paths(model, 1000, np.random.default_rng(9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_numpy_integer_horizons_draw_the_python_int_bits():
    model = ch.gilbert_elliott(0.25)
    for a, b in zip(ch.generate_paths(model, np.int64(1000), np.random.default_rng(4)),
                    ch.generate_paths(model, 1000, np.random.default_rng(4))):
        assert a.tobytes() == b.tobytes()
    assert (exp.throughput_gap(0.25, (np.int64(2),), "b2", 1000, 0)[0][1]
            == exp.throughput_gap(0.25, (2,), "b2", 1000, 0)[0][1])


def test_generate_paths_peak_is_the_paths_and_one_chunk():
    import tracemalloc

    horizon = 2_000_000
    ch.generate_paths(ch.gilbert_elliott(0.25), 10, np.random.default_rng(0))  # the first call fills the caches
    tracemalloc.start()
    try:
        paths = ch.generate_paths(ch.gilbert_elliott(0.25), horizon, np.random.default_rng(0))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(p.nbytes for p in paths) == 2 * horizon <= held
    # a chunk holds a float draw and a bit per channel for each of its slots, 10 B a slot; one chunk of the
    # whole horizon made that 10 B a horizon slot
    assert peak - held < 11 * ch._PATH_CHUNK

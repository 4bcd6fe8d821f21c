import numpy as np
import pytest

from switchq import channels as ch


def test_model_validation():
    with pytest.raises(ValueError):
        ch.gilbert_elliott(0.0)
    with pytest.raises(ValueError):
        ch.gilbert_elliott(0.6)
    with pytest.raises(ValueError):
        ch.iid(1.2, 0.5)
    with pytest.raises(ValueError):
        ch.ChannelModel("weather")
    ch.gilbert_elliott(0.5)
    ch.iid(0.0, 1.0)


def test_generate_paths_degenerate_iid():
    rng = np.random.default_rng(0)
    c1, c2 = ch.generate_paths(ch.iid(1.0, 0.0), 100, rng)
    assert np.all(c1 == 1) and np.all(c2 == 0)


def test_sample_initial_ge_marginal():
    rng = np.random.default_rng(1)
    model = ch.gilbert_elliott(0.1)
    n = 100_000
    on = sum(ch.sample_initial(model, rng)[0] for _ in range(n))
    assert abs(on / n - 0.5) < 0.01
    with pytest.raises(ValueError):  # iid paths draw slot 0 inside generate_paths
        ch.sample_initial(ch.iid(0.5, 0.5), rng)


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


def test_predict_one_step():
    for eps in (0.05, 0.25, 0.5):
        model = ch.gilbert_elliott(eps)
        assert ch.predict(model, 1, 1) == pytest.approx(1 - eps, abs=1e-15)
        assert ch.predict(model, 0, 1) == pytest.approx(eps, abs=1e-15)


def test_predict_two_step_value():
    assert ch.predict(ch.gilbert_elliott(0.25), 1, 2) == pytest.approx(0.625, abs=1e-15)


def test_predict_long_horizon_mixes():
    model = ch.gilbert_elliott(0.25)
    assert ch.predict(model, 1, 200) == pytest.approx(0.5, abs=1e-12)
    assert ch.predict(model, 0, 200) == pytest.approx(0.5, abs=1e-12)


def test_predict_matches_matrix_powers():
    for eps in (0.05, 0.25, 0.4):
        model = ch.gilbert_elliott(eps)
        P = np.array([[1 - eps, eps], [eps, 1 - eps]])  # rows/cols: ON, OFF
        for tau in range(1, 21):
            Pt = np.linalg.matrix_power(P, tau)
            assert ch.predict(model, 1, tau) == pytest.approx(Pt[0, 0], abs=1e-12)
            assert ch.predict(model, 0, tau) == pytest.approx(Pt[1, 0], abs=1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.25, 0.45])
def test_predict_symmetry_and_monotonicity(eps):
    model = ch.gilbert_elliott(eps)
    prev = 1.0
    for tau in range(1, 40):
        p_on = ch.predict(model, 1, tau)
        assert p_on + ch.predict(model, 0, tau) == pytest.approx(1.0, abs=1e-14)
        # strictly decreasing until the float value saturates at 1/2
        assert p_on < prev or (p_on == prev == 0.5)
        assert p_on >= 0.5
        prev = p_on


def test_predict_rejects_iid_and_bad_tau():
    with pytest.raises(ValueError):
        ch.predict(ch.iid(0.5, 0.5), 1, 1)
    with pytest.raises(ValueError):
        ch.predict(ch.gilbert_elliott(0.25), 1, 0)


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
        expected = ch.predict(model, 1, tau)
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(freq - expected) < 3 * se


def test_lookahead_sum():
    model = ch.gilbert_elliott(0.25)
    assert ch.lookahead_sum(model, 1, 1) == pytest.approx(0.75)
    assert ch.lookahead_sum(model, 1, 2) == pytest.approx(0.75 + 0.625)
    assert ch.lookahead_sum(model, 0, 2) == pytest.approx(0.25 + 0.375)


def test_generate_paths_deterministic():
    model = ch.gilbert_elliott(0.3)
    a = ch.generate_paths(model, 1000, np.random.default_rng(9))
    b = ch.generate_paths(model, 1000, np.random.default_rng(9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

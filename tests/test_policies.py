import math

import numpy as np
import pytest

from oracles import myopic_policy_table, myopic_reference, myopic_sigma
from switchq import channels as ch
from switchq import mdp
from switchq import policies as pol
from switchq import sim
from switchq.mdp import STAY, SWITCH, state_index
from switchq.region import EPS_CRITICAL, myopic_corner_map

GE = ch.gilbert_elliott(0.25)


def test_corner_tables_action_lists():
    # state order: (1,11) (1,10) (1,01) (1,00) (2,11) (2,10) (2,01) (2,00)
    assert pol.CORNER_TABLES["b0"] == (0, 0, 0, 0, 1, 1, 1, 1)
    assert pol.CORNER_TABLES["b1"] == (0, 1, 0, 0, 1, 0, 1, 1)
    assert pol.CORNER_TABLES["b2"] == (1, 1, 0, 0, 1, 0, 1, 1)
    assert pol.CORNER_TABLES["b3"] == (1, 1, 0, 1, 1, 0, 1, 0)
    assert pol.CORNER_TABLES["b4"] == (1, 1, 0, 1, 0, 0, 1, 0)
    assert pol.CORNER_TABLES["b5"] == (1, 1, 1, 1, 0, 0, 0, 0)


def test_corner_tables_are_mirror_pairs():
    for a, b in (("b0", "b5"), ("b1", "b4"), ("b2", "b3")):
        assert pol.CORNER_TABLES[b] == mdp.mirror_policy(pol.CORNER_TABLES[a])


def test_policy_config_validation():
    with pytest.raises(ValueError):
        pol.PolicyConfig("mystery")
    with pytest.raises(ValueError):
        pol.PolicyConfig("fbdc", T=0)
    with pytest.raises(ValueError):
        pol.PolicyConfig("myopic", k=0)
    with pytest.raises(ValueError):
        pol.PolicyConfig("fixed_table", table=(1, 0))
    with pytest.raises(ValueError):
        pol.PolicyConfig("fixed_table")
    with pytest.raises(ValueError):  # only fixed_table plays a table
        pol.PolicyConfig("gated", table=pol.CORNER_TABLES["b2"])
    assert pol.PolicyConfig("fbdc", T=25).label() == "fbdc_T25"
    # per-slot myopic is myopic with frames of one slot
    assert pol.PolicyConfig("myopic", T=1, k=2).label() == "myopic2_slot"
    assert pol.PolicyConfig("myopic", T=10, k=2).label() == "myopic2_T10"
    # a fixed table is named after its corner, if it is one
    assert pol.PolicyConfig("fixed_table", table=pol.CORNER_TABLES["b4"]).label() == "corner_b4"
    assert pol.PolicyConfig("fixed_table", table=(1, 0) * 4).label() == "table_10101010"


def test_fbdc_frame_start_examples():
    assert pol.fbdc_frame_start(0.25, 1, 10) == pol.CORNER_TABLES["b0"]
    assert pol.fbdc_frame_start(0.25, 5, 5) == pol.CORNER_TABLES["b3"]
    assert pol.fbdc_frame_start(0.25, 0, 0) == pol.CORNER_TABLES["b3"]


@pytest.mark.parametrize("eps", [0.5, math.nextafter(0.5, 0.0), 0.25, 1e-17, 5e-324])
def test_empty_frames_play_b3(eps):
    # no queue to weigh: the balanced corner, for scalar queues and for the empty cells of an array
    assert pol.fbdc_frame_start(eps, 0, 0) == pol.CORNER_TABLES["b3"]
    tables = pol.fbdc_frame_start(eps, np.array([0, 3, 0]), np.array([0, 0, 0]))
    assert [tuple(t) for t in tables] == [pol.CORNER_TABLES["b3"], pol.fbdc_frame_start(eps, 3, 0),
                                          pol.CORNER_TABLES["b3"]]


def test_fbdc_frame_start_matches_weighted_argmax():
    from switchq.region import corner_points, fbdc_corner_map

    rng = np.random.default_rng(31)
    for _ in range(1000):
        eps = rng.uniform(0.01, 0.5)
        q1, q2 = rng.integers(0, 200, 2)
        if q1 == q2 == 0:
            continue
        table = pol.fbdc_frame_start(eps, int(q1), int(q2))
        best, best_v = None, -1.0
        for cid, (x, y) in corner_points(eps):
            v = q1 * x + q2 * y
            if v > best_v + 1e-12:
                best, best_v = cid, v
        assert table == pol.CORNER_TABLES[best] or fbdc_corner_map(eps, q1, q2) == best


def _trace_rows(policy, channel=GE, lam=(0.25, 0.25), horizon=4000, seed=3):
    config = sim.SimConfig(lambda1=lam[0], lambda2=lam[1], channel=channel, policy=policy,
                           horizon=horizon, seed=seed, trace_every=1)
    return sim.run(config).trace


def _frame_start_queues(rows, T):
    """(q1, q2) read at the first slot of each row's frame."""
    return [(rows[t - t % T][4], rows[t - t % T][5]) for t in range(len(rows))]


def test_fbdc_decide_reads_the_frame_table():
    # every fbdc action is the frame-start corner table's entry at the row's state
    rows = _trace_rows(pol.PolicyConfig("fbdc", T=10))
    tables = [pol.fbdc_frame_start(0.25, f1, f2) for f1, f2 in _frame_start_queues(rows, 10)]
    for (t, m, c1, c2, q1, q2, action, _, _), table in zip(rows, tables):
        assert action == table[mdp.state_index(m, c1, c2)], t
    assert len(set(tables)) >= 2


def test_fbdc_is_channel_measurable_within_a_frame():
    # inside a frame the action depends on (m, C1, C2) only, not on the live queues
    rows = _trace_rows(pol.PolicyConfig("fbdc", T=25), lam=(0.3, 0.3))
    first_seen = {}
    queues_moved = False
    for t, m, c1, c2, q1, q2, action, _, _ in rows:
        seen_action, seen_q1, seen_q2 = first_seen.setdefault((t // 25, m, c1, c2), (action, q1, q2))
        assert action == seen_action, t
        queues_moved |= (q1, q2) != (seen_q1, seen_q2)
    assert queues_moved


def test_myopic_weights_worked_examples():
    sigma, credit = myopic_sigma(GE, 1), pol.myopic_table(GE, 1)
    assert sigma == (pytest.approx(0.25), pytest.approx(0.75))
    # W_here = 3 * (1 + 0.75) = 5.25 against W_there = q2 * 0.25
    assert pol.myopic_action(credit, state_index(1, 1, 0), 3, 10) == STAY
    assert pol.myopic_action(credit, state_index(1, 1, 0), 3, 21.001) == SWITCH
    # W_here = 1 * (0 + 0.25) against W_there = 1 * 0.75
    assert pol.myopic_action(credit, state_index(1, 0, 1), 1, 1) == SWITCH
    assert pol.myopic_action(credit, state_index(1, 0, 1), 3.001, 1) == STAY


def test_myopic_exact_tie_stays():
    # q2/q1 = (2-e)/(1-e) = 7/3 at e=1/4 makes W1 == W2 exactly
    sigma, credit = myopic_sigma(GE, 1), pol.myopic_table(GE, 1)
    assert 3 * (1 + sigma[1]) == 7 * sigma[1]
    assert pol.myopic_action(credit, state_index(1, 1, 1), 3, 7) == STAY
    assert pol.myopic_action(credit, state_index(1, 1, 1), 3, 7.001) == SWITCH


def test_myopic_two_step_lookahead_values():
    sigma, credit = myopic_sigma(GE, 2), pol.myopic_table(GE, 2)
    assert sigma == (pytest.approx(0.25 + 0.375), pytest.approx(0.75 + 0.625))
    # W_here = 1 + 0.75 + 0.625 = 2.375 against W_there = q2 * 0.625, even at q2 = 3.8
    assert pol.myopic_action(credit, state_index(1, 1, 0), 1, 3.7) == STAY
    assert pol.myopic_action(credit, state_index(1, 1, 0), 1, 3.9) == SWITCH


def test_myopic_frame_weights_come_from_frame_start():
    # frame myopic weighs the frame-start queues, not the live ones
    rows = _trace_rows(pol.PolicyConfig("myopic", T=25, k=1), lam=(0.3, 0.3))
    credit = pol.myopic_table(GE, 1)
    live_rule_differs = 0
    for (t, m, c1, c2, q1, q2, action, _, _), (f1, f2) in zip(rows, _frame_start_queues(rows, 25)):
        assert action == pol.myopic_action(credit, state_index(m, c1, c2), f1, f2), t
        live_rule_differs += action != pol.myopic_action(credit, state_index(m, c1, c2), q1, q2)
    assert live_rule_differs > 0


def test_myopic_rejects_iid_channels():
    with pytest.raises(ValueError):
        pol.myopic_table(ch.iid(0.5, 0.5), 1)
    with pytest.raises(ValueError):
        sim.SimConfig(lambda1=0.1, lambda2=0.1, channel=ch.iid(0.5, 0.5),
                      policy=pol.PolicyConfig("myopic"), horizon=100, seed=0)


def test_myopic_at_queue_two_mirrors():
    credit = pol.myopic_table(GE, 1)
    assert pol.myopic_action(credit, state_index(2, 0, 1), 10, 3) == STAY
    assert pol.myopic_action(credit, state_index(2, 0, 1), 21.001, 3) == SWITCH
    rng = np.random.default_rng(34)
    for _ in range(200):
        w1, w2 = rng.integers(0, 50, 2)
        for m, c1, c2 in mdp.STATES:
            assert (pol.myopic_action(credit, state_index(m, c1, c2), w1, w2)
                    == pol.myopic_action(credit, state_index(3 - m, c2, c1), w2, w1))


def _thresholds(eps):
    if eps < EPS_CRITICAL:
        return [eps / (1 - eps), (1 - eps) / (2 - eps), 1.0,
                (2 - eps) / (1 - eps), (1 - eps) / eps]
    return [eps / (1 - eps), 1.0, (1 - eps) / eps]


def test_myopic_decisions_reproduce_the_corner_map_on_recurrent_states():
    # Away from the ratio thresholds, the frame myopic policy acts exactly
    # like the mapped corner's table wherever that corner pins the action,
    # i.e. on the recurrent class of the corner chain (the parked-queue
    # corners b0/b5 leave their transient states unconstrained).
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 400:
        eps = rng.uniform(0.02, 0.5)
        q1 = float(rng.integers(1, 400))
        q2 = float(rng.integers(1, 400))
        ratio = q2 / q1
        if any(abs(ratio / t - 1.0) < 0.02 for t in _thresholds(eps)):
            continue
        model = ch.gilbert_elliott(eps)
        corner = myopic_corner_map(eps, q1, q2)
        table = pol.CORNER_TABLES[corner]
        recurrent = np.flatnonzero(mdp.stationary_distribution(mdp.build_kernel(eps), table))
        myopic_table = myopic_policy_table(model, 1, q1, q2)
        for s in recurrent:
            assert myopic_table[s] == table[s], (eps, q1, q2, corner, s)
        checked += 1


@pytest.mark.parametrize("eps", [0.05, 0.25, 0.29, 0.40, 0.50])
def test_corner_table_stationary_rates_equal_corner_points(eps):
    # each corner table's exact chain rate is the frontier corner it names
    from switchq.region import corner_points

    kernel = mdp.build_kernel(eps)
    for cid, point in corner_points(eps):
        table = pol.CORNER_TABLES[cid]
        pi = mdp.stationary_distribution(kernel, table)
        rates = mdp.policy_rates(pi, table)
        assert rates == pytest.approx(point, abs=1e-12), cid


def test_gated_decide():
    # each visit serves exactly the packets present when the server landed, then leaves
    rows = _trace_rows(pol.PolicyConfig("gated"), channel=ch.iid(0.5, 0.7), lam=(0.2, 0.3))
    gate = None
    served_visits = 0
    for t, m, c1, c2, q1, q2, action, d1, d2 in rows:
        if gate is None:
            gate = q1 if m == 1 else q2
            served_visits += gate > 0
        assert (action == STAY) == (gate > 0), t
        gate -= d1 + d2
        if action == SWITCH:
            gate = None
    assert served_visits > 100


def test_exhaustive_decide():
    # stay iff the queue at the server is non-empty
    rows = _trace_rows(pol.PolicyConfig("exhaustive"), channel=ch.iid(0.5, 0.7), lam=(0.2, 0.3))
    for t, m, c1, c2, q1, q2, action, _, _ in rows:
        assert (action == STAY) == ((q1 if m == 1 else q2) > 0), t
    assert {r[6] for r in rows} == {STAY, SWITCH}


def test_array_rules_equal_scalar_calls():
    # the lock-step engine calls the rules on arrays; each element must be the scalar decision
    rng = np.random.default_rng(35)
    for eps in (0.05, 0.25, EPS_CRITICAL, 0.4, 0.5):
        q1, q2 = rng.integers(0, 40, (2, 400))
        q1[:20] = q2[:20] = 0  # both empty: b3
        q1[20:40] = 0
        tables = pol.fbdc_frame_start(eps, q1, q2)
        assert tables.shape == (400, 8)
        assert [tuple(t) for t in tables.tolist()] == [pol.fbdc_frame_start(eps, int(a), int(b))
                                                       for a, b in zip(q1, q2)]
        credit = pol.myopic_table(ch.gilbert_elliott(eps), int(rng.integers(1, 4)))
        s = rng.integers(0, 8, 400)
        for w1, w2 in ((q1, q2), (q1.astype(float), q2.astype(float))):
            actions = pol.myopic_action(np.array(credit), s, w1, w2)
            assert actions.tolist() == [pol.myopic_action(credit, *args) for args in
                                        zip(s.tolist(), w1.tolist(), w2.tolist())]
    counters = np.array([-1, 0, 1, 7])
    assert pol.polling_action(counters).tolist() == [pol.polling_action(int(c)) for c in counters]
    assert [pol.polling_action(c) for c in (0, 1)] == [SWITCH, STAY]


def test_array_myopic_action_broadcasts_over_states():
    # one call decides all 8 states for a row of weights, as the scalar rule does state by state
    credit = pol.myopic_table(GE, 2)
    w1, w2 = np.arange(30), np.arange(30)[::-1] * 1.5
    actions = pol.myopic_action(np.array(credit), np.arange(8)[:, None], w1, w2)
    assert actions.shape == (8, 30)
    for s in range(8):
        assert actions[s].tolist() == [pol.myopic_action(credit, s, x, y) for x, y in zip(w1, w2.tolist())]


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = st.one_of(st.integers(0, 10**6), st.floats(0, 1e6), st.just(0))


def _tie_weights(sigma, m, c1, c2):
    """(w1, w2) at which the current queue's weight equals the other's exactly at state (m, c1, c2)."""
    here, there = (c1 + sigma[c1], sigma[c2]) if m == 1 else (c2 + sigma[c2], sigma[c1])
    return (there, here) if m == 1 else (here, there)  # w_here * here == w_there * there: the same two factors


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(eps=st.floats(1e-9, 0.5), k=st.integers(1, 3),
                  weights=st.lists(st.tuples(_WEIGHTS, _WEIGHTS), min_size=1, max_size=12))
def test_myopic_table_rule_equals_two_branch_reference(eps, k, weights):
    # all 8 states against random, zero and exactly tied weights, on scalars and on arrays
    model = ch.gilbert_elliott(eps)
    sigma, credit = myopic_sigma(model, k), pol.myopic_table(model, k)
    cases = [(s, w1, w2) for s in range(8) for w1, w2 in weights + [(0, 0), _tie_weights(sigma, *mdp.STATES[s])]]
    for s, w1, w2 in cases:
        action = pol.myopic_action(credit, s, w1, w2)
        assert type(action) is int and action == myopic_reference(sigma, *mdp.STATES[s], w1, w2), (s, w1, w2)
    for s, (m, c1, c2) in enumerate(mdp.STATES):
        assert pol.myopic_action(credit, s, *_tie_weights(sigma, m, c1, c2)) == STAY  # ties stay
    s, w1, w2 = (np.array(x) for x in zip(*cases))
    m, c1, c2 = np.array(mdp.STATES)[s].T
    w1, w2 = w1.astype(float), w2.astype(float)
    actions = pol.myopic_action(np.array(credit), s, w1, w2)
    assert actions.tolist() == myopic_reference(sigma, m, c1, c2, w1, w2).tolist()


def test_polling_action_returns_ints():
    # the trace CSV writes the action, so a Python int counter gives the int 0 or 1
    for counter in (-3, 0, 1, 7, 10**20):
        action = pol.polling_action(counter)
        assert type(action) is int and action == (STAY if counter > 0 else SWITCH)
    actions = pol.polling_action(np.array([-1, 0, 1, 7]))
    assert np.issubdtype(actions.dtype, np.integer) and actions.tolist() == [SWITCH, SWITCH, STAY, STAY]

import re

import numpy as np
import pytest

from oracles import (
    closure_recurrent_class,
    corner_names,
    fbdc_thresholds,
    frequency_lp,
    inverse_asymptotic_std,
    loop_kernel,
    per_policy_enumeration,
    per_policy_stationary,
    per_table_asymptotic_std,
)
from switchq import mdp
from switchq import policies as pol
from switchq.region import EPS_CRITICAL, closed_form_region, corner_points, fbdc_corner_map

ALL_STAY = (1,) * 8
ALL_SWITCH = (0,) * 8
B2_TABLE = (1, 1, 0, 0, 1, 0, 1, 1)

# from the smallest epsilon whose chains still solve up to 1/2, with the
# regime change of the rate region at EPS_CRITICAL and a value just below 1/2
STRUCTURE_EPS = (3e-9, 1e-5, 0.1, 0.25, EPS_CRITICAL, 0.4, 0.4999999974, 0.5)


def policy_id(policy: tuple[int, ...]) -> int:
    """Bit pattern of a policy, state 1 most significant, stay = 1."""
    pid = 0
    for a in policy:
        pid = (pid << 1) | a
    return pid


def saf_from_policy(pi: np.ndarray, policy: tuple[int, ...]) -> np.ndarray:
    """State-action frequencies x(s; a) as an (8, 2) array, x(s;a) = pi(s) 1{policy(s)=a}."""
    x = np.zeros((mdp.N_STATES, 2))
    for s in range(mdp.N_STATES):
        x[s, policy[s]] = pi[s]
    return x


def balance_residual(x: np.ndarray, kernel: np.ndarray) -> float:
    """Max violation of the flow-balance equations by a state-action frequency vector."""
    marginal = x.sum(axis=1)
    inflow = np.einsum("sa,saj->j", x, kernel)
    return float(np.max(np.abs(marginal - inflow)))


def solve_weighted_lp(epsilon: float, alpha1: float, alpha2: float) -> tuple[tuple[float, float], tuple[int, ...]]:
    """Maximize alpha1*r1 + alpha2*r2 over the rate polytope.

    The optimum is attained at a deterministic policy, so the LP reduces to
    an argmax over the 256 enumerated vertices.  Ties within 1e-12 resolve
    to the numerically largest policy bit pattern (prefers staying).
    """
    if alpha1 < 0 or alpha2 < 0 or (alpha1 == 0 and alpha2 == 0):
        raise ValueError("weights must be nonnegative and not both zero")
    tol = 1e-12 * max(1.0, alpha1 + alpha2)
    vertices = mdp.enumerate_vertices(epsilon)
    values = [alpha1 * v.rates[0] + alpha2 * v.rates[1] for v in vertices]
    vmax = max(values)
    best = max(
        (v for v, value in zip(vertices, values) if value >= vmax - tol),
        key=lambda v: policy_id(v.policy),
    )
    return best.rates, best.policy


def test_state_enumeration():
    expected = {
        (1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 2, (1, 0, 0): 3,
        (2, 1, 1): 4, (2, 1, 0): 5, (2, 0, 1): 6, (2, 0, 0): 7,
    }
    for (m, c1, c2), idx in expected.items():
        assert mdp.state_index(m, c1, c2) == idx
        assert mdp.STATES[idx] == (m, c1, c2)


def test_policy_id_roundtrip():
    # a policy id is the index in all_policies(); ids past 255 are refused by `saturated --policy-id` (test_cli)
    assert [policy_id(p) for p in mdp.all_policies()] == list(range(256))
    assert policy_id(ALL_STAY) == 255 and mdp.all_policies()[255] == ALL_STAY


def test_all_policies_are_int_tuples_in_id_order():
    policies = mdp.all_policies()
    assert isinstance(policies, list) and len(policies) == 256
    assert all(type(p) is tuple and all(type(a) is int for a in p) for p in policies)
    assert (np.array(policies) @ mdp.ID_BITS).tolist() == list(range(256))


def test_kernel_entries():
    eps = 0.25
    k = mdp.build_kernel(eps)
    assert k[0, mdp.STAY, 0] == pytest.approx((1 - eps) ** 2, abs=1e-15)
    assert k[0, mdp.STAY, 4] == 0.0  # stay cannot move the server
    assert k[0, mdp.SWITCH, 4] == pytest.approx((1 - eps) ** 2, abs=1e-15)


def test_kernel_rows_sum_to_one():
    k = mdp.build_kernel(0.3)
    assert np.all(np.abs(k.sum(axis=2) - 1.0) < 1e-12)


def test_kernel_epsilon_validation():
    for bad in (0.0, -0.1, 0.51):
        with pytest.raises(ValueError):
            mdp.build_kernel(bad)


@pytest.mark.parametrize("eps", STRUCTURE_EPS)
def test_kernel_equals_loop_built_kernel(eps):
    # the Kronecker form multiplies the same two channel factors per entry
    k, want = mdp.build_kernel(eps), loop_kernel(eps)
    assert k.shape == want.shape and k.tobytes() == want.tobytes()


@pytest.mark.parametrize("eps", STRUCTURE_EPS)
def test_recurrent_class_equals_reachability_closure(eps):
    # the support of each law (server blocks) against the closure of the chain's support, all 256 policies
    k = mdp.build_kernel(eps)
    laws = mdp.stationary_distribution(k, mdp.all_policies())
    for policy, pi in zip(mdp.all_policies(), laws):
        P = np.array([k[s, policy[s]] for s in range(mdp.N_STATES)])
        assert mdp.policy_matrix(k, policy).tobytes() == P.tobytes()
        assert np.flatnonzero(pi).tolist() == closure_recurrent_class(P), policy


def _cesaro_power(P, start, n=4000):
    # distribution after n steps averaged over two consecutive steps,
    # which converges for the period-2 chains as well
    mu = np.zeros(8)
    mu[start] = 1.0
    Pn = np.linalg.matrix_power(P, n)
    return 0.5 * (mu @ Pn + mu @ Pn @ P)


def test_stationary_all_stay_is_queue1_uniform():
    k = mdp.build_kernel(0.25)
    pi = mdp.stationary_distribution(k, ALL_STAY)
    assert np.allclose(pi, [0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0], atol=1e-12)
    # matches long-run frequencies from a queue-1 start
    oracle = _cesaro_power(mdp.policy_matrix(k, ALL_STAY), start=0)
    assert np.allclose(pi, oracle, atol=1e-9)


def test_stationary_all_switch_is_uniform():
    for eps in (0.1, 0.4):
        k = mdp.build_kernel(eps)
        pi = mdp.stationary_distribution(k, ALL_SWITCH)
        assert np.allclose(pi, np.full(8, 0.125), atol=1e-12)
        P = mdp.policy_matrix(k, ALL_SWITCH)
        assert np.allclose(pi @ P, pi, atol=1e-14)


def test_stationary_matches_power_iteration():
    rng = np.random.default_rng(11)
    k = mdp.build_kernel(0.2)
    for _ in range(25):
        policy = tuple(rng.integers(0, 2, 8).tolist())
        pi = mdp.stationary_distribution(k, policy)
        start = np.flatnonzero(pi)[0]
        oracle = _cesaro_power(mdp.policy_matrix(k, policy), start=start)
        assert np.allclose(pi, oracle, atol=1e-9)


def test_stationary_axioms_all_policies():
    k = mdp.build_kernel(0.1)
    for policy in mdp.all_policies():
        pi = mdp.stationary_distribution(k, policy)
        assert pi.min() >= 0.0
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_policy_rates_examples():
    k = mdp.build_kernel(0.25)
    pi = mdp.stationary_distribution(k, ALL_STAY)
    assert mdp.policy_rates(pi, ALL_STAY) == pytest.approx((0.5, 0.0), abs=1e-13)
    pi = mdp.stationary_distribution(k, ALL_SWITCH)
    assert mdp.policy_rates(pi, ALL_SWITCH) == (0.0, 0.0)
    pi = mdp.stationary_distribution(k, B2_TABLE)
    r1, r2 = mdp.policy_rates(pi, B2_TABLE)
    assert r1 == pytest.approx(1.875 / 7, abs=1e-13)
    assert r2 == pytest.approx(2.5 / 7, abs=1e-13)


def test_b2_rate_formula_across_eps():
    # r1 = (1-e)(3-2e)/(4(2-e)), r2 = (3-2e)/(4(2-e))
    for eps in (0.05, 0.2, 0.35, 0.5):
        k = mdp.build_kernel(eps)
        pi = mdp.stationary_distribution(k, B2_TABLE)
        r1, r2 = mdp.policy_rates(pi, B2_TABLE)
        denom = 4 * (2 - eps)
        assert r1 == pytest.approx((1 - eps) * (3 - 2 * eps) / denom, abs=1e-12)
        assert r2 == pytest.approx((3 - 2 * eps) / denom, abs=1e-12)


def test_saf_deterministic_action_support():
    k = mdp.build_kernel(0.25)
    pi = mdp.stationary_distribution(k, ALL_STAY)
    x = saf_from_policy(pi, ALL_STAY)
    assert np.all(x[:, mdp.SWITCH] == 0.0)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_saf_balance_residual_random_policies():
    rng = np.random.default_rng(12)
    k = mdp.build_kernel(0.1)
    for _ in range(20):
        policy = tuple(rng.integers(0, 2, 8).tolist())
        pi = mdp.stationary_distribution(k, policy)
        x = saf_from_policy(pi, policy)
        assert balance_residual(x, k) < 1e-10
        assert x.min() >= 0.0


def test_saf_roundtrip_recovers_actions_on_recurrent_states():
    k = mdp.build_kernel(0.3)
    policy = B2_TABLE
    pi = mdp.stationary_distribution(k, policy)
    x = saf_from_policy(pi, policy)
    for s in range(8):
        if pi[s] > 0:
            probs = x[s] / pi[s]
            assert probs[policy[s]] == pytest.approx(1.0)


def test_enumerate_vertices_count_and_extremes():
    verts = mdp.enumerate_vertices(0.25)
    assert len(verts) == 256
    assert max(v.rates[0] for v in verts) == pytest.approx(0.5, abs=1e-13)
    assert max(v.rates[1] for v in verts) == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("eps", [0.05, 0.25, 0.4])
def test_all_rates_inside_closed_form(eps):
    region = closed_form_region(eps)
    for v in mdp.enumerate_vertices(eps):
        assert all(h.slack(v.rates) > -1e-9 for h in region.halfspaces)


def test_lp_examples():
    rates, policy = solve_weighted_lp(0.3, 1.0, 0.0)
    assert rates == pytest.approx((0.5, 0.0), abs=1e-13)
    assert policy == ALL_STAY  # largest bit pattern among the ties
    rates, _ = solve_weighted_lp(0.25, 1.0, 2.0)
    assert rates == pytest.approx((0.140625, 0.4375), abs=1e-12)
    rates, _ = solve_weighted_lp(0.40, 1.0, 1.2)
    assert rates == pytest.approx((0.20625, 0.34375), abs=1e-12)


def test_lp_rejects_degenerate_weights():
    with pytest.raises(ValueError):
        solve_weighted_lp(0.25, 0.0, 0.0)
    with pytest.raises(ValueError):
        solve_weighted_lp(0.25, -1.0, 1.0)


def test_lp_argmax_is_exact_over_vertices():
    rng = np.random.default_rng(13)
    verts = mdp.enumerate_vertices(0.25)
    for _ in range(100):
        a1, a2 = rng.random(2)
        if a1 + a2 == 0:
            continue
        rates, _ = solve_weighted_lp(0.25, a1, a2)
        best = max(a1 * v.rates[0] + a2 * v.rates[1] for v in verts)
        assert a1 * rates[0] + a2 * rates[1] == pytest.approx(best, abs=1e-12)


def test_queue_relabeling_symmetry():
    # swapping the queues swaps the rate pair, except the two-class
    # stay-everywhere chain whose rate follows the queue-1 start convention
    k = mdp.build_kernel(0.2)
    for policy in mdp.all_policies():
        if policy == ALL_STAY:
            continue
        mirrored = mdp.mirror_policy(policy)
        r = mdp.policy_rates(mdp.stationary_distribution(k, policy), policy)
        rm = mdp.policy_rates(mdp.stationary_distribution(k, mirrored), mirrored)
        assert rm[0] == pytest.approx(r[1], abs=1e-12)
        assert rm[1] == pytest.approx(r[0], abs=1e-12)


def test_rate_asymptotic_std_closed_form_cases():
    # all-stay r1 is the time average of one channel: sigma^2 = (1-e)/(4e)
    eps, horizon = 0.25, 1_000_000
    k = mdp.build_kernel(eps)
    se1, se2 = mdp.rate_asymptotic_std(k, ALL_STAY, horizon)
    assert se1 == pytest.approx(np.sqrt(0.25 * (1 - eps) / eps / horizon), rel=1e-9)
    assert se2 == 0.0
    assert mdp.rate_asymptotic_std(k, ALL_SWITCH, horizon) == (0.0, 0.0)


@pytest.mark.parametrize("eps", (0.05, 0.10, 0.25, 0.29, 0.30, 0.40, 0.45, 0.50,
                                 1e-5, 3e-9, EPS_CRITICAL, 0.4999999974))
def test_rate_asymptotic_std_equals_explicit_inverse(eps):
    # one solve on the law's class against the explicit inverse, zeros where it has them
    k = mdp.build_kernel(eps)
    for policy in mdp.all_policies():
        got, want = mdp.rate_asymptotic_std(k, policy, 1000), inverse_asymptotic_std(k, policy, 1000)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=str(policy))


def _refused(solve, *args) -> bool:
    try:
        solve(*args)
    except mdp.ChainSolveError:
        return True
    return False


def test_rate_asymptotic_std_is_refused_exactly_where_its_own_table_is():
    # the variance table covers all 256 tables of a kernel, but refuses a table
    # only where that table's own solve is refused, as one solve per table did
    tables = [*pol.CORNER_TABLES.values(), mdp.all_policies()[113], mdp.all_policies()[121]]
    refused = accepted = 0
    for eps in np.logspace(-10, -5, 400).tolist():
        kernel = mdp.build_kernel(eps)
        for table in tables:
            want = _refused(per_policy_stationary, kernel, table)
            assert _refused(mdp.rate_asymptotic_std, kernel, table, 1000) == want, (eps, table)
            refused, accepted = refused + want, accepted + (not want)
    assert refused > 0 and accepted > 0


def test_a_singular_solve_refuses_its_own_table_alone():
    # where 1 - eps rounds near 1 some of a class's matrices are singular: a stack holding
    # one fails whole, so those tables fall back to solves of their own, and only they are refused
    kernel = mdp.build_kernel(1.373823795883261e-16)
    for policy in mdp.all_policies():
        try:
            want = per_table_asymptotic_std(kernel, policy, 1000)
        except (mdp.ChainSolveError, np.linalg.LinAlgError):
            want = None
        if want is None:
            assert _refused(mdp.rate_asymptotic_std, kernel, policy, 1000), policy
        else:
            assert np.array(mdp.rate_asymptotic_std(kernel, policy, 1000)).tobytes() == np.array(want).tobytes()
    with pytest.raises(mdp.ChainSolveError):  # every law is singular or inaccurate here
        mdp.stationary_distribution(mdp.build_kernel(1e-17), mdp.all_policies())


@pytest.mark.parametrize("table", [(1,) * 7 + (-1,), (1,) * 7 + (2,), (1.0,) * 8, (True,) * 8, (1,) * 7, (1,) * 9])
def test_malformed_tables_are_refused_by_name(table):
    # a table is 8 integer entries of 0 or 1: -1 is no switch, and 2 or a float no index
    kernel = mdp.build_kernel(0.25)
    calls = [lambda: mdp.stationary_distribution(kernel, table), lambda: mdp.rate_asymptotic_std(kernel, table, 1000)]
    if len(table) == 8 and not isinstance(table[0], bool):  # in a stack, True is the integer 1
        calls.append(lambda: mdp.stationary_distribution(kernel, [mdp.all_policies()[7], table]))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(table))):
            call()


@pytest.mark.parametrize("horizon", (0, -5, float("nan")))
def test_rate_asymptotic_std_refuses_horizons_below_one(horizon):
    with pytest.raises(ValueError, match="horizon"):
        mdp.rate_asymptotic_std(mdp.build_kernel(0.25), ALL_STAY, horizon)


@pytest.mark.parametrize("eps", (0.01, 0.05, 0.1, 0.2, 0.25, EPS_CRITICAL, 0.35, 0.45))
def test_frequency_lp_is_attained_at_a_deterministic_policy(eps):
    # the paper's LP over state-action frequencies: its optimum is the best of the 256
    # enumerated rate pairs and the closed-form region's support, at a deterministic policy
    pytest.importorskip("scipy")
    rng = np.random.default_rng(round(eps * 1e6))
    enumerated = np.array([v.rates for v in mdp.enumerate_vertices(eps)])
    corners = np.array(closed_form_region(eps).corners)
    for _ in range(25):
        w = rng.random(2)
        value, x = frequency_lp(eps, w)
        assert value == pytest.approx((enumerated @ w).max(), abs=1e-12)
        assert value == pytest.approx((corners @ w).max(), abs=1e-12)
        assert not (x > 0).all(axis=1).any(), x  # no state splits its weight between the actions


@pytest.mark.parametrize("eps", (0.01, 0.05, 0.1, 0.2, 0.25, 0.35, 0.4, 0.45))
def test_frequency_lp_support_is_the_closed_form_region(eps):
    # the LP's value at each facet normal is the facet's b, and at queues
    # (q1, q2) between two FBDC thresholds its optimal rate pair is the
    # corner fbdc_corner_map picks
    pytest.importorskip("scipy")
    for h in closed_form_region(eps).halfspaces:
        assert frequency_lp(eps, (h.a1, h.a2))[0] == pytest.approx(h.b, abs=1e-12), h
    cuts, corners = fbdc_thresholds(eps), dict(corner_points(eps))
    for ratio in (cuts[0] / 2, *np.sqrt(np.multiply(cuts[:-1], cuts[1:])).tolist(), cuts[-1] * 2):
        q1, q2 = 2.0, 2.0 * ratio
        x = frequency_lp(eps, (q1, q2))[1]
        rates = (x[list(mdp.REWARD1_STATES), mdp.STAY].sum(), x[list(mdp.REWARD2_STATES), mdp.STAY].sum())
        corner = corners[corner_names(eps, fbdc_corner_map(eps, q1, q2))]
        np.testing.assert_allclose(rates, corner, rtol=0, atol=1e-12, err_msg=ratio)


# The acceptance epsilons, the smallest that still solves, 1e-5, the regime
# change, just below 1/2, and 40 uniform draws.
STACK_EPS = (0.05, 0.10, 0.25, 0.29, 0.30, 0.40, 0.45, 0.50, 3e-9, 1e-5, EPS_CRITICAL, 0.4999999974,
             *np.random.default_rng(41).uniform(1e-6, 0.5, 40).tolist())


@pytest.mark.parametrize("eps", STACK_EPS)
def test_stacked_solve_equals_one_solve_per_policy(eps):
    laws, rates = per_policy_enumeration(eps)
    kernel, policies = mdp.build_kernel(eps), mdp.all_policies()
    stack = mdp.stationary_distribution(kernel, policies)
    assert stack.shape == (256, 8) and stack.tobytes() == laws.tobytes()
    assert [mdp.stationary_distribution(kernel, p).tobytes() for p in policies[::17]] == [
        law.tobytes() for law in laws[::17]]
    r1, r2 = mdp.policy_rates(stack, policies)
    assert list(zip(r1.tolist(), r2.tolist())) == rates
    mdp.enumerate_vertices.cache_clear()
    assert [v.rates for v in mdp.enumerate_vertices(eps)] == rates


@pytest.mark.parametrize("eps", STACK_EPS[:32])  # the twelve fixed and 20 drawn
def test_rate_asymptotic_std_equals_one_solve_per_table(eps):
    # the kernel's variance table, one stacked solve per class, holds each table's bits of its own solve
    kernel = mdp.build_kernel(eps)
    for policy in mdp.all_policies():
        got, want = mdp.rate_asymptotic_std(kernel, policy, 1000), per_table_asymptotic_std(kernel, policy, 1000)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (policy, got, want)


@pytest.mark.parametrize("eps", (1e-9, 1e-12))
def test_stacked_solve_still_refuses_epsilon_near_zero(eps):
    # one solve per policy fails on policies 113 and 121 alone; a stack fails when it holds one
    kernel, policies = mdp.build_kernel(eps), mdp.all_policies()
    for pid, policy in enumerate(policies):
        if pid in (113, 121):
            with pytest.raises(mdp.ChainSolveError):
                per_policy_stationary(kernel, policy)
        else:
            per_policy_stationary(kernel, policy)
    for stack in (policies, policies[100:114], policies[121:122]):
        with pytest.raises(mdp.ChainSolveError):
            mdp.stationary_distribution(kernel, stack)
    laws = mdp.stationary_distribution(kernel, policies[100:113])
    assert laws.tobytes() == np.array([per_policy_stationary(kernel, p) for p in policies[100:113]]).tobytes()

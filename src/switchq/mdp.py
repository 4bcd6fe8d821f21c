"""Exact analysis of the saturated two-queue system.

The saturated system (both queues always backlogged) is a Markov decision
process on 8 states s = (m, C1, C2) with two actions per state: stay (1) or
switch (0).  States are enumerated in the fixed order

    (1,1,1)=1  (1,1,0)=2  (1,0,1)=3  (1,0,0)=4
    (2,1,1)=5  (2,1,0)=6  (2,0,1)=7  (2,0,0)=8

and a departure reward accrues for queue 1 in states 1, 2 under stay, and
for queue 2 in states 5, 7 under stay.  Every stationary deterministic
policy is a vertex of the state-action frequency polytope, so the rate
region is the convex hull of the 256 policy rate pairs, and a weighted LP
over it is attained at one of them: FBDC takes that optimum over the
frontier corners (region.fbdc_corner_map).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import check_epsilon

STAY = 1
SWITCH = 0

N_STATES = 8

# Fixed state enumeration: index i (0-based) holds state i+1.
STATES: tuple[tuple[int, int, int], ...] = (
    (1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0),
    (2, 1, 1), (2, 1, 0), (2, 0, 1), (2, 0, 0),
)

# Reward-bearing states (0-based): queue 1 departs in states 0,1; queue 2 in 4,6.
REWARD1_STATES = (0, 1)
REWARD2_STATES = (4, 6)


def state_index(m: int, c1: int, c2: int) -> int:
    """0-based index of state (m, c1, c2) in the fixed enumeration."""
    return 4 * (m - 1) + 2 * (1 - c1) + (1 - c2)


# Queue-relabeling involution: swap server position and channel roles.
MIRROR: tuple[int, ...] = tuple(state_index(3 - m, c2, c1) for (m, c1, c2) in STATES)


def mirror_policy(policy: tuple[int, ...]) -> tuple[int, ...]:
    """The same policy with the two queues relabeled."""
    return tuple(policy[MIRROR[i]] for i in range(N_STATES))


def policy_from_id(pid: int) -> tuple[int, ...]:
    """The policy whose bit pattern is pid: state 1 most significant, stay = 1."""
    if not 0 <= pid < 256:
        raise ValueError(f"policy id must be in 0..255, got {pid}")
    return tuple((pid >> (7 - i)) & 1 for i in range(N_STATES))


def all_policies() -> list[tuple[int, ...]]:
    """All 256 stationary deterministic policies, ordered by bit pattern."""
    return [policy_from_id(pid) for pid in range(256)]


def build_kernel(epsilon: float) -> np.ndarray:
    """Transition probabilities P(j | s, a) as an (8, 2, 8) array.

    The channels flip independently with probability epsilon, so the
    channel pair moves by the Kronecker square of the one-channel matrix;
    the server position follows the action deterministically (stay keeps
    m, switch flips it and consumes the slot).
    """
    check_epsilon(epsilon)
    q = np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])  # q[c, c'] with rows ON, OFF
    pair = np.kron(q, q)  # channel pair (c1, c2) to (c1', c2'), both ON first
    stay, switch = np.kron(np.eye(2), pair), np.kron(1.0 - np.eye(2), pair)  # server block to block
    return np.stack([switch, stay], axis=1)  # the action axis is indexed by SWITCH = 0, STAY = 1


def policy_matrix(kernel: np.ndarray, policy) -> np.ndarray:
    """Chain transition matrix induced by a deterministic policy (a stack of tables gives a stack)."""
    return kernel[range(N_STATES), policy]


# Recurrent classes of the policy-induced chains: the queue-1 block, the queue-2 block, all states.
_CLASSES = (slice(0, 4), slice(4, N_STATES), slice(0, N_STATES))


def _class_index(tables: np.ndarray) -> np.ndarray:
    """Position in _CLASSES of the recurrent class of each table of an [n, 8] stack.

    Every channel pair is reached in one slot, so the classes are whole
    server blocks: a block that holds a switch is left, a block without one
    is closed.  If neither block is closed the chain is one class;
    stay-everywhere has both closed and resolves to the queue-1 block,
    matching a queue-1 server start.
    """
    closed = (tables.reshape(-1, 2, N_STATES // 2) == STAY).all(axis=2)
    return np.where(closed[:, 0], 0, np.where(closed[:, 1], 1, 2))


def recurrent_class(policy: tuple[int, ...]) -> list[int]:
    """Recurrent class of the policy-induced chain (see _class_index)."""
    return list(range(N_STATES)[_CLASSES[_class_index(np.asarray(policy))[0]]])


class ChainSolveError(ArithmeticError):
    """A chain solve lost its accuracy, as it does for epsilon too close to 0."""


def stationary_distribution(kernel: np.ndarray, policy) -> np.ndarray:
    """The stationary law pi of the policy-induced chain, transient states at 0.

    policy is one table or a sequence of tables; a sequence gives an [n, 8]
    stack of laws in its order.  The tables are grouped by recurrent class,
    and each group takes one stacked np.linalg.solve of (P^T - I) on the
    class with its last row replaced by the normalisation sum(pi) = 1: the
    matrices, and so the laws, of one solve per table.  Raises
    ChainSolveError when a law misses its balance equations by more than
    1e-12 or has an entry below -1e-13.
    """
    tables = np.asarray(policy)
    stack = tables.reshape(-1, N_STATES)
    classes = _class_index(stack)
    P = policy_matrix(kernel, stack)
    pi = np.zeros(stack.shape)
    for c in set(classes.tolist()):
        rec, members = _CLASSES[c], np.flatnonzero(classes == c)
        n = rec.stop - rec.start
        A = P[members][:, rec, rec].transpose(0, 2, 1)  # a fresh array: edit in place
        A -= np.eye(n)
        A[:, -1, :] = 1.0
        b = np.zeros((len(members), n, 1))  # a stack of columns, read alike by NumPy 1 and 2
        b[:, -1] = 1.0
        try:
            pi[members, rec] = np.linalg.solve(A, b)[..., 0]
        except np.linalg.LinAlgError as err:
            raise ChainSolveError(f"stationary solve failed: {err}") from None
    residual = np.abs((pi[:, None, :] @ P)[:, 0] - pi).max()
    if residual > 1e-12 or pi.min() < -1e-13:
        raise ChainSolveError(f"stationary solve failed, residual {residual:.3e}, min pi {pi.min():.3e}")
    return np.maximum(pi, 0.0).reshape(tables.shape)


def policy_rates(pi: np.ndarray, policy) -> tuple:
    """Expected departures per slot (r1, r2) under the stationary law.

    A stack of laws with its tables gives two arrays.  Each rate adds its
    two reward states in state order, as a sum over the paid states did.
    """
    paid = np.where(np.asarray(policy) == STAY, pi, 0.0)
    r1 = paid[..., REWARD1_STATES[0]] + paid[..., REWARD1_STATES[1]]
    r2 = paid[..., REWARD2_STATES[0]] + paid[..., REWARD2_STATES[1]]
    return (r1, r2) if r1.ndim else (float(r1), float(r2))


@dataclass(frozen=True)
class PolicyVertex:
    """One deterministic policy with its stationary rates."""

    policy: tuple[int, ...]
    rates: tuple[float, float]


@lru_cache(maxsize=32)
def _enumerate_cached(epsilon: float) -> tuple[PolicyVertex, ...]:
    policies = all_policies()  # a list of tuples, so a tracer can hash the stack
    r1, r2 = policy_rates(stationary_distribution(build_kernel(epsilon), policies), policies)
    return tuple(PolicyVertex(p, rates) for p, rates in zip(policies, zip(r1.tolist(), r2.tolist())))


def enumerate_vertices(epsilon: float) -> list[PolicyVertex]:
    """All 256 deterministic policies with exact stationary rates, by policy id.

    The 256 laws come from one stacked stationary_distribution call.
    """
    return list(_enumerate_cached(float(epsilon)))


def rate_asymptotic_std(kernel: np.ndarray, policy: tuple[int, ...], horizon: int) -> tuple[float, float]:
    """Standard error of the horizon-slot empirical rates under the policy.

    The per-slot reward is a function of the chain state, so the asymptotic
    variance follows from the fundamental matrix Z = (I - P + 1 pi)^{-1} of
    the chain restricted to its recurrent class:
    sigma^2 = pi.f~^2 + 2 pi.(f~ * (Z - I) f~) with f~ = f - pi.f.
    """
    rec = recurrent_class(policy)
    Pr = policy_matrix(kernel, policy)[np.ix_(rec, rec)]
    pi = stationary_distribution(kernel, policy)[rec]
    n = len(rec)
    Z = np.linalg.inv(np.eye(n) - Pr + np.outer(np.ones(n), pi))
    out = []
    for reward_states in (REWARD1_STATES, REWARD2_STATES):
        f = np.array([1.0 if (s in reward_states and policy[s] == STAY) else 0.0 for s in rec])
        ft = f - pi @ f
        var = float(pi @ (ft * ft) + 2.0 * pi @ (ft * ((Z - np.eye(n)) @ ft)))
        out.append(np.sqrt(max(var, 0.0) / horizon))
    return out[0], out[1]

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

import itertools
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
ID_BITS = 1 << np.arange(N_STATES - 1, -1, -1)  # table @ ID_BITS is its policy id: state 1 most significant, stay = 1


def state_index(m: int, c1: int, c2: int) -> int:
    """0-based index of state (m, c1, c2) in the fixed enumeration."""
    return 4 * (m - 1) + 2 * (1 - c1) + (1 - c2)


# Queue-relabeling involution: swap server position and channel roles.
MIRROR: tuple[int, ...] = tuple(state_index(3 - m, c2, c1) for (m, c1, c2) in STATES)


def mirror_policy(policy: tuple[int, ...]) -> tuple[int, ...]:
    """The same policy with the two queues relabeled."""
    return tuple(policy[MIRROR[i]] for i in range(N_STATES))


def all_policies() -> list[tuple[int, ...]]:
    """All 256 stationary deterministic policies, each at its policy id (table @ ID_BITS)."""
    return list(itertools.product((SWITCH, STAY), repeat=N_STATES))


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


def _groups(stack: np.ndarray) -> list[tuple[slice, np.ndarray]]:
    """Each recurrent class of the tables of an [n, 8] stack, as its _CLASSES slice with the rows it holds.

    Every channel pair is reached in one slot, so a server block that holds a switch is left and one without is
    closed.  If neither is closed the chain is one class; stay-everywhere resolves to queue 1's block (its start).
    """
    closed = (stack.reshape(-1, 2, N_STATES // 2) == STAY).all(axis=2)
    classes = np.where(closed[:, 0], 0, np.where(closed[:, 1], 1, 2))
    return [(_CLASSES[c], np.flatnonzero(classes == c)) for c in set(classes.tolist())]


class ChainSolveError(ArithmeticError):
    """A chain solve lost its accuracy, as it does for epsilon too close to 0."""


def policy_tables(policy) -> np.ndarray:
    """policy as an array of one table or a stack; a table not 8 integer entries of 0 or 1 is refused by name."""
    tables = np.asarray(policy)
    shaped = tables.ndim in (1, 2) and tables.shape[-1] == N_STATES and tables.dtype.kind in "iu"
    bad = [tuple(t) for t in tables[(tables >> 1).any(axis=-1)].reshape(-1, N_STATES).tolist()] if shaped else [policy]
    if bad:
        raise ValueError(f"a policy table is 8 integer entries of 0 or 1, got {bad[0]!r}")
    return tables


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of a stack, each singular matrix left at nan by a solve of its own."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan) if A.ndim == 2 else np.array([_solve(*ab) for ab in zip(A, b)])


def _laws(kernel: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """The unclamped laws of an [n, 8] stack of tables, one stacked solve per recurrent class, and their refusals.

    Each row's solve is of (P^T - I) on its class with the last row sum(pi) = 1.  A law is refused by row when it
    misses its balance equations by more than 1e-12 or has an entry below -1e-13 (or a nan, as a singular solve).
    """
    P, pi = policy_matrix(kernel, stack), np.zeros(stack.shape)
    for rec, members in _groups(stack):
        n = rec.stop - rec.start
        A = P[members][:, rec, rec].transpose(0, 2, 1) - np.eye(n)
        A[:, -1, :] = 1.0
        b = np.repeat(np.eye(n)[None, :, -1:], len(members), axis=0)  # a stack of columns, read alike by NumPy 1 and 2
        pi[members, rec] = _solve(A, b)[..., 0]
    with np.errstate(invalid="ignore"):  # a law with an inf or nan entry has a nan residual, refused below
        residual, least = np.abs((pi[:, None, :] @ P)[:, 0] - pi).max(axis=1), pi.min(axis=1)
    failed = np.flatnonzero(~((residual <= 1e-12) & (least >= -1e-13))).tolist()
    return pi, {i: f"stationary solve failed, residual {residual[i]:.3e}, min pi {least[i]:.3e}" for i in failed}


def stationary_distribution(kernel: np.ndarray, policy) -> np.ndarray:
    """The stationary law pi of the policy-induced chain, transient states at 0, or ChainSolveError (see _laws).

    A sequence of tables gives an [n, 8] stack of laws in its order, with the bits of one solve per table.
    """
    tables = policy_tables(policy)
    pi, refusals = _laws(kernel, tables.reshape(-1, N_STATES))
    if refusals:
        raise ChainSolveError(next(iter(refusals.values())))
    return np.maximum(pi, 0.0).reshape(tables.shape)


def policy_rates(pi: np.ndarray, policy) -> tuple:
    """Expected departures per slot (r1, r2) under the stationary law.

    A stack of laws with its tables gives two arrays; each rate adds its two reward states in state order.
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
def enumerate_vertices(epsilon: float) -> tuple[PolicyVertex, ...]:
    """All 256 deterministic policies with exact stationary rates by policy id, from one stationary_distribution."""
    policies = all_policies()  # a list of tuples, so a tracer can hash the stack
    r1, r2 = policy_rates(stationary_distribution(build_kernel(epsilon), policies), policies)
    return tuple(PolicyVertex(p, rates) for p, rates in zip(policies, zip(r1.tolist(), r2.tolist())))


@lru_cache(maxsize=32)
def _variance_table(kernel_bytes: bytes) -> tuple[np.ndarray, dict[int, str]]:
    """The asymptotic variances of both rates of the 256 tables of a kernel by policy id, and their refusals.

    The per-slot reward f is each state's departures (policy_rates at the point masses), and with the fundamental
    matrix Z = (I - P + 1 pi)^{-1} on the recurrent class, sigma^2 = pi.f~^2 + 2 pi.(f~ * (Z - I) f~) for
    f~ = f - pi.f.  Z f~ for both rewards of a class's tables is one stacked solve, with the bits of one per table.
    """
    kernel, tables = np.frombuffer(kernel_bytes).reshape(N_STATES, 2, N_STATES), np.array(all_policies())
    pi, refusals = _laws(kernel, tables)
    pi, P, var = np.maximum(pi, 0.0), policy_matrix(kernel, tables), np.zeros((len(tables), 2))
    f = np.stack(policy_rates(np.eye(N_STATES), tables[:, None]), axis=1)  # [table, reward, state]
    for rec, members in _groups(tables):
        p, ft = pi[members, rec][..., None], f[members][..., rec]  # [table, state, 1], [table, reward, state]
        ft = ft - ft @ p
        zf = _solve(np.eye(p.shape[1]) - P[members][:, rec, rec] + p.transpose(0, 2, 1), ft.transpose(0, 2, 1))
        var[members] = np.maximum((ft * ft) @ p + 2.0 * (ft * (zf.transpose(0, 2, 1) - ft)) @ p, 0.0)[..., 0]
    var.flags.writeable = False  # cached: a write would change every later standard error of the kernel
    singular = np.flatnonzero(np.isnan(var).any(axis=1)).tolist()
    return var, {i: "fundamental matrix solve failed: singular matrix" for i in singular} | refusals


def rate_asymptotic_std(kernel: np.ndarray, policy: tuple[int, ...], horizon: int) -> tuple[float, float]:
    """Standard error of the horizon-slot empirical rates under the policy, refused where its own law or Z is."""
    pid = int(policy_tables(policy) @ ID_BITS)
    if not horizon >= 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    var, refusals = _variance_table(np.ascontiguousarray(kernel, dtype=float).tobytes())
    if pid in refusals:
        raise ChainSolveError(refusals[pid])
    return tuple(np.sqrt(var[pid] / horizon).tolist())

"""Scheduling policies: their configuration, corner tables and decision rules.

Frame-based dynamic control picks the frontier corner maximizing
Q1*r1 + Q2*r2 at each frame start (fbdc_frame_start, an index into
frame_tables) and plays that corner's deterministic action table for the
whole frame.  The k-lookahead myopic policy compares queue-weighted
expected service credit over the next k slots, read from a signed credit
table per state (myopic_action).  Both rules take Python numbers and
numpy arrays alike, integers for FBDC.  Gated and exhaustive are the
classic polling disciplines used for the iid-channel results: both stay
while the gate, the server's queue less h, holds a packet, where h counts
the arrivals there since the server came for gated and stays 0 for
exhaustive; the step table of sim keeps h.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import channels as ch
from .mdp import STATES, STAY, SWITCH, mirror_policy, policy_tables
from .region import corner_points, fbdc_corner_map

# Corner action tables (states in the fixed order 1..8).  b2 serves the own
# channel when ON at queue 1 and leaves queue 2 only on (C1,C2)=(1,0); b1
# additionally gives up state (1,1,1) to chase queue 2.  b0 parks at
# queue 2 unconditionally; decisions at the transient queue-1 states are
# pinned to switch.  b3, b4, b5 are the queue-relabeled mirrors.
_B0 = (SWITCH, SWITCH, SWITCH, SWITCH, STAY, STAY, STAY, STAY)
_B1 = (SWITCH, STAY, SWITCH, SWITCH, STAY, SWITCH, STAY, STAY)
_B2 = (STAY, STAY, SWITCH, SWITCH, STAY, SWITCH, STAY, STAY)

CORNER_TABLES: dict[str, tuple[int, ...]] = {
    "b0": _B0,
    "b1": _B1,
    "b2": _B2,
    "b3": mirror_policy(_B2),
    "b4": mirror_policy(_B1),
    "b5": mirror_policy(_B0),
}

POLICY_KINDS = ("fbdc", "myopic", "gated", "exhaustive", "fixed_table")


@dataclass(frozen=True)
class PolicyConfig:
    """Which policy drives the server and its parameters.

    ``T`` is the frame length of fbdc and myopic: myopic weighs the
    frame-start queue lengths, so T = 1 is per-slot myopic on the current
    ones.  ``k`` is the myopic lookahead depth and ``table`` the action
    table of fixed_table, such as a corner's from CORNER_TABLES.
    """

    kind: str
    T: int = 1
    k: int = 1
    table: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.T < 1:
            raise ValueError("frame length T must be >= 1")
        if self.k < 1:
            raise ValueError("lookahead k must be >= 1")
        if (self.kind == "fixed_table") != (self.table is not None):
            raise ValueError("fixed_table, and no other kind, takes a table")
        if self.table is not None and policy_tables(self.table).ndim != 1:  # a table is what the chain solves take
            raise ValueError(f"fixed_table takes one policy table, got a stack {self.table!r}")

    def label(self) -> str:
        if self.kind == "fbdc":
            return f"fbdc_T{self.T}"
        if self.kind == "myopic":
            return f"myopic{self.k}_{'slot' if self.T == 1 else f'T{self.T}'}"
        if self.kind == "fixed_table":
            corner = next((cid for cid, table in CORNER_TABLES.items() if table == self.table), None)
            return f"corner_{corner}" if corner else f"table_{''.join(str(a) for a in self.table)}"
        return self.kind


def frame_tables(epsilon: float) -> list[tuple[int, ...]]:
    """FBDC's frame tables: the balanced b3's, for an empty frame, then each corner's in corner_points order."""
    return [CORNER_TABLES["b3"], *(CORNER_TABLES[cid] for cid, _ in corner_points(epsilon))]


def fbdc_frame_start(epsilon: float, q1_frame, q2_frame):
    """Index in frame_tables(epsilon) of the table for the coming frame, given integer frame-start queues.

    An empty frame (the weighted objective is identically zero) plays b3,
    index 0, any other 1 + fbdc_corner_map's position.  Integer arrays map
    elementwise to an array of indices, and Python ints give a Python int.
    """
    empty = (q1_frame | q2_frame) == 0  # the corner map takes an empty frame as (1, 0), then the factor 0 clears it
    return (1 + fbdc_corner_map(epsilon, q1_frame + empty, q2_frame)) * (1 - empty)


# The deepest myopic lookahead the command line takes.  myopic_table sums k
# terms per sign in Python, once per sim.run: about 0.04 s at 10**5 on a
# 2-vCPU Xeon, so the at most 19 per-cell runs of a sweep's myopic policy
# spend about 0.8 s on it (0.42 s a table at 10**6).
MAX_K = 10**5


def myopic_table(model: ch.ChannelModel, k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The signed credit (u, v) of myopic_action, one entry per state in the fixed order.

    sigma[c], the k-slot credit of a channel now in state c, sums
    E[C(t+tau) | C(t) = c] = 1/2 +/- (1/2) (1 - 2 eps)^tau (+ for ON) over
    tau = 1..k; iid channels have no such credit (ValueError).  State
    (1, c1, c2) has (c1 + sigma[c1], sigma[c2]): the current queue counts
    its live channel plus the credit, the other queue the credit only, for
    the slot lost to switching.  State (2, c1, c2) has (-sigma[c1],
    -(c2 + sigma[c2])), the same comparison with the queues swapped, negated
    so that queue 1's weight stays on the left; negation is exact, so every
    tie goes the same way as unnegated.
    """
    if model.epsilon is None:
        raise ValueError("the myopic credit is only defined for the gilbert_elliott model")
    sigma = [sum(0.5 + sign * 0.5 * (1.0 - 2.0 * model.epsilon) ** tau for tau in range(1, k + 1))
             for sign in (-1.0, 1.0)]
    rows = [(c1 + sigma[c1], sigma[c2]) if m == 1 else (-sigma[c1], -(c2 + sigma[c2])) for m, c1, c2 in STATES]
    return tuple(zip(*rows))


def myopic_action(credit, s, w1, w2):
    """The k-lookahead myopic rule at state index s: stay iff w1 * u[s] >= w2 * v[s].

    ``credit`` is myopic_table's (u, v), as tuples or as a (2, 8) array;
    ``w1``, ``w2`` are the queue weights (frame-start or current lengths).
    Array states and weights map elementwise to an integer array of actions.
    """
    u, v = credit
    return (w1 * u[s] >= w2 * v[s]) * STAY

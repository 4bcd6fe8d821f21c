"""ON/OFF connectivity processes for the two-queue system.

Two models are supported: per-slot independent draws ("iid") and the
symmetric two-state Markov chain with flip probability epsilon
("gilbert_elliott").  Channel values are 1 (ON) and 0 (OFF).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ON = 1
OFF = 0

IID = "iid"
GILBERT_ELLIOTT = "gilbert_elliott"


@dataclass(frozen=True)
class ChannelModel:
    """Connectivity model for the pair of channels.

    For ``kind="iid"`` each channel is ON with probability ``p1``/``p2``
    every slot, independently of the past.  For ``kind="gilbert_elliott"``
    each channel flips its state with probability ``epsilon`` per slot
    (symmetric chain, stationary marginal 1/2).  ``epsilon`` is restricted
    to (0, 0.5]: a frozen channel (epsilon = 0) makes every downstream
    chain reducible, and epsilon <= 0.5 keeps the correlation nonnegative.
    """

    kind: str
    p1: float | None = None
    p2: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind == IID:
            if self.p1 is None or self.p2 is None:
                raise ValueError("iid model requires p1 and p2")
            if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
                raise ValueError(f"iid probabilities must lie in [0, 1], got p1={self.p1}, p2={self.p2}")
        elif self.kind == GILBERT_ELLIOTT:
            if self.epsilon is None:
                raise ValueError("gilbert_elliott model requires epsilon")
            if not (0.0 < self.epsilon <= 0.5):
                raise ValueError(f"epsilon must lie in (0, 0.5], got {self.epsilon}")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")


def iid(p1: float, p2: float) -> ChannelModel:
    return ChannelModel(IID, p1=p1, p2=p2)


def gilbert_elliott(epsilon: float) -> ChannelModel:
    return ChannelModel(GILBERT_ELLIOTT, epsilon=epsilon)


def sample_initial(model: ChannelModel, rng: np.random.Generator) -> tuple[int, int]:
    """Draw the slot-0 channel pair from the Markov model's stationary law (ON w.p. 1/2)."""
    if model.kind != GILBERT_ELLIOTT:
        raise ValueError("the slot-0 draw is only defined for the gilbert_elliott model")
    return int(rng.random() < 0.5), int(rng.random() < 0.5)


def predict(model: ChannelModel, c: int, tau: int) -> float:
    """Expected channel state tau slots ahead given the current state.

    Uses the eigendecomposition of the symmetric 2x2 chain:
    E[C(t+tau) | C(t)=c] = 1/2 +/- (1/2) (1 - 2 eps)^tau.
    Only defined for the Markov model; under iid the conditional mean is
    just p_i and must not be routed through here.
    """
    if model.kind != GILBERT_ELLIOTT:
        raise ValueError("prediction is only defined for the gilbert_elliott model")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    sign = 1.0 if c == ON else -1.0
    return 0.5 + sign * 0.5 * (1.0 - 2.0 * model.epsilon) ** tau


def lookahead_sum(model: ChannelModel, c: int, k: int) -> float:
    """Sum of predict(c, tau) for tau = 1..k, the k-slot expected service credit."""
    return sum(predict(model, c, tau) for tau in range(1, k + 1))


def generate_paths(model: ChannelModel, horizon: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw both channel paths C(t) for t = 0..horizon-1.

    Slot 0 follows the stationary law (sample_initial for the Markov
    model); later slots follow the one-step dynamics.  Vectorized so
    simulation loops never pay per-slot RNG overhead.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if model.kind == IID:
        c1 = (rng.random(horizon) < model.p1).astype(np.int8)
        c2 = (rng.random(horizon) < model.p2).astype(np.int8)
        return c1, c2
    c1_0, c2_0 = sample_initial(model, rng)
    e = model.epsilon
    # flips[t] moves the chain from slot t-1 to slot t; flips[0] is unused
    flips1 = rng.random(horizon) < e
    flips2 = rng.random(horizon) < e
    flips1[0] = False
    flips2[0] = False
    c1 = (np.cumsum(flips1) & 1).astype(np.int8) ^ c1_0
    c2 = (np.cumsum(flips2) & 1).astype(np.int8) ^ c2_0
    return c1, c2

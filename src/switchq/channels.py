"""ON/OFF connectivity processes for the two-queue system.

A ChannelModel is per-slot independent draws ("iid", ON probabilities p1
and p2) or, iff epsilon is given, the symmetric two-state Markov chain with
flip probability epsilon ("gilbert_elliott").  Channel values are 1 (ON) and 0 (OFF).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelModel:
    """Connectivity model for the pair of channels: Markov iff ``epsilon`` is given, iid otherwise.

    iid: each channel is ON with probability ``p1``/``p2`` every slot,
    independently of the past.  Markov: each channel flips its state with
    probability ``epsilon`` per slot (symmetric chain, stationary marginal
    1/2).  ``epsilon`` is restricted to (0, 0.5]: a frozen channel (epsilon
    = 0) makes every downstream chain reducible, and epsilon <= 0.5 keeps
    the correlation nonnegative.  A model takes epsilon or both p's, not both.
    """

    p1: float | None = None
    p2: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if (self.p1 is None, self.p2 is None) != (self.epsilon is not None,) * 2:
            raise ValueError(f"a channel model takes either epsilon or both p1 and p2, got {self}")
        if self.epsilon is not None:
            check_epsilon(self.epsilon)
        elif not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ValueError(f"iid probabilities must lie in [0, 1], got p1={self.p1}, p2={self.p2}")


def check_epsilon(epsilon: float) -> float:
    """The flip probability as a float, refused outside (0, 0.5] (nan included)."""
    if not (0.0 < epsilon <= 0.5):
        raise ValueError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    return float(epsilon)


def iid(p1: float, p2: float) -> ChannelModel:
    return ChannelModel(p1, p2)


def gilbert_elliott(epsilon: float) -> ChannelModel:
    return ChannelModel(epsilon=epsilon)


_PATH_CHUNK = 2**16  # slots per chunk of generate_paths' draws


def generate_paths(model: ChannelModel, horizon: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw both channel paths C(t) for t = 0..horizon-1, as int8 arrays.

    Slot 0 follows the stationary law (each Markov channel ON w.p. 1/2,
    channel 1 drawn first); later slots follow the one-step dynamics.
    Vectorized so simulation loops never pay per-slot RNG overhead, and
    drawn in chunks of _PATH_CHUNK slots, so that no float per slot is held.
    """
    paths = np.empty((2, operator.index(horizon)), dtype=np.int8)
    for t0, chunk in zip(range(0, paths.shape[1], _PATH_CHUNK), path_chunks(model, horizon, [rng], _PATH_CHUNK)):
        paths[:, t0 : t0 + _PATH_CHUNK] = chunk[:, 0]
    return paths[0], paths[1]


def stream_at(rng: np.random.Generator, offset: int) -> np.random.Generator:
    """A generator that reads rng's stream from `offset` draws ahead; rng does not move."""
    source = rng.bit_generator
    bit_generator = type(source)(source.seed_seq)  # rng's seed sequence, not a new one: the state is replaced next
    bit_generator.state = source.state
    bit_generator.advance(offset)
    return np.random.Generator(bit_generator)


def path_chunks(model: ChannelModel, horizon: int, rngs: list[np.random.Generator], size: int):
    """generate_paths of each generator in rngs, in consecutive chunks of at most `size` slots.

    Yields int8 arrays indexed [channel, generator, slot], each written
    over the last.  The two channels are streams 0 and 1 of bit_chunks,
    read after the slot-0 draw.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    markov = model.epsilon is not None
    last = np.array([(rng.random() < 0.5, rng.random() < 0.5) if markov else (0, 0) for rng in rngs]).T
    probs = (model.epsilon,) * 2 if markov else (model.p1, model.p2)
    chunks = bit_chunks(rngs, np.broadcast_to(np.array(probs)[:, None], last.shape), horizon, size)
    for t0, bits in zip(range(0, horizon, size), chunks):  # ON for iid, a flip for the Markov model
        if markov:  # bits[t] moves the chain from slot t-1 to slot t
            if t0 == 0:
                bits[:, :, 0] = False  # slot 0 is the drawn start
            np.logical_xor.accumulate(bits, axis=2, out=bits)
            bits ^= last[:, :, None]
            last = bits[:, :, -1].copy()
        yield bits.view(np.int8)


def bit_chunks(rngs: list[np.random.Generator], probs, horizon: int, size: int):
    """Bernoulli streams of each generator in rngs, in consecutive chunks of at most `size` slots.

    Yields bool arrays indexed [stream, generator, slot], each written over
    the last: entry [k, i, t] is whether draw t of stream k of rngs[i]
    falls below probs[k][i].  Stream k is read from k * horizon draws ahead
    (stream_at), so one chunk at a time is held.  When the first chunk is
    taken, every generator moves past all its draws.
    """
    horizon = operator.index(horizon)  # a numpy integer would overflow in advance()
    streams = [[stream_at(rng, k * horizon) for rng in rngs] for k in range(len(probs))]
    for rng in rngs:
        rng.bit_generator.advance(len(probs) * horizon)
    buffer, floats = np.empty((len(probs), len(rngs), min(size, horizon)), dtype=bool), np.empty(min(size, horizon))
    for t0 in range(0, horizon, size):
        bits, draws = buffer[:, :, : horizon - t0], floats[: horizon - t0]
        for row_streams, row_bits, row_probs in zip(streams, bits, probs):
            for stream, out, p in zip(row_streams, row_bits, row_probs):
                np.less(stream.random(out=draws), p, out=out)
        yield bits

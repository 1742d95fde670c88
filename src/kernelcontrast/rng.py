"""Deterministic random numbers from a counter-based SplitMix64 stream.

Every stochastic component in this package (random features, landmark
selection, synthetic data, parameter initialization) draws from the same
generator so that a seed pins down the whole run, independent of numpy
version or draw batching.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Stream"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

_TWO53 = float(1 << 53)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


class Stream:
    """Counter-mode SplitMix64: output i is a pure function of (seed, i).

    Draws advance an integer counter, so a stream can be reproduced from
    its seed alone and batched draws equal one-at-a-time draws.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix(self._seed + idx * _GAMMA)

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n uniform draws from [low, high)."""
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) / _TWO53
        return low + (high - low) * u

    def normal(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller on uniform pairs.

        The first uniform of each pair is shifted into (0, 1] so the log
        never sees zero. Odd n consumes a full pair and discards one value,
        keeping the counter advance predictable.
        """
        pairs = (n + 1) // 2
        raw = self._raw(2 * pairs)
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) / _TWO53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def choice_without_replacement(self, n_total: int, n_pick: int) -> np.ndarray:
        """Pick n_pick distinct indices from range(n_total), uniformly.

        Partial Fisher-Yates driven by this stream; result order is the
        shuffle order (itself uniform over ordered picks). Step i reduces
        one raw 64-bit word mod n_total - i, a bias of at most n_total / 2**64.
        """
        if not 0 < n_pick <= n_total:
            raise ValueError(f"cannot pick {n_pick} from {n_total}")
        pool = np.arange(n_total)
        draws = self._raw(n_pick)
        for i in range(n_pick):
            j = i + int(draws[i]) % (n_total - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:n_pick].copy()

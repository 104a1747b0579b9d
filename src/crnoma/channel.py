"""Reproducible Rayleigh-fading gain sampling on counter-based substreams.

Channel coefficients are unit-variance complex Gaussian, so the gains
g = |h|^2 are exponential with mean 1. We draw them by inverse CDF on a
uniform, g = -log(1 - u), which is equivalent in distribution and costs one
uniform per gain. Streams are Philox counter-based generators keyed by
(seed, stream_index): any (seed, stream, draw index) triple maps to the same
value on every run and for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import _as_count

_MAX_SEED = 2**64  # a Philox key word holds 64 bits


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and substream layout for one reproducible experiment."""

    seed: int
    stream_count: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _as_count("seed", self.seed, 0, _MAX_SEED))
        object.__setattr__(self, "stream_count", _as_count("stream_count", self.stream_count, 1))


class GainStream:
    """One exclusive substream of gain pairs (g0, g1).

    Draw order is fixed: each realization consumes two uniforms, g0 first.
    """

    def __init__(self, seed: int, stream_index: int) -> None:
        self.seed = _as_count("seed", seed, 0, _MAX_SEED)
        self.stream_index = _as_count("stream_index", stream_index, 0, _MAX_SEED)
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)  # a list makes seeds >= 2^63 float64
        self.rng = np.random.Generator(np.random.Philox(key=key))

    def gains(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw n gain pairs as two float64 arrays (g0, g1), the rows of one (2, n) array.

        The transform runs in place on that array, so a block allocates it
        and the uniforms, and no temporary per gain. n must be a count, as
        params._as_count checks it; 0 gives two empty arrays.
        """
        n = _as_count("n", n, 0)
        u = self.rng.random((n, 2))
        g = np.empty((2, n))
        np.negative(u.T, out=g)
        np.log1p(g, out=g)
        np.negative(g, out=g)
        return g[0], g[1]

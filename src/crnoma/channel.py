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

from .errors import ParameterError

_MAX_SEED = 2**64


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is not a count


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and substream layout for one reproducible experiment."""

    seed: int
    stream_count: int = 16

    def __post_init__(self) -> None:
        if not _is_int(self.seed) or not 0 <= self.seed < _MAX_SEED:
            raise ParameterError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not _is_int(self.stream_count) or self.stream_count < 1:
            raise ParameterError(f"stream_count must be a positive integer, got {self.stream_count!r}")


class GainStream:
    """One exclusive substream of gain pairs (g0, g1).

    Draw order is fixed: each realization consumes two uniforms, g0 first.
    """

    def __init__(self, seed: int, stream_index: int) -> None:
        if not 0 <= stream_index < _MAX_SEED:
            raise ParameterError(f"stream_index out of range: {stream_index!r}")
        self.seed = seed
        self.stream_index = stream_index
        self.rng = np.random.Generator(np.random.Philox(key=[seed, stream_index]))

    def gains(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw n gain pairs as two float64 arrays (g0, g1), the rows of one (2, n) array.

        The transform runs in place on that array, so a block allocates it
        and the uniforms, and no temporary per gain.
        """
        u = self.rng.random((n, 2))
        g = np.empty((2, n))
        np.negative(u.T, out=g)
        np.log1p(g, out=g)
        np.negative(g, out=g)
        return g[0], g[1]

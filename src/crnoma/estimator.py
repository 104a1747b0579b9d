"""Seeded, sharded Monte Carlo estimation for every scheme and metric.

Work is split by realization-index ranges onto the sampler's substreams:
shard i always covers the same index range and always uses stream i, so the
counts are identical no matter how many workers execute the shards. Shards
reduce by exact integer summation (and shard-ordered float summation for the
rate metrics), which makes estimates bit-identical across parallelism
degrees. Within a shard, realizations are drawn in fixed-size blocks; the
block size is a module constant, not a tuning knob, so it cannot perturb
results either. Each block is tallied by the one per-realization rule in
strategy (``_Rule``), evaluated on gain arrays with numpy as its namespace;
``evaluate_outcome`` evaluates the same rule on floats.

Because the gains depend only on (seed, stream_count, n_samples), a key's
draw set is a pure function of it: ``_kept_shards`` caches the most recent
one, read-only. A call that repeats the previous call's key tallies that set,
so a sweep draws twice for all its axis values (the keeping call draws its
shards serially, once); a call with a new key empties the cache before it
draws, and a one-off call holds only the blocks in flight. Sets above a fixed
cap of draws (16 bytes each) are drawn block by block on every call. No lock
is needed: whatever set a call tallies is the deterministic draw for its key,
tallied in the same block and merge order as a fresh draw, so every count
and rate sum is bit-identical either way.

All schemes and metrics requested in one batch share the same realizations
(common random numbers), so scheme comparisons are paired: the per-realization
rate ordering rs >= nh-sic >= qos-sic >= csi-sic carries over to the counts
with no statistical noise on the differences.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import GainStream, SamplerConfig
from .errors import InsufficientConditioningError, ParameterError, UnknownSchemeError
from .params import SystemParams, derive_constants
from .strategy import SchemeId, _Rule, _SchemeRule

_BLOCK = 1 << 20  # realizations per vectorized block inside a shard
_KEEP_MAX_DRAWS = 1 << 20  # largest draw set kept between calls: 16 MiB at 16 bytes per draw
_WORKERS_ENV = "CRNOMA_WORKERS"
_Z95 = 1.959963984540054


class Metric(Enum):
    OUTAGE_TOTAL = "outage-total"
    OUTAGE_CASE_I = "outage-case-i"
    OUTAGE_CASE_II = "outage-case-ii"
    OUTAGE_CASE_III = "outage-case-iii"
    OUTAGE_CASE_II_CONDITIONAL = "outage-case-ii-conditional"
    PRIMARY_OUTAGE = "primary-outage"
    ADMISSION = "admission"
    THROUGHPUT_DELAY_LIMITED = "throughput-delay-limited"
    THROUGHPUT_ERGODIC = "throughput-ergodic"


_SECONDARY_SCHEMES = (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC, SchemeId.CSI_SIC)


@dataclass
class SchemeTally:
    """Outage counts per case plus achieved-rate sums for one scheme."""

    outage_case_i: int = 0
    outage_case_ii: int = 0
    outage_case_iii: int = 0
    rate_sum: float = 0.0
    rate_sq_sum: float = 0.0

    @property
    def outage_total(self) -> int:
        return self.outage_case_i + self.outage_case_ii + self.outage_case_iii

    def merge(self, other: "SchemeTally") -> None:
        self.outage_case_i += other.outage_case_i
        self.outage_case_ii += other.outage_case_ii
        self.outage_case_iii += other.outage_case_iii
        self.rate_sum += other.rate_sum
        self.rate_sq_sum += other.rate_sq_sum


@dataclass
class PopulationTally:
    """Event counts over a batch of realizations, mergeable across shards."""

    n: int = 0
    case_i: int = 0
    case_ii: int = 0
    case_iii: int = 0
    primary_outage: int = 0
    schemes: dict[SchemeId, SchemeTally] = field(default_factory=dict)

    def merge(self, other: "PopulationTally") -> None:
        self.n += other.n
        self.case_i += other.case_i
        self.case_ii += other.case_ii
        self.case_iii += other.case_iii
        self.primary_outage += other.primary_outage
        for scheme, tally in other.schemes.items():
            self.schemes.setdefault(scheme, SchemeTally()).merge(tally)


def tally_population(params: SystemParams, g0: np.ndarray, g1: np.ndarray,
                     schemes: tuple[SchemeId, ...] = _SECONDARY_SCHEMES,
                     with_rates: bool = False) -> PopulationTally:
    """Count and sum strategy's per-realization rule over gain arrays.

    The rule is strategy._Rule evaluated with numpy as its namespace;
    strategy.evaluate_outcome evaluates the same expressions on floats, so
    both paths agree realization by realization. Case masks are computed once
    per block and shared by every scheme.
    """
    rule = _Rule(derive_constants(params), params.p0 * g0, params.p1 * g1, with_rates, np)
    tally = PopulationTally(
        n=int(g0.size),
        case_i=int(np.count_nonzero(rule.case_i)),
        case_ii=int(np.count_nonzero(rule.case_ii)),
        case_iii=int(np.count_nonzero(rule.case_iii)),
        primary_outage=int(np.count_nonzero(rule.primary_outage)),
    )
    for scheme in schemes:
        tally.schemes[scheme] = _scheme_tally(rule, rule.scheme(scheme))
    return tally


def _scheme_tally(rule: _Rule, own: _SchemeRule | None) -> SchemeTally:
    """Counts and sums of one scheme; its arrays are freed before the next scheme's are built."""
    st = SchemeTally()
    if own is None:
        return st
    st.outage_case_i = int(np.count_nonzero(rule.case_i & own.outage))
    st.outage_case_iii = int(np.count_nonzero(rule.case_iii & own.outage))
    st.outage_case_ii = int(np.count_nonzero(own.outage)) - st.outage_case_i - st.outage_case_iii
    if own.rate is not None:
        st.rate_sum = float(own.rate.sum())
        st.rate_sq_sum = float(np.square(own.rate).sum())
    return st


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo mean with its standard error and 95% interval.

    For conditional metrics, n_samples is the number of conditioning events
    (the denominator of the mean), not the number of raw draws.
    """

    scheme: SchemeId
    metric: Metric
    mean: float
    std_error: float
    ci95_low: float
    ci95_high: float
    n_samples: int


def _wilson_interval(successes: int, n: int) -> tuple[float, float]:
    z2 = _Z95 * _Z95
    phat = successes / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _bernoulli_estimate(scheme: SchemeId, metric: Metric, successes: int, n: int) -> OutageEstimate:
    mean = successes / n
    se = math.sqrt(mean * (1.0 - mean) / n)
    if successes < 100:
        lo, hi = _wilson_interval(successes, n)
    else:
        lo, hi = max(0.0, mean - _Z95 * se), min(1.0, mean + _Z95 * se)
    return OutageEstimate(scheme, metric, mean, se, lo, hi, n)


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParameterError(f"{_WORKERS_ENV} must be an integer, got {env!r}") from None
    return min(2, os.cpu_count() or 1)


def _shard_sizes(n_samples: int, stream_count: int) -> list[int]:
    base, rem = divmod(n_samples, stream_count)
    return [base + (1 if i < rem else 0) for i in range(stream_count)]


_Block = tuple[np.ndarray, np.ndarray]  # (g0, g1) gains of one block

# the last call's (seed, stream_count, n_samples) key; a call that repeats it keeps its draw set
_last_key: tuple[int, int, int] | None = None


def _draw(stream: GainStream, size: int) -> Iterator[_Block]:
    """Draw one shard block by block."""
    done = 0
    while done < size:
        m = min(_BLOCK, size - done)
        yield stream.gains(m)
        done += m


def _shard_blocks(seed: int, stream_count: int, n_samples: int) -> list[Iterator[_Block]]:
    """One block iterator per nonempty shard; zero-size shards come last, so shard i uses stream i."""
    sizes = [size for size in _shard_sizes(n_samples, stream_count) if size > 0]
    return [_draw(GainStream(seed, i), size) for i, size in enumerate(sizes)]


@functools.lru_cache(maxsize=1)
def _kept_shards(seed: int, stream_count: int, n_samples: int) -> tuple[tuple[_Block, ...], ...]:
    """The whole draw set of a key as read-only per-shard tuples of blocks."""
    shards = tuple(tuple(blocks) for blocks in _shard_blocks(seed, stream_count, n_samples))
    for blocks in shards:
        for g0, g1 in blocks:
            g0.flags.writeable = g1.flags.writeable = False
    return shards


def _run_shard(params: SystemParams, blocks: Iterable[_Block],
               schemes: tuple[SchemeId, ...], with_rates: bool) -> PopulationTally:
    total = PopulationTally()
    for g0, g1 in blocks:
        total.merge(tally_population(params, g0, g1, schemes, with_rates))
    return total


def simulate_tally(params: SystemParams, sampler: SamplerConfig, n_samples: int,
                   schemes: tuple[SchemeId, ...] = _SECONDARY_SCHEMES,
                   with_rates: bool = False, workers: int | None = None) -> PopulationTally:
    """Tally n_samples realizations across the sampler's substreams."""
    global _last_key
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    nworkers = _worker_count(workers)
    key = (sampler.seed, sampler.stream_count, n_samples)
    repeat, _last_key = key == _last_key, key
    if not repeat:
        _kept_shards.cache_clear()  # release the old set before drawing the new one
    jobs = _kept_shards(*key) if repeat and n_samples <= _KEEP_MAX_DRAWS else _shard_blocks(*key)
    if nworkers == 1 or len(jobs) == 1:
        shard_tallies = [_run_shard(params, blocks, schemes, with_rates) for blocks in jobs]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            futures = [pool.submit(_run_shard, params, blocks, schemes, with_rates) for blocks in jobs]
            shard_tallies = [f.result() for f in futures]  # shard order, not completion order
    total = PopulationTally()
    for t in shard_tallies:
        total.merge(t)
    return total


def _needs_rates(metrics: Iterable[Metric]) -> bool:
    """Whether any of the metrics is estimated from achieved-rate sums, not from counts alone."""
    return any(m is Metric.THROUGHPUT_ERGODIC for m in metrics)


def estimate_from_tally(scheme: SchemeId, metric: Metric, params: SystemParams,
                        tally: PopulationTally) -> OutageEstimate:
    """Derive one estimate from an existing tally (no further sampling)."""
    n = tally.n
    if scheme is SchemeId.OMA_PRIMARY and metric not in (Metric.PRIMARY_OUTAGE, Metric.ADMISSION):
        raise UnknownSchemeError(f"{scheme} carries no secondary transmission; {metric} undefined")

    if metric is Metric.PRIMARY_OUTAGE:
        return _bernoulli_estimate(scheme, metric, tally.primary_outage, n)
    if metric is Metric.ADMISSION:
        return _bernoulli_estimate(scheme, metric, tally.case_ii, n)

    st = tally.schemes[scheme]
    if metric is Metric.OUTAGE_TOTAL:
        return _bernoulli_estimate(scheme, metric, st.outage_total, n)
    if metric is Metric.OUTAGE_CASE_I:
        return _bernoulli_estimate(scheme, metric, st.outage_case_i, n)
    if metric is Metric.OUTAGE_CASE_II:
        return _bernoulli_estimate(scheme, metric, st.outage_case_ii, n)
    if metric is Metric.OUTAGE_CASE_III:
        return _bernoulli_estimate(scheme, metric, st.outage_case_iii, n)
    if metric is Metric.OUTAGE_CASE_II_CONDITIONAL:
        if tally.case_ii < 100:
            raise InsufficientConditioningError(
                f"only {tally.case_ii} case-II events in {n} draws; need at least 100"
            )
        return _bernoulli_estimate(scheme, metric, st.outage_case_ii, tally.case_ii)
    if metric is Metric.THROUGHPUT_DELAY_LIMITED:
        base = _bernoulli_estimate(scheme, Metric.OUTAGE_TOTAL, st.outage_total, n)
        r1 = params.r1_hat
        return OutageEstimate(scheme, metric, r1 * (1.0 - base.mean), r1 * base.std_error,
                              r1 * (1.0 - base.ci95_high), r1 * (1.0 - base.ci95_low), n)
    if metric is Metric.THROUGHPUT_ERGODIC:
        mean = st.rate_sum / n
        var = max(0.0, st.rate_sq_sum / n - mean * mean)
        se = math.sqrt(var / n)
        return OutageEstimate(scheme, metric, mean, se, mean - _Z95 * se, mean + _Z95 * se, n)
    raise ValueError(f"unknown metric {metric!r}")


def estimate_batch(schemes: list[SchemeId], params: SystemParams, metrics: list[Metric],
                   n_samples: int, sampler: SamplerConfig,
                   workers: int | None = None) -> list[OutageEstimate]:
    """Estimate every (scheme, metric) pair from one shared realization stream.

    Output order matches the (scheme-major, metric-minor) input order.
    """
    if not schemes or not metrics:
        raise ValueError("schemes and metrics must be nonempty")
    tally_schemes = tuple(dict.fromkeys(schemes))
    tally = simulate_tally(params, sampler, n_samples, tally_schemes, _needs_rates(metrics), workers)
    return [
        estimate_from_tally(scheme, metric, params, tally)
        for scheme in schemes
        for metric in metrics
    ]


def estimate(scheme: SchemeId, params: SystemParams, metric: Metric, n_samples: int,
             sampler: SamplerConfig, workers: int | None = None) -> OutageEstimate:
    """Monte Carlo estimate of one metric for one scheme."""
    return estimate_batch([scheme], params, [metric], n_samples, sampler, workers)[0]

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

Because the gains depend only on (seed, stream_count, n_samples), a call
whose key repeats the previous call's keeps its blocks, read-only, and every
later call with that key tallies them instead of drawing again: a sweep draws
twice for all its axis values. A one-off call keeps nothing, so it holds no
more than the blocks in flight. Only one draw set is kept (16 bytes per
draw), and only up to a fixed cap of draws; larger sets are drawn block by
block on every call, so memory stays bounded. A call that draws releases the
kept set first and publishes its own once every shard is done; the slot is
swapped under a lock, and a call that started on a kept set holds on to it,
so concurrent calls with different keys each tally their own draws. A kept
set is tallied in the same block and merge order as a fresh draw, so every
count and rate sum is bit-identical either way.

All schemes and metrics requested in one batch share the same realizations
(common random numbers), so scheme comparisons are paired: the per-realization
rate ordering rs >= nh-sic >= qos-sic >= csi-sic carries over to the counts
with no statistical noise on the differences.
"""

from __future__ import annotations

import math
import os
import threading
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
_RATE_METRICS = (Metric.THROUGHPUT_ERGODIC,)


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

# the last call's (seed, stream_count, n_samples) key and, once that key has come
# twice in a row, its draw set as per-shard tuples of blocks
_kept: tuple[tuple[int, int, int], tuple[tuple[_Block, ...], ...] | None] | None = None
_kept_lock = threading.Lock()


def _draw(stream: GainStream, size: int, keep: list | None) -> Iterator[_Block]:
    """Draw one shard block by block; with `keep`, also store each block read-only."""
    done = 0
    while done < size:
        m = min(_BLOCK, size - done)
        g0, g1 = stream.gains(m)
        if keep is not None:
            g0.flags.writeable = g1.flags.writeable = False
            keep.append((g0, g1))
        yield g0, g1
        done += m


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
    global _kept
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    nworkers = _worker_count(workers)
    key = (sampler.seed, sampler.stream_count, n_samples)
    with _kept_lock:
        last_key, kept = _kept or (None, None)
        if last_key != key:
            kept = None
        if kept is None:
            _kept = (key, None)  # release the old set before drawing the new one
    if kept is not None:
        jobs, drawn = kept, None
    else:
        # zero-size shards come last, so shard i still draws from stream i
        sizes = [size for size in _shard_sizes(n_samples, sampler.stream_count) if size > 0]
        drawn = [[] for _ in sizes] if last_key == key and n_samples <= _KEEP_MAX_DRAWS else None
        jobs = [_draw(GainStream(sampler.seed, i), size, None if drawn is None else drawn[i])
                for i, size in enumerate(sizes)]
    if nworkers == 1 or len(jobs) == 1:
        shard_tallies = [_run_shard(params, blocks, schemes, with_rates) for blocks in jobs]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            futures = [pool.submit(_run_shard, params, blocks, schemes, with_rates) for blocks in jobs]
            shard_tallies = [f.result() for f in futures]  # shard order, not completion order
    if drawn is not None:
        with _kept_lock:
            _kept = (key, tuple(tuple(blocks) for blocks in drawn))
    total = PopulationTally()
    for t in shard_tallies:
        total.merge(t)
    return total


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
    need_rates = any(m in _RATE_METRICS for m in metrics)
    tally_schemes = tuple(dict.fromkeys(schemes))
    tally = simulate_tally(params, sampler, n_samples, tally_schemes, need_rates, workers)
    return [
        estimate_from_tally(scheme, metric, params, tally)
        for scheme in schemes
        for metric in metrics
    ]


def estimate(scheme: SchemeId, params: SystemParams, metric: Metric, n_samples: int,
             sampler: SamplerConfig, workers: int | None = None) -> OutageEstimate:
    """Monte Carlo estimate of one metric for one scheme."""
    return estimate_batch([scheme], params, [metric], n_samples, sampler, workers)[0]

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
``evaluate_outcome`` evaluates the same rule on floats. With rates, a block's
rule runs on strips of at most ``_STRIP`` draws, cut where numpy's pairwise
summation cuts the block, so each rate sum is the same additions in the same
order as one sum over the block (see ``_tally_strips``); the strips keep the
rate path's temporaries small enough to be reused rather than faulted in
afresh for every block. Counts alone are tallied on whole blocks, and each
test is counted once: the case-I and case-III outage tests that RS, NH-SIC
and QoS-SIC share are counted once for all three. Shards run on one thread
pool per process, kept from call to call (see ``_executor``).

A tally holds only the products of the rule that its metrics read
(``_tally_products``): the case and outage counts, the achieved-rate sums,
or both. An ergodic-throughput-only batch or sweep therefore evaluates no
outage test and counts nothing; the tally records what it holds, and
``estimate_from_tally`` refuses a metric it cannot answer.

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
import operator
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
_STRIP = 1 << 14  # most realizations per rule evaluation with rates (see _tally_strips)
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
    """Event counts and rate sums over a batch of realizations, mergeable across shards.

    has_counts and has_rates record which products it holds: the case and
    outage counts, and each scheme's rate sums. A product it does not hold
    reads as zero, so estimate_from_tally refuses a metric that needs it.
    """

    n: int = 0
    case_i: int = 0
    case_ii: int = 0
    case_iii: int = 0
    primary_outage: int = 0
    schemes: dict[SchemeId, SchemeTally] = field(default_factory=dict)
    has_counts: bool = True
    has_rates: bool = False

    def merge(self, other: "PopulationTally") -> None:
        """Add other's draws; both must hold the same products and cover the same schemes.

        An empty accumulator (no draws, no schemes) takes other's schemes.
        """
        if (self.has_counts, self.has_rates) != (other.has_counts, other.has_rates):
            raise ValueError(f"cannot merge a tally of {_products_text(other)} "
                             f"into one of {_products_text(self)}")
        if self.schemes.keys() != other.schemes.keys() and (self.n or self.schemes):
            raise ValueError(f"cannot merge a tally covering {_schemes_text(other)} "
                             f"into one covering {_schemes_text(self)}")
        self.n += other.n
        self.case_i += other.case_i
        self.case_ii += other.case_ii
        self.case_iii += other.case_iii
        self.primary_outage += other.primary_outage
        for scheme, tally in other.schemes.items():
            self.schemes.setdefault(scheme, SchemeTally()).merge(tally)


def _products_text(tally: PopulationTally) -> str:
    held = [name for name, has in (("outage counts", tally.has_counts),
                                   ("rate sums", tally.has_rates)) if has]
    return " and ".join(held) or "draws alone"


def _schemes_text(tally: PopulationTally) -> str:
    return ", ".join(s.value for s in tally.schemes) or "no scheme"


def tally_population(params: SystemParams, g0: np.ndarray, g1: np.ndarray,
                     schemes: tuple[SchemeId, ...] = _SECONDARY_SCHEMES,
                     with_rates: bool = False, *, with_counts: bool = True) -> PopulationTally:
    """Count and sum strategy's per-realization rule over gain arrays.

    The rule is strategy._Rule evaluated with numpy as its namespace;
    strategy.evaluate_outcome evaluates the same expressions on floats, so
    both paths agree realization by realization. with_counts and with_rates
    pick the rule's products: the case and outage counts, and the
    achieved-rate sums. A rates-only tally (with_counts=False) skips every
    outage test and count and holds only n and the rate sums.

    Every count is a Python int, and each is taken once per array: case II
    and case III by subtraction from the admission and case-I counts, the
    case-I and case-III outages of RS, NH-SIC and QoS-SIC from the rule's
    shared tests, so each of those schemes adds only its case-II count.

    With rates, the rule runs on strips of at most _STRIP draws (see
    _tally_strips), one call per block still: the temporaries of a
    62,500-draw block (500 KB each) were returned to the kernel after every
    call and faulted in again, while those of a strip are reused. The rate
    sums are still exactly ``rate.sum()`` over the whole arrays, provided
    numpy sums pairwise as tests/test_estimator.py pins. Counts alone stay
    on whole arrays: strips quadruple their numpy calls, each one a handoff
    of the GIL between the worker threads. Four schemes' counts over 10^6
    draws in 62,500-draw blocks on two threads took 8.6-10.0 ms on whole
    blocks against 20-22 ms on strips (2 vCPUs, numpy 2.4).
    """
    if with_rates:
        return _tally_strips(params, g0, g1, schemes, with_counts)
    return _tally(params, g0, g1, schemes, with_counts, False)


def _tally_strips(params: SystemParams, g0: np.ndarray, g1: np.ndarray,
                  schemes: tuple[SchemeId, ...], with_counts: bool) -> PopulationTally:
    """Tally with rates, split where numpy's pairwise summation splits.

    numpy sums a contiguous float64 array of n > 128 elements as the sum of
    its first n//2 - n//2 % 8 elements plus the sum of the rest, recursively
    (pairwise summation; Higham, SIAM J. Sci. Comput. 1993). Splitting at the
    same index and adding the left half's sums to the right half's therefore
    makes every rate sum the same additions, in the same order, as one
    ``sum()`` over the whole arrays; counts are integers and exact anyway.
    """
    n = g0.size
    if n <= _STRIP:
        return _tally(params, g0, g1, schemes, with_counts, True)
    half = n // 2 - n // 2 % 8
    left = _tally_strips(params, g0[:half], g1[:half], schemes, with_counts)
    left.merge(_tally_strips(params, g0[half:], g1[half:], schemes, with_counts))
    return left


def _tally(params: SystemParams, g0: np.ndarray, g1: np.ndarray,
           schemes: tuple[SchemeId, ...], with_counts: bool, with_rates: bool) -> PopulationTally:
    rule = _Rule(derive_constants(params), params.p0 * g0, params.p1 * g1, with_counts, with_rates, np)
    n = int(g0.size)
    tally = PopulationTally(n=n, has_counts=with_counts, has_rates=with_rates)
    shared = None
    if with_counts:
        admitted = _count(rule.admitted)
        tally.case_i = _count(rule.case_i)
        tally.case_ii = admitted - tally.case_i
        tally.case_iii = n - admitted
        tally.primary_outage = _count(rule.primary_outage)
        # the case-I and case-III outage tests that every admission scheme shares, counted once
        shared = (_count(rule.fail_i), _count(rule.fail_iii))
    for scheme in schemes:
        tally.schemes[scheme] = _scheme_tally(rule, rule.scheme(scheme), shared)
    return tally


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def _scheme_tally(rule: _Rule, own: _SchemeRule | None,
                  shared: tuple[int, int] | None) -> SchemeTally:
    """Counts and sums of one scheme; its arrays are freed before the next scheme's are built."""
    st = SchemeTally()
    if own is None:
        return st
    if own.shared_fail is not None:
        st.outage_case_i, st.outage_case_iii = shared
        st.outage_case_ii = _count(own.own_fail)
    elif own.own_fail is not None:  # CSI-SIC: one test over every case
        st.outage_case_i = _count(rule.case_i & own.own_fail)
        st.outage_case_iii = _count(rule.case_iii & own.own_fail)
        st.outage_case_ii = _count(own.own_fail) - st.outage_case_i - st.outage_case_iii
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
    """Threads for the shards: the argument, else CRNOMA_WORKERS, else min(2, CPUs).

    A count that is not an integer of at least 1 raises ParameterError naming its source.
    """
    if workers is None:
        env = os.environ.get(_WORKERS_ENV)
        if not env:
            return min(2, os.cpu_count() or 1)
        source, given, parse = _WORKERS_ENV, env, int
    else:
        source, given, parse = "workers", workers, operator.index
    try:
        count = parse(given)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ParameterError(f"{source} must be an integer of at least 1, got {given!r}")
    return count


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


def _run_shard(params: SystemParams, blocks: Iterable[_Block], schemes: tuple[SchemeId, ...],
               with_rates: bool, with_counts: bool) -> PopulationTally:
    total = PopulationTally(has_counts=with_counts, has_rates=with_rates)
    for g0, g1 in blocks:
        total.merge(tally_population(params, g0, g1, schemes, with_rates, with_counts=with_counts))
    return total


def simulate_tally(params: SystemParams, sampler: SamplerConfig, n_samples: int,
                   schemes: tuple[SchemeId, ...] = _SECONDARY_SCHEMES,
                   with_rates: bool = False, workers: int | None = None, *,
                   with_counts: bool = True) -> PopulationTally:
    """Tally n_samples realizations across the sampler's substreams.

    with_counts and with_rates pick the tally's products, as in tally_population.
    """
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
        shard_tallies = [_run_shard(params, blocks, schemes, with_rates, with_counts)
                         for blocks in jobs]
    else:
        with _pool_lock:  # a pool is never shut down between getting it and submitting to it
            pool = _executor(nworkers)
            futures = [pool.submit(_run_shard, params, blocks, schemes, with_rates, with_counts)
                       for blocks in jobs]
        shard_tallies = [f.result() for f in futures]  # shard order, not completion order
    total = PopulationTally(has_counts=with_counts, has_rates=with_rates)
    for t in shard_tallies:
        total.merge(t)
    return total


# the shard pool and its worker count; see _executor
_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _executor(nworkers: int) -> ThreadPoolExecutor:
    """The process's shard pool of nworkers threads, kept from one call to the next.

    Starting and joining two threads for every call cost ~0.3 ms (2 vCPUs),
    a thirtieth of a 10^6-draw counts cell. A call with another worker count
    shuts the kept pool down (its submitted shards still finish) and keeps a
    new one. Call under _pool_lock.
    """
    global _pool
    if _pool is None or _pool[0] != nworkers:
        if _pool is not None:
            _pool[1].shutdown(wait=False)
        _pool = (nworkers, ThreadPoolExecutor(max_workers=nworkers))
    return _pool[1]


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads, and any holder of the lock, are not there."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _tally_products(metrics: Iterable[Metric]) -> tuple[bool, bool]:
    """(with_counts, with_rates): the products of a tally that the metrics read.

    The ergodic throughput reads the achieved-rate sums; every other metric
    reads the case and outage counts alone.
    """
    with_counts = with_rates = False
    for m in metrics:
        if m is Metric.THROUGHPUT_ERGODIC:
            with_rates = True
        else:
            with_counts = True
    return with_counts, with_rates


def estimate_from_tally(scheme: SchemeId, metric: Metric, params: SystemParams,
                        tally: PopulationTally) -> OutageEstimate:
    """Derive one estimate from an existing tally (no further sampling).

    A metric whose product the tally does not hold raises ValueError, and a
    secondary scheme the tally does not cover raises UnknownSchemeError.
    """
    n = tally.n
    if scheme is SchemeId.OMA_PRIMARY and metric not in (Metric.PRIMARY_OUTAGE, Metric.ADMISSION):
        raise UnknownSchemeError(f"{scheme} carries no secondary transmission; {metric} undefined")
    needs_counts, needs_rates = _tally_products([metric])
    if (needs_counts and not tally.has_counts) or (needs_rates and not tally.has_rates):
        needed = "outage counts" if needs_counts else "rate sums"
        raise ValueError(f"{metric.value} reads {needed}, but the tally holds {_products_text(tally)}")

    if metric is Metric.PRIMARY_OUTAGE:
        return _bernoulli_estimate(scheme, metric, tally.primary_outage, n)
    if metric is Metric.ADMISSION:
        return _bernoulli_estimate(scheme, metric, tally.case_ii, n)

    st = tally.schemes.get(scheme)
    if st is None:
        raise UnknownSchemeError(f"the tally covers {_schemes_text(tally)}, not {scheme.value}")
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
    with_counts, with_rates = _tally_products(metrics)
    tally = simulate_tally(params, sampler, n_samples, tally_schemes, with_rates, workers,
                           with_counts=with_counts)
    return [
        estimate_from_tally(scheme, metric, params, tally)
        for scheme in schemes
        for metric in metrics
    ]


def estimate(scheme: SchemeId, params: SystemParams, metric: Metric, n_samples: int,
             sampler: SamplerConfig, workers: int | None = None) -> OutageEstimate:
    """Monte Carlo estimate of one metric for one scheme."""
    return estimate_batch([scheme], params, [metric], n_samples, sampler, workers)[0]

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
``evaluate_outcome`` evaluates the same rule on floats. The rule runs on
strips of at most ``_STRIP`` draws, cut where numpy's pairwise summation cuts
the block, so each rate sum is the same additions in the same order as one
sum over the block (see ``_tally_strips``); the strips keep the rule's
temporaries small enough to be reused rather than faulted in afresh for
every block. Each test is counted once: the case-I and case-III outage
tests that RS, NH-SIC and QoS-SIC share are counted once for all three.

With more than one worker, shards run in forked shard-owner processes, kept
from call to call (see ``_owner_pool``): owner k of W tallies the k-th of W
contiguous runs of the nonempty shards, drawing them itself, so the owners'
replies, taken in owner order, are in shard order, and the caller merges
them in that order. A call runs on at most as many workers as it has
nonempty shards, so no owner idles. The job is one tuple of plain fields,
built once by simulate_tally and read by ``_own_tallies`` wherever it runs;
the pipes carry it, pickled once for every owner, and each tally back as one
flat tuple (``_flat``). Pickling SystemParams with its derived constants, the
tally dataclasses and SchemeId members took ~145 us of a ~835 us counts-only
sweep cell. Threads had to retake the GIL between every two numpy calls,
so two of them ran little faster than one; two processes share nothing.
With one worker, the calling process runs ``_own_tallies`` on the same job
itself.

A tally holds only the products of the rule that its metrics read
(``_tally_products``): the case and outage counts, the achieved-rate sums,
or both. An ergodic-throughput-only batch or sweep therefore evaluates no
outage test and counts nothing; the tally records what it holds, and
``estimate_from_tally`` refuses a metric it cannot answer.

Because the gains depend only on (seed, stream_count, n_samples), a key's
draw set is a pure function of it: each owner (or the calling process, with
one worker) keeps its own shards of the last key it drew, read-only, when
the key has at most ``_KEEP_MAX_DRAWS`` draws, so a sweep draws once for all
its axis values. A new key releases the kept shards before drawing; larger
sets are drawn block by block on every call. Whatever shards a call
tallies are the deterministic draw for its key, tallied in the same block
and merge order, so every count and rate sum is bit-identical either way.

Counts-only jobs on kept shards skip most draws. The first one that finds
its key kept bins the kept draws by cells of the gain plane (``_GainIndex``);
each such job then evaluates the rule once, at the cells' corners, counts
every cell whose corners agree on every comparison as its draw count times
that outcome, and tallies only the other cells' draws (about 11% on the
figure presets) on strips. Counts are integers, so the total is the strip
path's exactly. Every other job, the one that draws a key included, takes
the strip path.

All schemes and metrics requested in one batch share the same realizations
(common random numbers), so scheme comparisons are paired: the per-realization
rate ordering rs >= nh-sic >= qos-sic >= csi-sic carries over to the counts
with no statistical noise on the differences.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import GainStream, SamplerConfig
from .errors import InsufficientConditioningError, ParameterError, UnknownSchemeError
from .params import SystemParams, _as_count, _slot_init, derive_constants
from .strategy import SchemeId, _Rule, _SchemeRule

_BLOCK = 1 << 20  # realizations per vectorized block inside a shard
_KEEP_MAX_DRAWS = 1 << 20  # largest draw set kept between calls: 16 MiB at 16 bytes per draw
_STRIP = 1 << 14  # most realizations per rule evaluation with rates (see _tally_strips)
_GRID = 64  # cells per gain axis of a _GainIndex
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


def _as_flags(with_counts: bool, with_rates: bool) -> tuple[bool, bool]:
    """The product flags as plain bools; any value but a bool or numpy.bool_ raises ParameterError."""
    for name, flag in (("with_counts", with_counts), ("with_rates", with_rates)):
        if not isinstance(flag, (bool, np.bool_)):
            raise ParameterError(f"{name} must be True or False, got {flag!r}")
    return bool(with_counts), bool(with_rates)


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

    The rule runs on strips of at most _STRIP draws (see _tally_strips), one
    call per block still: the temporaries of a 62,500-draw block (500 KB
    each) were returned to the kernel after every call and faulted in
    again, ~430 minor faults per counts-only block and ~1,460 with rates,
    while those of a strip are reused (0 faults). Every count and rate sum
    equals one evaluation over the whole arrays, provided numpy sums
    pairwise as tests/test_estimator.py pins. g0 and g1 must be 1-D arrays
    of one length; any other shapes raise ParameterError.
    """
    shapes = getattr(g0, "shape", None), getattr(g1, "shape", None)
    if None in shapes or len(shapes[0]) != 1 or shapes[0] != shapes[1]:
        raise ParameterError(f"g0 and g1 must be 1-D arrays of one length, got shapes {shapes[0]} "
                             f"and {shapes[1]}")
    return _tally_strips(params, g0, g1, tuple(schemes), *_as_flags(with_counts, with_rates))


def _tally_strips(params: SystemParams, g0: np.ndarray, g1: np.ndarray,
                  schemes: tuple[SchemeId, ...], with_counts: bool,
                  with_rates: bool) -> PopulationTally:
    """Tally on strips of at most _STRIP draws, split where numpy's pairwise summation splits.

    numpy sums a contiguous float64 array of n > 128 elements as the sum of
    its first n//2 - n//2 % 8 elements plus the sum of the rest, recursively
    (pairwise summation; Higham, SIAM J. Sci. Comput. 1993). Splitting at the
    same index and adding the left half's sums to the right half's therefore
    makes every rate sum the same additions, in the same order, as one
    ``sum()`` over the whole arrays; counts are integers and exact anyway.
    """
    n = g0.size
    if n <= _STRIP:
        rule = _rule(params, g0, g1, with_counts, with_rates)
        return _tally(rule, n, schemes, rule.scheme, _count)
    half = n // 2 - n // 2 % 8
    left = _tally_strips(params, g0[:half], g1[:half], schemes, with_counts, with_rates)
    left.merge(_tally_strips(params, g0[half:], g1[half:], schemes, with_counts, with_rates))
    return left


def _rule(params: SystemParams, g0: np.ndarray, g1: np.ndarray, outages: bool, rates: bool) -> _Rule:
    """The rule evaluated once on gain arrays, for _tally to count."""
    return _Rule(derive_constants(params), params.p0 * g0, params.p1 * g1, outages, rates, np)


def _tally(rule: _Rule, n: int, schemes: tuple[SchemeId, ...], own_of, count) -> PopulationTally:
    """The counts and sums of one built rule over n realizations, each mask counted by count.

    own_of(scheme) gives a scheme's rule: rule.scheme on strips, so that each
    scheme's arrays are freed before the next scheme's are built.
    """
    tally = PopulationTally(n=n, has_counts=rule.outages, has_rates=rule.rates)
    shared = None
    if rule.outages:
        admitted = count(rule.admitted)
        tally.case_i = count(rule.case_i)
        tally.case_ii = admitted - tally.case_i
        tally.case_iii = n - admitted
        tally.primary_outage = count(rule.primary_outage)
        # the case-I and case-III outage tests that every admission scheme shares, counted once
        shared = (count(rule.fail_i), count(rule.fail_iii))
    for scheme in schemes:
        tally.schemes[scheme] = _scheme_tally(rule, own_of(scheme), shared, count)
    return tally


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def _scheme_tally(rule: _Rule, own: _SchemeRule | None, shared: tuple[int, int] | None,
                  count) -> SchemeTally:
    """Counts and sums of one scheme's rule (own), each mask counted by count."""
    st = SchemeTally()
    if own is None:
        return st
    if own.shared_fail is not None:
        st.outage_case_i, st.outage_case_iii = shared
        st.outage_case_ii = count(own.own_fail)
    elif own.own_fail is not None:  # CSI-SIC: one test over every case
        st.outage_case_i = count(rule.case_i & own.own_fail)
        st.outage_case_iii = count(rule.case_iii & own.own_fail)
        st.outage_case_ii = count(own.own_fail) - st.outage_case_i - st.outage_case_iii
    if own.rate is not None:
        st.rate_sum = float(own.rate.sum())
        st.rate_sq_sum = float(np.square(own.rate).sum())
    return st


@_slot_init
@dataclass(frozen=True, slots=True)
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
    """The Wilson score interval, whose ends are exactly 0.0 at 0 successes and 1.0 at n.

    There center - half and center + half equal 0 and 1 in exact arithmetic,
    but rounding leaves them off by an ulp or so (5.55e-17 at 0 of 3).
    """
    z2 = _Z95 * _Z95
    phat = successes / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return (0.0 if successes == 0 else max(0.0, center - half),
            1.0 if successes == n else min(1.0, center + half))


def _bernoulli_estimate(scheme: SchemeId, metric: Metric, successes: int, n: int) -> OutageEstimate:
    """Mean, standard error and Wilson's 95% interval; Wald's is erratic even at large n."""
    mean = successes / n
    se = math.sqrt(mean * (1.0 - mean) / n)
    return OutageEstimate(scheme, metric, mean, se, *_wilson_interval(successes, n), n)


def _worker_count(workers: int | None) -> int:
    """Worker processes for the shards: the argument, else CRNOMA_WORKERS, else min(2, CPUs)."""
    if workers is not None:
        return _as_count("workers", workers, 1)
    env = os.environ.get(_WORKERS_ENV)
    if not env:
        return min(2, os.cpu_count() or 1)
    try:
        env = int(env)
    except ValueError:
        pass  # _as_count refuses the text itself
    return _as_count(_WORKERS_ENV, env, 1)


_Block = tuple[np.ndarray, np.ndarray]  # (g0, g1) gains of one block
# what a call asks its shards' holders to tally, as plain fields: (p0, p1, r0_hat, r1_hat,
# (seed, stream_count, n_samples), the schemes' values, with_counts, with_rates)
_Job = tuple[float, float, float, float, tuple[int, int, int], tuple[str, ...], bool, bool]


class _GainIndex:
    """An owner's kept draws (the caller's, at one worker), binned by cells of the gain plane.

    The cells are a fixed _GRID x _GRID grid over the uniforms behind the
    gains, u = 1 - e^-g, so each holds about as many draws as any other.
    The index stores each nonempty cell's draw count, the four corners of
    its draws' bounding box, and the draws sorted by cell (16 bytes each).

    Every comparison that _Rule.comparisons lists is monotone in g0 and in
    g1. So where one agrees at the four corners of a cell, it takes the same
    value on every draw inside, and where all agree, every outage test does
    too: such a cell is whole, and its draws count as its corner's outcome.
    tally evaluates the rule once, on every cell's corners, and again only on
    the other, mixed cells' draws. Counts are integers, so the tally equals
    the strip path's, draw for draw.
    """

    __slots__ = ("counts", "corners", "starts", "gains")

    def __init__(self, shards: Iterable[Iterable[_Block]]) -> None:
        blocks = [block for blocks in shards for block in blocks]
        # block by block and row by row, so that no temporary is as large as the index
        cell = np.concatenate([_grid_row(g0) * np.uint16(_GRID) + _grid_row(g1) for g0, g1 in blocks])
        order = np.argsort(cell, kind="stable")  # a radix sort on 16-bit cells
        counts = np.bincount(cell, minlength=_GRID * _GRID)
        self.counts = counts[counts > 0]
        self.starts = np.concatenate(([0], np.cumsum(self.counts)))
        self.gains = gains = np.empty((2, cell.size))  # the draws cell by cell
        for row in (0, 1):
            np.take(np.concatenate([block[row] for block in blocks]), order, out=gains[row])
        low = np.minimum.reduceat(gains, self.starts[:-1], axis=1)
        high = np.maximum.reduceat(gains, self.starts[:-1], axis=1)
        # the cells' four corners, corner by corner: (low, low), (low, high), (high, low), (high, high)
        self.corners = (np.concatenate((low[0], low[0], high[0], high[0])),
                        np.concatenate((low[1], high[1], low[1], high[1])))

    def tally(self, params: SystemParams, schemes: tuple[SchemeId, ...]) -> PopulationTally:
        """The counts of tally_population over every indexed draw.

        One evaluation of the rule at the corners finds the whole cells and
        counts each by its (low, low) corner times its draw count.
        """
        k = self.counts.size
        rule = _rule(params, *self.corners, True, False)
        owns = {scheme: rule.scheme(scheme) for scheme in schemes}
        tests = np.stack(rule.comparisons(owns.values())).reshape(-1, 4, k)
        whole = (tests.all(axis=1) == tests.any(axis=1)).all(axis=0)
        weights = np.where(whole, self.counts, 0)
        total = _tally(rule, int(weights.sum()), schemes, owns.__getitem__,
                       lambda mask: int(weights.sum(where=mask[:k])))
        del rule, owns, tests  # the corners' arrays go before the mixed draws' are built
        # the mixed cells' draws, one slice per run of adjacent mixed cells
        edges = self.starts[np.flatnonzero(np.diff(whole, prepend=True, append=True))].tolist()
        mixed = np.concatenate([self.gains[:, a:b] for a, b in zip(edges[::2], edges[1::2])]
                               or [self.gains[:, :0]], axis=1)
        total.merge(tally_population(params, mixed[0], mixed[1], schemes))
        return total


def _grid_row(g: np.ndarray) -> np.ndarray:
    """The grid row of each gain: floor(_GRID * u), u = 1 - e^-g, as 16-bit integers."""
    u = np.expm1(-g)
    u *= -_GRID
    return np.minimum(u, _GRID - 1, out=u).astype(np.uint16)


class _Kept:
    """This process's shards of the last key it drew, read-only, and their index once built."""

    __slots__ = ("mine", "shards", "index")

    def __init__(self, mine: tuple[tuple[int, int, int], int, int],
                 shards: Iterable[Iterable[_Block]]) -> None:
        self.mine = mine  # (key, k, nworkers)
        self.shards = tuple(tuple(blocks) for blocks in shards)  # one tuple of blocks per shard
        for blocks in self.shards:
            for g0, g1 in blocks:
                g0.flags.writeable = g1.flags.writeable = False  # so that no tally can change one
        self.index: _GainIndex | None = None

    def indexed(self) -> _GainIndex:
        """The kept shards' index, built by the first call."""
        if self.index is None:
            self.index = _GainIndex(self.shards)
        return self.index


# this process's shards of the last key it drew, when the key has at most _KEEP_MAX_DRAWS
# draws; see _own_tallies
_kept: _Kept | None = None


def _draw(stream: GainStream, size: int) -> Iterator[_Block]:
    """Draw one shard block by block."""
    done = 0
    while done < size:
        m = min(_BLOCK, size - done)
        yield stream.gains(m)
        done += m


def _shard_blocks(seed: int, stream_count: int, n_samples: int,
                  k: int, nworkers: int) -> list[Iterator[_Block]]:
    """Block iterators of the k-th of nworkers contiguous runs of the nonempty shards.

    Shard i draws n_samples // stream_count realizations from stream i, one
    more if i < n_samples % stream_count; zero-size shards come last and are
    left out. With nworkers at most the nonempty shard count, every run holds
    at least one shard.
    """
    base, rem = divmod(n_samples, stream_count)
    sizes = [base + (i < rem) for i in range(stream_count) if base or i < rem]
    run = range(k * len(sizes) // nworkers, (k + 1) * len(sizes) // nworkers)
    return [_draw(GainStream(seed, i), sizes[i]) for i in run]


def _run_shard(params: SystemParams, blocks: Iterable[_Block], schemes: tuple[SchemeId, ...],
               with_counts: bool, with_rates: bool) -> PopulationTally:
    total = PopulationTally(has_counts=with_counts, has_rates=with_rates)
    for g0, g1 in blocks:
        total.merge(tally_population(params, g0, g1, schemes, with_rates, with_counts=with_counts))
    return total


def _own_tallies(job: _Job, k: int, nworkers: int) -> list[PopulationTally]:
    """Tally the k-th of nworkers contiguous runs of a job's shards: one tally per shard, in order.

    Owner k of W workers runs it with (k, W); a call with one worker runs it
    in the calling process with (0, 1). Either way it rebuilds the parameters
    and the schemes from the job's plain fields. A job whose key is kept
    tallies the kept shards, and a counts-only one takes one pooled tally from
    their index instead. Any other job releases the kept shards, draws its own
    and tallies them on strips, keeping them if the key has at most
    _KEEP_MAX_DRAWS draws; so a one-off call never builds an index. Every
    path gives the same counts and rate sums.
    """
    global _kept
    p0, p1, r0_hat, r1_hat, key, values, with_counts, with_rates = job
    params = SystemParams(p0, p1, r0_hat, r1_hat)
    schemes = tuple(map(SchemeId, values))
    mine = (key, k, nworkers)
    kept = _kept  # read once: another thread of this process may replace it
    if kept is not None and kept.mine == mine:
        if with_counts and not with_rates:
            return [kept.indexed().tally(params, schemes)]
        shards = kept.shards
    else:
        _kept = kept = None  # release the old draws before drawing the new ones
        shards = _shard_blocks(*key, k, nworkers)
        if key[2] <= _KEEP_MAX_DRAWS:
            _kept = kept = _Kept(mine, shards)
            shards = kept.shards
    return [_run_shard(params, blocks, schemes, with_counts, with_rates) for blocks in shards]


def simulate_tally(params: SystemParams, sampler: SamplerConfig, n_samples: int,
                   schemes: tuple[SchemeId, ...] = _SECONDARY_SCHEMES,
                   with_rates: bool = False, workers: int | None = None, *,
                   with_counts: bool = True) -> PopulationTally:
    """Tally n_samples realizations across the sampler's substreams.

    with_counts and with_rates pick the tally's products, as in tally_population.
    The call runs on min(workers, n_samples, stream_count) workers: no more
    than it has nonempty shards.
    """
    n_samples = _as_count("n_samples", n_samples, 1)
    with_counts, with_rates = _as_flags(with_counts, with_rates)
    nworkers = min(_worker_count(workers), n_samples, sampler.stream_count)
    schemes = tuple(schemes)
    for scheme in schemes:  # the rule's own refusal, before any draw at every worker count
        if not isinstance(scheme, SchemeId):
            raise UnknownSchemeError(f"unknown scheme {scheme!r}")
    schemes = tuple(dict.fromkeys(schemes))  # each once, in the order first given
    job = (params.p0, params.p1, params.r0_hat, params.r1_hat,
           (sampler.seed, sampler.stream_count, n_samples),
           tuple(scheme.value for scheme in schemes), with_counts, with_rates)
    shard_tallies = _own_tallies(job, 0, 1) if nworkers == 1 else _owner_tallies(job, schemes, nworkers)
    total = PopulationTally(has_counts=with_counts, has_rates=with_rates)
    for t in shard_tallies:
        total.merge(t)
    return total


# the shard owners: (process, the caller's end of its pipe), owner k first; see _owner_pool
_owners: tuple = ()
_owners_lock = threading.Lock()


def _owner_tallies(job: _Job, schemes: tuple[SchemeId, ...], nworkers: int) -> list[PopulationTally]:
    """Every shard's tally from the process's nworkers owners, in shard order.

    The job is pickled once and the same bytes go to every owner. Owner k
    holds the k-th contiguous run of shards, so the replies, owner by owner,
    are in shard order. An exception that an owner raised is raised here,
    once every owner has answered, so the next call starts from a quiet pipe.
    schemes are the job's, in the order each reply lists them.
    """
    payload = pickle.dumps(job)
    with _owners_lock:  # one job at a time on the pipes
        owners = _owner_pool(nworkers)
        try:
            for _, conn in owners:
                conn.send_bytes(payload)
            replies = [conn.recv() for _, conn in owners]
        except (OSError, EOFError) as exc:
            _stop_owners()
            raise RuntimeError("a Monte Carlo worker process ended during the call; "
                               "the next call starts new ones") from exc
        except BaseException:  # interrupted: the owners' late replies would answer the next call
            _stop_owners()
            raise
    for ok, value in replies:
        if not ok:
            raise value
    *_, with_counts, with_rates = job
    return [_unflat(flat, schemes, with_counts, with_rates) for _, owned in replies for flat in owned]


def _flat(tally: PopulationTally) -> tuple:
    """A tally as one tuple: n and its four counts, then each scheme's five fields, in its order."""
    flat = [tally.n, tally.case_i, tally.case_ii, tally.case_iii, tally.primary_outage]
    for st in tally.schemes.values():
        flat += (st.outage_case_i, st.outage_case_ii, st.outage_case_iii, st.rate_sum, st.rate_sq_sum)
    return tuple(flat)


def _unflat(flat: tuple, schemes: tuple[SchemeId, ...], with_counts: bool,
            with_rates: bool) -> PopulationTally:
    """The tally that _flat made flat; schemes are its schemes, in order, each once."""
    tally = PopulationTally(*flat[:5], has_counts=with_counts, has_rates=with_rates)
    for k, scheme in enumerate(schemes):
        tally.schemes[scheme] = SchemeTally(*flat[5 + 5 * k:10 + 5 * k])
    return tally


def _owner_pool(nworkers: int) -> tuple:
    """The process's nworkers shard owners, kept from one call to the next.

    Owners are forked, daemonic processes, started on the first call with
    more than one worker; only then is multiprocessing imported (~5 ms).
    Starting two owners costs another ~7 ms (2 vCPUs), about one 10^6-draw
    counts cell, so they are kept. A call on another worker count (after
    simulate_tally's cap), or one that finds an owner dead, stops the kept
    owners and forks new ones. Call under _owners_lock.
    """
    global _owners
    if len(_owners) == nworkers and all(proc.is_alive() for proc, _ in _owners):
        return _owners
    _stop_owners()
    import multiprocessing

    context = multiprocessing.get_context("fork")  # an owner needs no fresh import
    for k in range(nworkers):
        ours, theirs = context.Pipe()
        proc = context.Process(target=_owner_main, args=(ours, theirs, k, nworkers),
                               name=f"crnoma-shard-owner-{k}", daemon=True)
        proc.start()
        theirs.close()  # so that the owner's death reads as EOF here
        _owners += ((proc, ours),)
    return _owners


def _owner_main(ours, theirs, k: int, nworkers: int) -> None:
    """An owner's life: answer each job with its shards' tallies until the caller's end closes.

    A job comes pickled as simulate_tally built it, and each tally goes back
    flat (see _flat), in shard order. The at-fork hook has closed the
    caller's ends of the earlier owners' pipes; closing this pipe's as well
    lets the caller's exit, or death, read as EOF here. Draws the caller kept
    are inherited under its (key, 0, 1), which no owner's (key, k, W) equals,
    so _own_tallies releases them before the owner's first draw.
    """
    ours.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to report
    while True:
        try:
            payload = theirs.recv_bytes()
        except EOFError:
            return
        try:
            reply = (True, [_flat(tally) for tally in _own_tallies(pickle.loads(payload), k, nworkers)])
        except Exception as exc:  # the caller raises it
            reply = (False, exc)
        theirs.send(reply)


def _stop_owners() -> None:
    """Stop the kept owners and wait for them to exit. Call under _owners_lock, or where no call runs."""
    global _owners
    owners, _owners = _owners, ()
    for proc, conn in owners:
        conn.close()
        proc.terminate()
    for proc, _ in owners:
        proc.join()
        proc.close()


def _forget_owners() -> None:
    """In a forked child: the parent's owners, and any holder of the lock, are not its own.

    Closing the child's copies of the parent's pipe ends leaves the parent's
    open, and dropping the owners from multiprocessing's children keeps the
    child's exit from signalling them.
    """
    global _owners, _owners_lock
    if _owners:
        from multiprocessing import process

        process._children.difference_update(proc for proc, _ in _owners)
        for _, conn in _owners:
            conn.close()
    _owners, _owners_lock = (), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_owners)


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

    A tally of no draws, or one without the product that the metric reads,
    raises ValueError; a secondary scheme the tally does not cover raises
    UnknownSchemeError.
    """
    n = tally.n
    if n == 0:
        raise ValueError(f"{metric.value} needs at least one draw, but the tally holds none")
    if scheme is SchemeId.OMA_PRIMARY and metric not in (Metric.PRIMARY_OUTAGE, Metric.ADMISSION):
        raise UnknownSchemeError(f"{scheme.value} carries no secondary transmission; "
                                 f"{metric.value} undefined")
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

    Output order matches the (scheme-major, metric-minor) input order. Each
    scheme and metric may be given as its token, such as "rs" or
    "outage-total"; an unknown one raises ParameterError.
    """
    try:
        schemes, metrics = list(map(SchemeId, schemes)), list(map(Metric, metrics))
    except ValueError as exc:
        raise ParameterError(f"bad batch: {exc}") from None
    if not schemes or not metrics:
        raise ParameterError("schemes and metrics must be nonempty")
    with_counts, with_rates = _tally_products(metrics)
    tally = simulate_tally(params, sampler, n_samples, schemes, with_rates, workers,
                           with_counts=with_counts)
    return [
        estimate_from_tally(scheme, metric, params, tally)
        for scheme in schemes
        for metric in metrics
    ]

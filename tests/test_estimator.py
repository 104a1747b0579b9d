import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from crnoma import (
    GainStream,
    InsufficientConditioningError,
    Metric,
    ParameterError,
    SamplerConfig,
    SchemeId,
    SystemParams,
    UnknownSchemeError,
    admission_probability,
    estimate,
    estimate_batch,
    rs_total_outage,
    simulate_tally,
    tally_population,
)
from crnoma import estimator
from crnoma.estimator import PopulationTally, SchemeTally
from crnoma.strategy import _Rule, evaluate_outcome
from crnoma.params import ChannelRealization, derive_constants

from conftest import make_params, src_env

SECONDARY = [SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC, SchemeId.CSI_SIC]


def _z(est, expected):
    sigma = math.sqrt(expected * (1.0 - expected) / est.n_samples)
    return (est.mean - expected) / sigma


class TestAgainstAnalytic:
    def test_oma_primary_outage(self):
        params = SystemParams(p0=10.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        est = estimate(SchemeId.OMA_PRIMARY, params, Metric.PRIMARY_OUTAGE,
                       1_000_000, SamplerConfig(seed=8))
        assert abs(_z(est, -math.expm1(-0.1))) < 3.0

    def test_rs_total_at_10db(self, params_10db):
        est = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL,
                       10_000_000, SamplerConfig(seed=9))
        assert abs(_z(est, rs_total_outage(params_10db))) < 3.0

    def test_admission(self, params_10db):
        est = estimate(SchemeId.RS, params_10db, Metric.ADMISSION,
                       1_000_000, SamplerConfig(seed=10))
        assert abs(_z(est, admission_probability(params_10db))) < 3.0


class TestBatchSemantics:
    def test_paired_rs_vs_nh_difference_nonnegative(self):
        params = make_params(15.0, 15.0, 1.0, 1.0)
        rs, nh = estimate_batch([SchemeId.RS, SchemeId.NH_SIC], params,
                                [Metric.OUTAGE_TOTAL], 1_000_000, SamplerConfig(seed=11))
        assert nh.mean >= rs.mean  # common random numbers: exact, not statistical

    def test_degenerate_batch_equals_estimate(self, params_10db):
        sampler = SamplerConfig(seed=12)
        single = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 200_000, sampler)
        batch = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL], 200_000, sampler)
        assert batch == [single]

    def test_output_order_is_scheme_major(self, params_10db):
        out = estimate_batch([SchemeId.RS, SchemeId.QOS_SIC], params_10db,
                             [Metric.OUTAGE_TOTAL, Metric.ADMISSION], 10_000,
                             SamplerConfig(seed=13))
        labels = [(e.scheme, e.metric) for e in out]
        assert labels == [(SchemeId.RS, Metric.OUTAGE_TOTAL), (SchemeId.RS, Metric.ADMISSION),
                          (SchemeId.QOS_SIC, Metric.OUTAGE_TOTAL), (SchemeId.QOS_SIC, Metric.ADMISSION)]

    def test_pairwise_outage_ordering_from_shared_tally(self, params_10db):
        tally = simulate_tally(params_10db, SamplerConfig(seed=14), 1_000_000, tuple(SECONDARY))
        rs = tally.schemes[SchemeId.RS].outage_total
        nh = tally.schemes[SchemeId.NH_SIC].outage_total
        qos = tally.schemes[SchemeId.QOS_SIC].outage_total
        csi = tally.schemes[SchemeId.CSI_SIC].outage_total
        assert rs <= nh <= qos <= csi


def _empty_kept_set():
    estimator._kept_shards.cache_clear()
    estimator._last_key = None


@pytest.fixture
def empty_kept_set():
    """Start from an empty kept draw set, and leave none behind; call it to empty the set again."""
    _empty_kept_set()
    yield _empty_kept_set
    _empty_kept_set()


class TestDeterminism:
    """Each call starts from an empty kept draw set, so every one of them draws afresh."""

    def test_same_seed_same_estimates(self, params_10db, empty_kept_set):
        a = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 500_000, SamplerConfig(seed=15))
        empty_kept_set()
        b = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 500_000, SamplerConfig(seed=15))
        assert a == b

    @pytest.mark.parametrize("metric", [Metric.OUTAGE_TOTAL, Metric.THROUGHPUT_ERGODIC])
    def test_worker_count_invariance(self, params_10db, metric, empty_kept_set):
        kwargs = dict(n_samples=500_000, sampler=SamplerConfig(seed=16))
        a = estimate(SchemeId.RS, params_10db, metric, workers=1, **kwargs)
        empty_kept_set()
        b = estimate(SchemeId.RS, params_10db, metric, workers=3, **kwargs)
        assert a == b  # bitwise, including the float rate sums

    def test_different_seeds_differ(self, params_10db):
        a = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 500_000, SamplerConfig(seed=17))
        b = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 500_000, SamplerConfig(seed=18))
        assert a.mean != b.mean


class TestIntervals:
    def test_ci_brackets_mean(self, params_10db):
        est = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 100_000, SamplerConfig(seed=19))
        assert est.ci95_low <= est.mean <= est.ci95_high
        assert est.std_error == pytest.approx(
            math.sqrt(est.mean * (1.0 - est.mean) / est.n_samples), rel=1e-12)

    def test_wilson_branch_for_rare_events(self):
        # high SNR: a handful of outages in 1e5 draws
        params = make_params(35.0, 35.0, 1.0, 1.0)
        est = estimate(SchemeId.RS, params, Metric.OUTAGE_TOTAL, 100_000, SamplerConfig(seed=20))
        assert est.mean * est.n_samples < 100
        assert 0.0 <= est.ci95_low <= est.mean <= est.ci95_high <= 1.0
        assert est.ci95_low < est.mean or est.mean == 0.0

    def test_coverage_over_repeated_seeds(self):
        # 95% CI should cover the analytic value 90..99 times out of 100
        params = SystemParams(p0=10.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        expected = -math.expm1(-0.1)
        hits = 0
        for seed in range(100):
            est = estimate(SchemeId.OMA_PRIMARY, params, Metric.PRIMARY_OUTAGE,
                           10_000, SamplerConfig(seed=seed))
            hits += est.ci95_low <= expected <= est.ci95_high
        assert 90 <= hits <= 99


class TestConditionalAndThroughput:
    def test_conditional_uses_admission_denominator(self, params_10db):
        sampler = SamplerConfig(seed=21)
        cond = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_CASE_II_CONDITIONAL,
                        1_000_000, sampler)
        uncond = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_CASE_II, 1_000_000, sampler)
        adm = estimate(SchemeId.RS, params_10db, Metric.ADMISSION, 1_000_000, sampler)
        assert cond.n_samples == round(adm.mean * 1_000_000)
        assert cond.mean == pytest.approx(uncond.mean / adm.mean, rel=1e-12)

    def test_insufficient_conditioning_raises(self):
        params = SystemParams(p0=0.01, p1=10.0, r0_hat=6.0, r1_hat=1.0)  # admission ~ e^-6300
        with pytest.raises(InsufficientConditioningError):
            estimate(SchemeId.RS, params, Metric.OUTAGE_CASE_II_CONDITIONAL,
                     10_000, SamplerConfig(seed=22))

    def test_delay_limited_matches_outage(self, params_10db):
        sampler = SamplerConfig(seed=23)
        tput = estimate(SchemeId.RS, params_10db, Metric.THROUGHPUT_DELAY_LIMITED,
                        500_000, sampler)
        outage = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 500_000, sampler)
        assert tput.mean == pytest.approx(params_10db.r1_hat * (1.0 - outage.mean), rel=1e-12)

    def test_ergodic_rate_ordering(self, params_10db):
        ests = estimate_batch(SECONDARY, params_10db, [Metric.THROUGHPUT_ERGODIC],
                              500_000, SamplerConfig(seed=24))
        rs, nh, qos, csi = [e.mean for e in ests]
        assert rs >= nh >= qos >= csi > 0.0

    def test_oma_rejects_secondary_metrics(self, params_10db):
        with pytest.raises(UnknownSchemeError):
            estimate(SchemeId.OMA_PRIMARY, params_10db, Metric.OUTAGE_TOTAL,
                     1_000, SamplerConfig(seed=25))

    def test_rejects_empty_batch(self, params_10db):
        with pytest.raises(ValueError):
            estimate_batch([], params_10db, [Metric.OUTAGE_TOTAL], 100, SamplerConfig(seed=1))
        with pytest.raises(ValueError):
            estimate_batch([SchemeId.RS], params_10db, [], 100, SamplerConfig(seed=1))

    def test_rejects_nonpositive_sample_count(self, params_10db):
        with pytest.raises(ValueError):
            estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 0, SamplerConfig(seed=1))


class TestVectorizedAgainstScalar:
    def test_tally_matches_scalar_path(self):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        stream = GainStream(26, 0)
        g0, g1 = stream.gains(10_000)
        tally = tally_population(params, g0, g1, tuple(SECONDARY))
        counts = {s: dict(i=0, ii=0, iii=0) for s in SECONDARY}
        primary = 0
        for i in range(g0.size):
            chan = ChannelRealization(g0=g0[i], g1=g1[i])
            first = evaluate_outcome(SchemeId.RS, params, chan)
            primary += first.primary_outage
            for scheme in SECONDARY:
                out = evaluate_outcome(scheme, params, chan)
                if out.secondary_outage:
                    counts[scheme][out.case_label.value.lower()] += 1
        assert tally.primary_outage == primary
        for scheme in SECONDARY:
            st = tally.schemes[scheme]
            assert (st.outage_case_i, st.outage_case_ii, st.outage_case_iii) == (
                counts[scheme]["i"], counts[scheme]["ii"], counts[scheme]["iii"])

    def test_shard_layout_covers_exactly_n(self, params_10db):
        tally = simulate_tally(params_10db, SamplerConfig(seed=27, stream_count=7), 12_345,
                               (SchemeId.RS,))
        assert tally.n == 12_345
        assert tally.case_i + tally.case_ii + tally.case_iii == 12_345


# Products p*g of these gains land exactly on every threshold of the points below.
EDGE_GAINS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)


def _counts(tally):
    """Every integer a tally holds, by name."""
    counts = {name: getattr(tally, name) for name in ("n", "case_i", "case_ii", "case_iii",
                                                      "primary_outage")}
    for s, st in tally.schemes.items():
        for case in ("i", "ii", "iii"):
            counts[s, case] = getattr(st, f"outage_case_{case}")
    return counts


class TestBoundaries:
    """Ties on every boundary of the rule: the tally and the scalar path take the same side."""

    # (p0, p1, r0, r1), linear powers. eps = 2^r - 1 is 1 or 3, so the ties are exact:
    # p0g0 == eps0, p1g1 == p0g0/eps0 - 1 (the budget), p1g1 == p0g0, RS's p1g1 == need,
    # p1g1 == eps1 (p0g0 + 1), p0g0 == eps0 (p1g1 + 1), and g0 = 0 or g1 = 0; every point
    # but the last has eps0*eps1 >= 1.
    POINTS = [(1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 1.0, 2.0), (3.0, 1.0, 2.0, 1.0),
              (1.0, 4.0, 1.0, 0.5)]

    @pytest.mark.parametrize("with_rates", [False, True])
    @pytest.mark.parametrize("point", POINTS)
    def test_tally_equals_scalar_counts(self, point, with_rates):
        params = SystemParams(*point)
        g0, g1 = (a.ravel() for a in np.meshgrid(EDGE_GAINS, EDGE_GAINS))
        schemes = tuple(SchemeId)
        tally = tally_population(params, g0, g1, schemes, with_rates)
        expected = PopulationTally(n=g0.size)
        for s in schemes:
            expected.schemes[s] = SchemeTally()
        for x0, x1 in zip(g0.tolist(), g1.tolist()):
            chan = ChannelRealization(g0=x0, g1=x1)
            rs = evaluate_outcome(SchemeId.RS, params, chan)
            expected.primary_outage += rs.primary_outage
            case = rs.case_label.value.lower()
            setattr(expected, f"case_{case}", getattr(expected, f"case_{case}") + 1)
            for s in SECONDARY:
                if evaluate_outcome(s, params, chan).secondary_outage:
                    st = expected.schemes[s]
                    setattr(st, f"outage_case_{case}", getattr(st, f"outage_case_{case}") + 1)
        assert _counts(tally) == _counts(expected)
        # np.int64 counts would print as np.float64(...) in every CSV value derived from them
        assert all(type(v) is int for v in _counts(tally).values())

    def test_points_hit_every_boundary(self):
        # the grid above is only worth its name if the ties really occur
        ties = dict.fromkeys(["admission", "budget", "u1 first", "rs need", "first fail",
                              "x0 need", "g0 = 0", "g1 = 0"], False)
        for p0, p1, r0, r1 in self.POINTS[:3]:
            eps0, eps1 = 2.0 ** r0 - 1.0, 2.0 ** r1 - 1.0
            assert eps0 * eps1 >= 1.0
            for x0 in EDGE_GAINS:
                for x1 in EDGE_GAINS:
                    a, b = p0 * x0, p1 * x1
                    ties["admission"] |= a == eps0
                    ties["budget"] |= a > eps0 and b == a / eps0 - 1.0
                    ties["u1 first"] |= a == b
                    ties["rs need"] |= a > eps0 and b == (1.0 + eps0) * (1.0 + eps1) - (a + 1.0)
                    ties["first fail"] |= b == eps1 * (a + 1.0)
                    ties["x0 need"] |= a == eps0 * (b + 1.0)
                    ties["g0 = 0"] |= x0 == 0.0
                    ties["g1 = 0"] |= x1 == 0.0
        assert all(ties.values()), ties


def _unsplit_tally(params, g0, g1, schemes, with_rates=True):
    """tally_population built by hand: the rule once over the whole arrays, rates summed by np.sum."""
    rule = _Rule(derive_constants(params), params.p0 * g0, params.p1 * g1, True, with_rates, np)
    count = np.count_nonzero
    tally = PopulationTally(n=g0.size, case_i=count(rule.case_i), case_ii=count(rule.case_ii),
                            case_iii=count(rule.case_iii), primary_outage=count(rule.primary_outage),
                            has_rates=with_rates)
    for scheme in schemes:
        own = rule.scheme(scheme)
        tally.schemes[scheme] = SchemeTally(
            count(rule.case_i & own.outage), count(rule.case_ii & own.outage),
            count(rule.case_iii & own.outage),
            float(np.sum(own.rate)) if with_rates else 0.0,
            float(np.sum(np.square(own.rate))) if with_rates else 0.0)
    return tally


def _rate_sums(tally):
    """What a rates-only tally holds: n and each scheme's rate sums."""
    return tally.n, {s: (st.rate_sum, st.rate_sq_sum) for s, st in tally.schemes.items()}


def _strip_tree_sum(x):
    """Sum x as tally_population's rate path does: split like numpy's pairwise sum, down to strips."""
    n = x.size
    if n <= estimator._STRIP:
        return float(np.sum(x))
    half = n // 2 - n // 2 % 8
    return _strip_tree_sum(x[:half]) + _strip_tree_sum(x[half:])


STRIP_BLOCKS = [1 << 14, (1 << 14) + 1, 2 * (1 << 14) + 8, 62_500, 100_003, 1 << 20]


class TestStrips:
    """With rates, tally_population works on strips and still sums exactly as one np.sum would."""

    @pytest.fixture(scope="class")
    def gains(self):
        return GainStream(46, 0).gains(max(STRIP_BLOCKS))

    @pytest.mark.parametrize("n", STRIP_BLOCKS)
    @pytest.mark.parametrize("point", [(10.0, 10.0, 1.0, 1.0), (12.0, 17.0, 1.0, 1.5),
                                       (0.0, 20.0, 2.0, 0.5)])
    def test_split_tally_equals_unsplit(self, gains, n, point):
        params = make_params(*point)
        g0, g1 = gains[0][:n], gains[1][:n]
        tally = tally_population(params, g0, g1, tuple(SECONDARY), with_rates=True)
        expected = _unsplit_tally(params, g0, g1, tuple(SECONDARY))
        assert tally == expected  # exact: every count, rate_sum and rate_sq_sum
        assert all(tally.schemes[s].rate_sum > 0.0 for s in SECONDARY)

    @pytest.mark.parametrize("n", STRIP_BLOCKS)
    @pytest.mark.parametrize("point", [(10.0, 10.0, 1.0, 1.0), (12.0, 17.0, 1.0, 1.5),
                                       (0.0, 20.0, 2.0, 0.5)])
    def test_rates_only_sums_equal_combined(self, gains, n, point):
        params = make_params(*point)
        g0, g1 = gains[0][:n], gains[1][:n]
        rates_only = tally_population(params, g0, g1, tuple(SECONDARY), with_rates=True,
                                      with_counts=False)
        combined = tally_population(params, g0, g1, tuple(SECONDARY), with_rates=True)
        assert _rate_sums(rates_only) == _rate_sums(combined)  # exact
        assert (rates_only.has_counts, rates_only.has_rates) == (False, True)
        assert rates_only.case_ii == rates_only.primary_outage == 0
        assert all(st.outage_total == 0 for st in rates_only.schemes.values())

    def test_counts_without_rates_are_unsplit(self, gains):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        g0, g1 = gains[0][:100_003], gains[1][:100_003]
        assert (tally_population(params, g0, g1, tuple(SECONDARY))
                == _unsplit_tally(params, g0, g1, tuple(SECONDARY), with_rates=False))

    def test_numpy_sums_pairwise_as_assumed(self):
        # The strips rest on numpy summing a contiguous float64 array pairwise, splitting n
        # at n//2 - n//2 % 8. If a numpy release sums another way, this fails before any
        # figure CSV moves.
        rng = np.random.default_rng(47)
        moved = 0
        for n in STRIP_BLOCKS + [3 * (1 << 14) + 5, 200_000]:
            x = rng.lognormal(0.0, 4.0, n) * rng.choice([-1.0, 1.0], n)
            assert _strip_tree_sum(x) == float(np.sum(x)), n
            half = n // 2 - n // 2 % 8 + 8  # a split elsewhere changes the bits
            moved += float(np.sum(x[:half])) + float(np.sum(x[half:])) != float(np.sum(x))
        assert moved > 0


def _reference_tally(params, seed, stream_count, n, schemes, with_rates, tally=tally_population):
    """The path without the kept draw set: draw every block by hand, merge in shard order."""
    total = PopulationTally(has_rates=with_rates)
    base, rem = divmod(n, stream_count)
    for i in range(stream_count):
        size = base + (1 if i < rem else 0)
        if size == 0:
            continue
        stream, shard, done = GainStream(seed, i), PopulationTally(has_rates=with_rates), 0
        while done < size:
            m = min(estimator._BLOCK, size - done)
            shard.merge(tally(params, *stream.gains(m), schemes, with_rates))
            done += m
        total.merge(shard)
    return total


class TestKeptDrawSet:
    """simulate_tally keeps a draw set that two calls in a row ask for, and tallies it again."""

    SCHEMES = tuple(SECONDARY)

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch, empty_kept_set):
        # several blocks per shard at a small n, and an empty kept set to start from
        monkeypatch.setattr(estimator, "_BLOCK", 1000)

    @pytest.fixture
    def gains_calls(self, monkeypatch):
        calls = []
        gains = GainStream.gains

        def counted(stream, n):
            calls.append(n)
            return gains(stream, n)

        monkeypatch.setattr(GainStream, "gains", counted)
        return calls

    @staticmethod
    def kept():
        """How many draw sets are kept: 0 or 1."""
        return estimator._kept_shards.cache_info().currsize

    def reference(self, params, seed, stream_count, n, with_rates):
        return _reference_tally(params, seed, stream_count, n, self.SCHEMES, with_rates)

    def simulate(self, params, seed, stream_count, n, with_rates, workers=1):
        return simulate_tally(params, SamplerConfig(seed=seed, stream_count=stream_count), n,
                              self.SCHEMES, with_rates=with_rates, workers=workers)

    @pytest.mark.parametrize("with_rates", [False, True])
    def test_repeated_key_is_kept_then_tallied(self, with_rates, gains_calls):
        first, second = make_params(10.0, 10.0, 1.0, 1.0), make_params(12.0, 17.0, 1.0, 1.5)
        key = (40, 5, 23_456)
        ref_first = self.reference(first, *key, with_rates)
        ref_second = self.reference(second, *key, with_rates)
        gains_calls.clear()
        assert self.simulate(first, *key, with_rates) == ref_first
        assert sum(gains_calls) == 23_456  # a first call draws every realization once
        assert estimator._last_key == key and self.kept() == 0  # and keeps only its key
        assert self.simulate(second, *key, with_rates, workers=2) == ref_second
        assert sum(gains_calls) == 2 * 23_456  # a repeat draws again and keeps the set
        assert estimator._last_key == key and self.kept() == 1
        assert self.simulate(second, *key, with_rates, workers=1) == ref_second
        assert self.simulate(first, *key, with_rates, workers=2) == ref_first
        assert self.simulate(first, *key, with_rates, workers=1) == ref_first
        assert sum(gains_calls) == 2 * 23_456  # later calls draw nothing

    @pytest.mark.parametrize("changed", [(41, 5, 23_456), (40, 6, 23_456), (40, 5, 23_457)])
    def test_new_key_replaces_kept_set(self, changed, gains_calls):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        expected = self.reference(params, *changed, True)
        expected_old = self.reference(params, 40, 5, 23_456, True)
        for _ in range(2):
            self.simulate(params, 40, 5, 23_456, True)
        assert self.kept() == 1
        gains_calls.clear()
        assert self.simulate(params, *changed, True, workers=2) == expected
        assert sum(gains_calls) == changed[2]
        # the old set is released, the new one not kept
        assert estimator._last_key == changed and self.kept() == 0
        gains_calls.clear()
        assert self.simulate(params, 40, 5, 23_456, True) == expected_old
        assert sum(gains_calls) == 23_456  # the old set is gone

    def test_new_key_releases_kept_set_before_drawing(self, monkeypatch):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        expected = self.reference(params, 41, 5, 23_456, False)
        for _ in range(2):
            self.simulate(params, 40, 5, 23_456, False)
        assert self.kept() == 1
        kept_at_draw = []
        gains = GainStream.gains

        def counted(stream, n):
            kept_at_draw.append(self.kept())
            return gains(stream, n)

        monkeypatch.setattr(GainStream, "gains", counted)
        assert self.simulate(params, 41, 5, 23_456, False, workers=2) == expected
        assert len(kept_at_draw) == 5 * 5 and set(kept_at_draw) == {0}  # from the first block on

    def test_kept_arrays_are_read_only(self):
        for _ in range(2):
            self.simulate(make_params(10.0, 10.0, 1.0, 1.0), 42, 3, 5_000, False)
        assert estimator._last_key == (42, 3, 5_000) and self.kept() == 1
        hits = estimator._kept_shards.cache_info().hits
        shards = estimator._kept_shards(42, 3, 5_000)
        assert estimator._kept_shards.cache_info().hits == hits + 1
        assert [sum(g0.size for g0, _ in blocks) for blocks in shards] == [1667, 1667, 1666]
        for blocks in shards:
            for g0, g1 in blocks:
                assert not g0.flags.writeable and not g1.flags.writeable
        with pytest.raises(ValueError):
            shards[0][0][0][0] = 0.0

    def test_set_above_cap_is_drawn_on_every_call(self, monkeypatch, gains_calls):
        monkeypatch.setattr(estimator, "_KEEP_MAX_DRAWS", 4_999)
        params = make_params(10.0, 10.0, 1.0, 1.0)
        expected = self.reference(params, 43, 4, 5_000, True)
        gains_calls.clear()
        for workers in (1, 2, 1):
            assert self.simulate(params, 43, 4, 5_000, True, workers=workers) == expected
        assert sum(gains_calls) == 3 * 5_000
        assert estimator._last_key == (43, 4, 5_000) and self.kept() == 0

    def test_threads_with_different_keys_get_their_own_draws(self):
        # more threads than cores, switching often, each on a key of its own or a shared one
        params = make_params(12.0, 17.0, 1.0, 1.5)
        keys = [(44, 4, 9_000), (45, 5, 9_001), (44, 4, 9_001), (44, 4, 9_000)]
        expected = {key: self.reference(params, *key, True) for key in keys}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                barrier, got = threading.Barrier(len(keys), timeout=60), [None] * len(keys)

                def run(i):
                    barrier.wait()
                    got[i] = [self.simulate(params, *keys[i], True, workers=w) for w in (2, 1, 2)]

                threads = [threading.Thread(target=run, args=(i,)) for i in range(len(keys))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == [[expected[key]] * 3 for key in keys]
        finally:
            sys.setswitchinterval(interval)


class TestBlocksAboveStrip:
    """Shard blocks larger than _STRIP, streamed and kept, at several worker counts."""

    KEY = (48, 3, 120_000)  # three shards of one 40,000-draw block each

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rates_equal_unsplit_one_tally_per_block(self, workers, monkeypatch, empty_kept_set):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        schemes = tuple(SECONDARY)
        expected = _reference_tally(params, *self.KEY, schemes, True, tally=_unsplit_tally)
        sizes = []
        tally = estimator.tally_population

        def counted(params, g0, g1, *args, **kwargs):
            sizes.append(g0.size)
            return tally(params, g0, g1, *args, **kwargs)

        monkeypatch.setattr(estimator, "tally_population", counted)
        seed, stream_count, n = self.KEY
        for kept in (0, 1, 1):  # a new key streams; a repeat keeps the set, then tallies it
            sizes.clear()
            got = simulate_tally(params, SamplerConfig(seed=seed, stream_count=stream_count), n,
                                 schemes, with_rates=True, workers=workers)
            assert got == expected
            assert estimator._kept_shards.cache_info().currsize == kept
            assert sizes == [40_000] * 3  # one tally_population call per block, not per strip

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rates_only_sums_equal_combined(self, workers, empty_kept_set):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        schemes = tuple(SECONDARY)
        expected = _rate_sums(_reference_tally(params, *self.KEY, schemes, True))
        seed, stream_count, n = self.KEY
        for kept in (0, 1, 1):  # streamed, then kept, then tallied from the kept set
            got = simulate_tally(params, SamplerConfig(seed=seed, stream_count=stream_count), n,
                                 schemes, with_rates=True, workers=workers, with_counts=False)
            assert _rate_sums(got) == expected
            assert (got.has_counts, got.has_rates) == (False, True)
            assert estimator._kept_shards.cache_info().currsize == kept


class TestTallyProducts:
    """A tally holds the products its metrics read, and refuses to answer for any other."""

    def test_counts_only_tally_refuses_ergodic(self, params_10db):
        tally = simulate_tally(params_10db, SamplerConfig(seed=49), 5_000, (SchemeId.RS,))
        with pytest.raises(ValueError, match="^throughput-ergodic reads rate sums, but the tally "
                                             "holds outage counts$"):
            estimator.estimate_from_tally(SchemeId.RS, Metric.THROUGHPUT_ERGODIC, params_10db, tally)

    @pytest.mark.parametrize("scheme, metric", [(SchemeId.RS, Metric.OUTAGE_TOTAL),
                                                (SchemeId.RS, Metric.THROUGHPUT_DELAY_LIMITED),
                                                (SchemeId.OMA_PRIMARY, Metric.PRIMARY_OUTAGE)])
    def test_rates_only_tally_refuses_count_metrics(self, params_10db, scheme, metric):
        tally = simulate_tally(params_10db, SamplerConfig(seed=49), 5_000, (SchemeId.RS,),
                               with_rates=True, with_counts=False)
        with pytest.raises(ValueError, match=f"^{metric.value} reads outage counts, but the tally "
                                             f"holds rate sums$"):
            estimator.estimate_from_tally(scheme, metric, params_10db, tally)

    @pytest.mark.parametrize("metric", [Metric.OUTAGE_TOTAL, Metric.THROUGHPUT_ERGODIC])
    def test_uncovered_scheme_is_named(self, params_10db, metric):
        tally = simulate_tally(params_10db, SamplerConfig(seed=49), 5_000,
                               (SchemeId.RS, SchemeId.QOS_SIC), with_rates=True)
        with pytest.raises(UnknownSchemeError, match="^the tally covers rs, qos-sic, not nh-sic$"):
            estimator.estimate_from_tally(SchemeId.NH_SIC, metric, params_10db, tally)

    def test_tallies_of_different_products_do_not_merge(self):
        with pytest.raises(ValueError, match="^cannot merge a tally of rate sums into one of "
                                             "outage counts and rate sums$"):
            PopulationTally(has_rates=True).merge(PopulationTally(has_counts=False, has_rates=True))

    def test_tallies_of_different_schemes_do_not_merge(self, params_10db):
        # merged anyway, NH-SIC would keep one half's outages over both halves' draws: 0.0501
        g0, g1 = GainStream(1, 0).gains(10_000)
        both, rs_only = (SchemeId.RS, SchemeId.NH_SIC), (SchemeId.RS,)
        whole = tally_population(params_10db, g0, g1, both)
        nh = estimator.estimate_from_tally(SchemeId.NH_SIC, Metric.OUTAGE_TOTAL, params_10db, whole)
        assert nh.mean == 0.1058
        left = tally_population(params_10db, g0[:5_000], g1[:5_000], both)
        with pytest.raises(ValueError, match="^cannot merge a tally covering rs into one covering "
                                             "rs, nh-sic$"):
            left.merge(tally_population(params_10db, g0[5_000:], g1[5_000:], rs_only))
        assert left.n == 5_000  # refused before anything was added
        left.merge(tally_population(params_10db, g0[5_000:], g1[5_000:], both))
        assert left == whole

    def test_empty_accumulator_takes_any_schemes(self, params_10db):
        g0, g1 = GainStream(1, 0).gains(1_000)
        part = tally_population(params_10db, g0, g1, (SchemeId.QOS_SIC,))
        total = PopulationTally()
        total.merge(part)
        assert total == part
        with pytest.raises(ValueError, match="^cannot merge a tally covering no scheme into one "
                                             "covering qos-sic$"):
            total.merge(PopulationTally())

    def test_mixed_batch_equals_each_metric_alone(self, params_10db, empty_kept_set):
        sampler, metrics = SamplerConfig(seed=50), [Metric.OUTAGE_TOTAL, Metric.THROUGHPUT_ERGODIC]
        mixed = estimate_batch(SECONDARY, params_10db, metrics, 20_000, sampler)
        alone = [estimate(s, params_10db, m, 20_000, sampler) for s in SECONDARY for m in metrics]
        assert mixed == alone


class TestShardPool:
    """simulate_tally keeps one pool of worker threads per process, for the last worker count."""

    @pytest.fixture
    def shard_threads(self, monkeypatch):
        """The thread that tallied each block, in call order."""
        seen, tally = [], estimator.tally_population

        def spy(*args, **kwargs):
            seen.append(threading.current_thread())
            return tally(*args, **kwargs)

        monkeypatch.setattr(estimator, "tally_population", spy)
        return seen

    @staticmethod
    def run(workers):
        return simulate_tally(make_params(10.0, 10.0, 1.0, 1.0), SamplerConfig(seed=51, stream_count=8),
                              8_000, (SchemeId.RS, SchemeId.CSI_SIC), workers=workers)

    def test_calls_reuse_the_pool_threads(self, shard_threads):
        self.run(2)
        first = set(shard_threads)
        shard_threads.clear()
        self.run(2)
        assert threading.current_thread() not in first
        assert all(t.is_alive() for t in first)  # kept between calls, not joined after each
        assert len(first | set(shard_threads)) <= 2

    def test_new_worker_count_shuts_the_old_pool_down(self, shard_threads):
        self.run(2)
        old = set(shard_threads)
        shard_threads.clear()
        self.run(3)
        assert not old & set(shard_threads)
        for t in old:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in old)

    def test_one_worker_leaves_the_pool_alone(self, shard_threads):
        expected = self.run(2)
        pool = set(shard_threads)
        shard_threads.clear()
        assert self.run(1) == expected
        assert set(shard_threads) == {threading.current_thread()}
        assert all(t.is_alive() for t in pool)

    def test_threads_switching_worker_counts_get_their_results(self):
        # each call may shut down the pool that the other thread's shards are queued on
        expected = self.run(1)
        got = {2: [], 3: []}

        def run(workers):
            got[workers].extend(self.run(workers) for _ in range(20))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {2: [expected] * 20, 3: [expected] * 20}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_a_pool_of_its_own(self):
        expected = self.run(2)  # the parent holds a pool now; its threads do not exist in a child
        pid = os.fork()
        if pid == 0:
            try:
                ok = self.run(2) == expected
            except BaseException:
                ok = False
            os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("simulate_tally hung in a forked child")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3, 2.7, "2"])
    def test_bad_argument_raises(self, workers):
        with pytest.raises(ParameterError, match="workers must be an integer"):
            estimator._worker_count(workers)

    @pytest.mark.parametrize("env", ["0", "-2", "abc", "2.5"])
    def test_bad_environment_raises(self, env, monkeypatch):
        monkeypatch.setenv("CRNOMA_WORKERS", env)
        with pytest.raises(ParameterError, match=f"CRNOMA_WORKERS must be an integer.*{env!r}"):
            estimator._worker_count(None)

    def test_good_counts(self, monkeypatch):
        monkeypatch.setenv("CRNOMA_WORKERS", "3")
        assert estimator._worker_count(None) == 3
        assert estimator._worker_count(np.int64(2)) == 2  # the argument wins over the environment
        monkeypatch.setenv("CRNOMA_WORKERS", "")
        assert 1 <= estimator._worker_count(None) <= 2

    def test_simulate_tally_refuses_zero_workers(self, params_10db):
        with pytest.raises(ParameterError, match="workers"):
            simulate_tally(params_10db, SamplerConfig(seed=1), 1_000, workers=0)


def test_import_does_not_load_scipy():
    code = ("import crnoma, sys; assert 'scipy' not in sys.modules, sorted(sys.modules); "
            "p = crnoma.SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0); "
            "assert crnoma.case_ii_outage_quadrature(p) > 0.0; "
            "assert 'scipy' not in sys.modules, sorted(sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

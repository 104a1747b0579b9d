import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    estimate_batch,
    rs_total_outage,
    simulate_tally,
    tally_population,
)
from crnoma import estimator
from crnoma.estimator import PopulationTally, SchemeTally
from crnoma.strategy import _Rule, evaluate_outcome
from crnoma.params import ChannelRealization

from conftest import make_params, src_env

SECONDARY = [SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC, SchemeId.CSI_SIC]


def _z(est, expected):
    sigma = math.sqrt(expected * (1.0 - expected) / est.n_samples)
    return (est.mean - expected) / sigma


class TestAgainstAnalytic:
    def test_oma_primary_outage(self):
        params = SystemParams(p0=10.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        est = estimate_batch([SchemeId.OMA_PRIMARY], params, [Metric.PRIMARY_OUTAGE],
                             1_000_000, SamplerConfig(seed=8))[0]
        assert abs(_z(est, -math.expm1(-0.1))) < 3.0

    def test_rs_total_at_10db(self, params_10db):
        est = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL],
                             10_000_000, SamplerConfig(seed=9))[0]
        assert abs(_z(est, rs_total_outage(params_10db))) < 3.0

    def test_admission(self, params_10db):
        est = estimate_batch([SchemeId.RS], params_10db, [Metric.ADMISSION],
                             1_000_000, SamplerConfig(seed=10))[0]
        assert abs(_z(est, admission_probability(params_10db))) < 3.0


class TestBatchSemantics:
    def test_paired_rs_vs_nh_difference_nonnegative(self):
        params = make_params(15.0, 15.0, 1.0, 1.0)
        rs, nh = estimate_batch([SchemeId.RS, SchemeId.NH_SIC], params,
                                [Metric.OUTAGE_TOTAL], 1_000_000, SamplerConfig(seed=11))
        assert nh.mean >= rs.mean  # common random numbers: exact, not statistical

    def test_degenerate_batch_equals_estimate(self, params_10db):
        sampler = SamplerConfig(seed=12)
        tally = simulate_tally(params_10db, sampler, 200_000, (SchemeId.RS,))
        single = estimator.estimate_from_tally(SchemeId.RS, Metric.OUTAGE_TOTAL, params_10db, tally)
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
    """No kept draws anywhere: drop this process's and stop the owners, which keep their own.

    Owners forked later also see any module constant a test patches.
    """
    estimator._kept = None
    estimator._stop_owners()


@pytest.fixture
def empty_kept_set():
    """Start from no kept draws and no owners, and leave none behind; call it to empty again."""
    _empty_kept_set()
    yield _empty_kept_set
    _empty_kept_set()


class TestDeterminism:
    """Each call starts from an empty kept draw set, so every one of them draws afresh."""

    def test_same_seed_same_estimates(self, params_10db, empty_kept_set):
        a = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL], 500_000,
                           SamplerConfig(seed=15))[0]
        empty_kept_set()
        b = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL], 500_000,
                           SamplerConfig(seed=15))[0]
        assert a == b

    @pytest.mark.parametrize("metric", [Metric.OUTAGE_TOTAL, Metric.THROUGHPUT_ERGODIC])
    def test_worker_count_invariance(self, params_10db, metric, empty_kept_set):
        kwargs = dict(n_samples=500_000, sampler=SamplerConfig(seed=16))
        a = estimate_batch([SchemeId.RS], params_10db, [metric], workers=1, **kwargs)[0]
        empty_kept_set()
        b = estimate_batch([SchemeId.RS], params_10db, [metric], workers=3, **kwargs)[0]
        assert a == b  # bitwise, including the float rate sums

    def test_different_seeds_differ(self, params_10db):
        a = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL], 500_000,
                           SamplerConfig(seed=17))[0]
        b = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL], 500_000,
                           SamplerConfig(seed=18))[0]
        assert a.mean != b.mean


class TestIntervals:
    def test_ci_brackets_mean(self, params_10db):
        est = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL], 100_000,
                             SamplerConfig(seed=19))[0]
        assert est.ci95_low <= est.mean <= est.ci95_high
        assert est.std_error == pytest.approx(
            math.sqrt(est.mean * (1.0 - est.mean) / est.n_samples), rel=1e-12)

    def test_wilson_branch_for_rare_events(self):
        # high SNR: a handful of outages in 1e5 draws
        params = make_params(35.0, 35.0, 1.0, 1.0)
        est = estimate_batch([SchemeId.RS], params, [Metric.OUTAGE_TOTAL], 100_000,
                             SamplerConfig(seed=20))[0]
        assert est.mean * est.n_samples < 100
        assert 0.0 <= est.ci95_low <= est.mean <= est.ci95_high <= 1.0
        assert est.ci95_low < est.mean or est.mean == 0.0

    def test_wilson_ends_are_exact_at_zero_and_all_successes(self):
        # rounding used to leave a positive lower end at 0 successes (5.55e-17 at n = 3),
        # an interval that excluded its own estimate, and an upper end below 1 at n of n
        for n in range(1, 2001):
            assert estimator._wilson_interval(0, n)[0] == 0.0
            assert estimator._wilson_interval(n, n)[1] == 1.0
            assert 0.0 < estimator._wilson_interval(0, n)[1] < 1.0
            assert 0.0 < estimator._wilson_interval(n, n)[0] < 1.0

    def test_wilson_near_all_successes(self):
        # Wald's interval was taken from 100 successes on, so 1000 of 1000 read [1.0, 1.0]
        for n in range(100, 2001):
            for k in range(n - 99, n + 1):
                est = estimator._bernoulli_estimate(SchemeId.RS, Metric.OUTAGE_TOTAL, k, n)
                assert (est.ci95_low, est.ci95_high) == estimator._wilson_interval(k, n)
            assert est.ci95_low < 1.0  # k = n

    @pytest.mark.parametrize("n", [200, 1000, 10**6])
    def test_wilson_at_every_count(self, n):
        # also where both counts reach 100, which took Wald's interval before
        for k in sorted({0, 1, 99, 100, n // 3, n // 2, n - 100, n - 99, n - 1, n}):
            est = estimator._bernoulli_estimate(SchemeId.RS, Metric.OUTAGE_TOTAL, k, n)
            assert (est.ci95_low, est.ci95_high) == estimator._wilson_interval(k, n)

    def test_coverage_over_repeated_seeds(self):
        # 95% CI should cover the analytic value 90..99 times out of 100
        params = SystemParams(p0=10.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        expected = -math.expm1(-0.1)
        hits = 0
        for seed in range(100):
            est = estimate_batch([SchemeId.OMA_PRIMARY], params, [Metric.PRIMARY_OUTAGE],
                                 10_000, SamplerConfig(seed=seed))[0]
            hits += est.ci95_low <= expected <= est.ci95_high
        assert 90 <= hits <= 99


class TestConditionalAndThroughput:
    def test_conditional_uses_admission_denominator(self, params_10db):
        sampler = SamplerConfig(seed=21)
        cond = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_CASE_II_CONDITIONAL],
                              1_000_000, sampler)[0]
        uncond = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_CASE_II], 1_000_000,
                                sampler)[0]
        adm = estimate_batch([SchemeId.RS], params_10db, [Metric.ADMISSION], 1_000_000, sampler)[0]
        assert cond.n_samples == round(adm.mean * 1_000_000)
        assert cond.mean == pytest.approx(uncond.mean / adm.mean, rel=1e-12)

    def test_insufficient_conditioning_raises(self):
        params = SystemParams(p0=0.01, p1=10.0, r0_hat=6.0, r1_hat=1.0)  # admission ~ e^-6300
        with pytest.raises(InsufficientConditioningError):
            estimate_batch([SchemeId.RS], params, [Metric.OUTAGE_CASE_II_CONDITIONAL],
                           10_000, SamplerConfig(seed=22))

    def test_delay_limited_matches_outage(self, params_10db):
        sampler = SamplerConfig(seed=23)
        tput = estimate_batch([SchemeId.RS], params_10db, [Metric.THROUGHPUT_DELAY_LIMITED],
                              500_000, sampler)[0]
        outage = estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL], 500_000,
                                sampler)[0]
        assert tput.mean == pytest.approx(params_10db.r1_hat * (1.0 - outage.mean), rel=1e-12)

    def test_ergodic_rate_ordering(self, params_10db):
        ests = estimate_batch(SECONDARY, params_10db, [Metric.THROUGHPUT_ERGODIC],
                              500_000, SamplerConfig(seed=24))
        rs, nh, qos, csi = [e.mean for e in ests]
        assert rs >= nh >= qos >= csi > 0.0

    def test_oma_rejects_secondary_metrics(self, params_10db):
        with pytest.raises(UnknownSchemeError, match=r"^oma carries no secondary transmission; "
                                                     r"outage-total undefined$"):
            estimate_batch([SchemeId.OMA_PRIMARY], params_10db, [Metric.OUTAGE_TOTAL],
                           1_000, SamplerConfig(seed=25))

    def test_rejects_empty_batch(self, params_10db):
        # SweepSpec's wording and error type
        with pytest.raises(ParameterError, match=r"^schemes and metrics must be nonempty$"):
            estimate_batch([], params_10db, [Metric.OUTAGE_TOTAL], 100, SamplerConfig(seed=1))
        with pytest.raises(ParameterError, match=r"^schemes and metrics must be nonempty$"):
            estimate_batch([SchemeId.RS], params_10db, [], 100, SamplerConfig(seed=1))

    def test_takes_tokens_and_names_a_bad_one(self, params_10db):
        # converted once at the boundary, as SweepSpec converts them
        sampler = SamplerConfig(seed=1)
        assert (estimate_batch(["rs", "csi-sic"], params_10db, ["outage-total", "admission"], 1000,
                               sampler, workers=1)
                == estimate_batch([SchemeId.RS, SchemeId.CSI_SIC], params_10db,
                                  [Metric.OUTAGE_TOTAL, Metric.ADMISSION], 1000, sampler, workers=1))
        assert (estimate_batch(["qos-sic"], params_10db, ["throughput-ergodic"], 1000, sampler,
                               workers=1)
                == estimate_batch([SchemeId.QOS_SIC], params_10db, [Metric.THROUGHPUT_ERGODIC], 1000,
                                  sampler, workers=1))
        for schemes, metrics, bad in ((["rs", "rx"], ["outage-total"], "'rx' is not a valid SchemeId"),
                                      (["rs"], ["outage-totl"], "'outage-totl' is not a valid Metric")):
            with pytest.raises(ParameterError, match=f"^bad batch: {bad}$"):
                estimate_batch(schemes, params_10db, metrics, 1000, sampler, workers=1)

    def test_rejects_nonpositive_sample_count(self, params_10db):
        with pytest.raises(ValueError):
            estimate_batch([SchemeId.RS], params_10db, [Metric.OUTAGE_TOTAL], 0,
                           SamplerConfig(seed=1))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_samples", [True, 1000.0, 1000.5, "100", 0])
    def test_rejects_a_sample_count_that_is_not_a_positive_integer(self, params_10db, n_samples,
                                                                   workers):
        message = f"n_samples must be an integer of at least 1, got {n_samples!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            simulate_tally(params_10db, SamplerConfig(seed=1), n_samples, workers=workers)


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
    rule = _Rule(params, params.p0 * g0, params.p1 * g1, True, with_rates, np)
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

    @pytest.mark.parametrize("n0, n1", [(10, 1), (20_000, 1), (1, 10), ((3, 4), (3, 4)),
                                        ((3, 4), 12), ((), ())])
    def test_refuses_gains_of_other_shapes(self, n0, n1):
        # g1 would be broadcast against g0, or a 2-D pair sliced by rows on strips
        g0, g1 = np.ones(n0), np.ones(n1)
        message = f"g0 and g1 must be 1-D arrays of one length, got shapes {g0.shape} and {g1.shape}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            tally_population(make_params(10.0, 10.0, 1.0, 1.0), g0, g1)
        with pytest.raises(ParameterError, match=r"got shapes None and \(1,\)$"):  # not an array
            tally_population(make_params(10.0, 10.0, 1.0, 1.0), [1.0], np.ones(1))
        gains = np.ones((7, 2))  # a strided 1-D view is fine
        assert tally_population(make_params(10.0, 10.0, 1.0, 1.0), gains[:, 0], gains[:, 1]).n == 7

    def test_counts_without_rates_run_on_strips(self, gains, monkeypatch):
        # counts run on strips too, and equal one count over the whole arrays
        params = make_params(12.0, 17.0, 1.0, 1.5)
        g0, g1 = gains[0][:100_003], gains[1][:100_003]
        sizes, tally = [], estimator._tally

        def spy(rule, n, *args):
            sizes.append(n)
            return tally(rule, n, *args)

        monkeypatch.setattr(estimator, "_tally", spy)
        assert (tally_population(params, g0, g1, tuple(SECONDARY))
                == _unsplit_tally(params, g0, g1, tuple(SECONDARY), with_rates=False))
        assert sum(sizes) == 100_003 and max(sizes) <= estimator._STRIP

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


def _kept_key():
    """The key whose shards this process keeps, or None."""
    return estimator._kept and estimator._kept.mine[0]


class TestKeptDrawSet:
    """A call keeps its own shards of a key and tallies them again while calls repeat the key.

    The spies see the calling process, so the draws are counted at one worker,
    where the owner code runs in the caller; the owners' tallies must equal it.
    """

    SCHEMES = tuple(SECONDARY)

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch, empty_kept_set):
        # several blocks per shard at a small n, and no kept draws to start from
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
        assert _kept_key() == key  # and keeps them
        assert self.simulate(second, *key, with_rates) == ref_second
        assert self.simulate(first, *key, with_rates) == ref_first
        assert sum(gains_calls) == 23_456  # later calls draw nothing
        for workers in (2, 3, 2, 3):  # drawn and kept by the owners, then tallied again
            assert self.simulate(second, *key, with_rates, workers=workers) == ref_second
            assert self.simulate(first, *key, with_rates, workers=workers) == ref_first

    def test_owner_keeps_only_its_shards(self):
        params = make_params(10.0, 10.0, 1.0, 1.0)
        job = (params.p0, params.p1, params.r0_hat, params.r1_hat, (40, 5, 23_456),
               tuple(scheme.value for scheme in self.SCHEMES), True, True)
        mine = estimator._own_tallies(job, 1, 2)  # owner 1 of 2: the second run, shards 2 to 4
        kept = estimator._kept
        assert kept.mine == ((40, 5, 23_456), 1, 2)
        assert [sum(g0.size for g0, _ in blocks) for blocks in kept.shards] == [4691, 4691, 4691]
        assert mine == estimator._own_tallies(job, 1, 2)  # from the kept shards
        assert estimator._kept is kept and kept.index is None  # a rates job indexes nothing
        every = estimator._own_tallies(job, 0, 1)  # another layout draws its own shards
        lo, hi = 1 * 5 // 2, 2 * 5 // 2
        assert every[lo:hi] == mine and len(every) == 5
        assert estimator._kept.mine == ((40, 5, 23_456), 0, 1)

    @pytest.mark.parametrize("changed", [(41, 5, 23_456), (40, 6, 23_456), (40, 5, 23_457)])
    def test_new_key_replaces_kept_set(self, changed, gains_calls):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        expected = self.reference(params, *changed, True)
        expected_old = self.reference(params, 40, 5, 23_456, True)
        self.simulate(params, 40, 5, 23_456, True)
        assert _kept_key() == (40, 5, 23_456)
        gains_calls.clear()
        assert self.simulate(params, *changed, True) == expected
        assert sum(gains_calls) == changed[2]
        assert _kept_key() == changed  # the old set is released, the new one kept
        gains_calls.clear()
        assert self.simulate(params, 40, 5, 23_456, True) == expected_old
        assert sum(gains_calls) == 23_456  # the old set is gone
        for workers in (2, 3):  # the owners replace their kept shards too
            assert self.simulate(params, *changed, True, workers=workers) == expected
            assert self.simulate(params, 40, 5, 23_456, True, workers=workers) == expected_old

    def test_new_key_releases_kept_set_before_drawing(self, monkeypatch):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        expected = self.reference(params, 41, 5, 23_456, False)
        self.simulate(params, 40, 5, 23_456, False)
        assert _kept_key() == (40, 5, 23_456)
        old = weakref.ref(estimator._kept.shards[0][0][0])
        kept_at_draw = []
        gains = GainStream.gains

        def counted(stream, n):
            kept_at_draw.append((_kept_key(), old() is not None))
            return gains(stream, n)

        monkeypatch.setattr(GainStream, "gains", counted)
        assert self.simulate(params, 41, 5, 23_456, False) == expected
        # from the first block on, and no other reference holds the old arrays either
        assert len(kept_at_draw) == 5 * 5 and set(kept_at_draw) == {(None, False)}
        for workers in (2, 3):
            assert self.simulate(params, 41, 5, 23_456, False, workers=workers) == expected

    def test_kept_arrays_are_read_only(self):
        expected = self.simulate(make_params(10.0, 10.0, 1.0, 1.0), 42, 3, 5_000, False)
        assert _kept_key() == (42, 3, 5_000)
        shards = estimator._kept.shards
        assert [sum(g0.size for g0, _ in blocks) for blocks in shards] == [1667, 1667, 1666]
        for blocks in shards:
            for g0, g1 in blocks:
                assert not g0.flags.writeable and not g1.flags.writeable
        with pytest.raises(ValueError):
            shards[0][0][0][0] = 0.0
        for workers in (2, 3):
            for _ in range(2):
                assert self.simulate(make_params(10.0, 10.0, 1.0, 1.0), 42, 3, 5_000, False,
                                     workers=workers) == expected

    def test_set_above_cap_is_drawn_on_every_call(self, monkeypatch, gains_calls):
        monkeypatch.setattr(estimator, "_KEEP_MAX_DRAWS", 4_999)  # before any owner is forked
        params = make_params(10.0, 10.0, 1.0, 1.0)
        expected = self.reference(params, 43, 4, 5_000, True)
        gains_calls.clear()
        for _ in range(3):
            assert self.simulate(params, 43, 4, 5_000, True) == expected
        assert sum(gains_calls) == 3 * 5_000
        assert _kept_key() is None
        for workers in (2, 3, 2):
            assert self.simulate(params, 43, 4, 5_000, True, workers=workers) == expected

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
    """Shard blocks larger than _STRIP, drawn and kept, at several worker counts.

    The spy sees the calling process, so it counts the one-worker calls; the
    owners' tallies at `workers` must equal them.
    """

    KEY = (48, 3, 120_000)  # three shards of one 40,000-draw block each

    def simulate(self, params, schemes, workers, **kwargs):
        seed, stream_count, n = self.KEY
        return simulate_tally(params, SamplerConfig(seed=seed, stream_count=stream_count), n,
                              schemes, with_rates=True, workers=workers, **kwargs)

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
        for kept in (None, self.KEY, self.KEY):  # a new key is drawn and kept, then tallied again
            assert _kept_key() == kept
            sizes.clear()
            assert self.simulate(params, schemes, 1) == expected
            assert sizes == [40_000] * 3  # one tally_population call per block, not per strip
        for _ in range(2):
            assert self.simulate(params, schemes, workers) == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rates_only_sums_equal_combined(self, workers, empty_kept_set):
        params = make_params(12.0, 17.0, 1.0, 1.5)
        schemes = tuple(SECONDARY)
        expected = _rate_sums(_reference_tally(params, *self.KEY, schemes, True))
        for _ in range(3):  # drawn and kept, then tallied from the kept shards
            got = self.simulate(params, schemes, workers, with_counts=False)
            assert _rate_sums(got) == expected
            assert (got.has_counts, got.has_rates) == (False, True)
        assert _kept_key() == (self.KEY if workers == 1 else None)  # owners keep their own


_DB = st.floats(-20.0, 60.0)
_RATE = st.floats(0.01, 8.0)


@st.composite
def _any_params(draw):
    """A point of -20...60 dB and rates 0.01...8, equal powers often, or a boundary point."""
    if draw(st.booleans()):
        return SystemParams(*draw(st.sampled_from(TestBoundaries.POINTS)))
    p0 = draw(_DB)
    p1 = p0 if draw(st.booleans()) else draw(_DB)
    return make_params(p0, p1, draw(_RATE), draw(_RATE))


# a nonempty set of schemes, in SchemeId order
_any_schemes = st.sets(st.sampled_from(list(SchemeId)), min_size=1).map(
    lambda chosen: tuple(s for s in SchemeId if s in chosen))


def _threshold_gains(params, seed):
    """Sorted gains about every threshold the rule has in g0 or g1 alone, and random ones."""
    thresholds = np.array([params.eps0 / params.p0, params.eps1 / params.p1, *EDGE_GAINS])
    g = np.concatenate([thresholds, np.nextafter(thresholds, 0.0), np.nextafter(thresholds, np.inf),
                        np.random.default_rng(seed).exponential(1.0, 60)])
    return np.sort(g[np.isfinite(g)])


def _index_gains(side):
    """Gains to index: random ones with the boundary grid, or the grid with only its neighbours
    above (side 1) or below (side -1), so that every tie is a corner of its cell."""
    edges = np.array(EDGE_GAINS)
    if side == 0:
        g0, g1 = GainStream(50, 0).gains(30_000)
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    else:
        g0 = g1 = np.empty(0)
        near = np.concatenate([edges, np.nextafter(edges, side * np.inf)])
    e0, e1 = (a.ravel() for a in np.meshgrid(near, near))
    return (g0, g1), (e0, e1)


class TestGainIndex:
    """Counts-only jobs on kept draws take whole cells of the gain plane from an index."""

    SCHEMES = tuple(SchemeId)
    KEY = (49, 5, 30_011)

    @pytest.fixture(scope="class", params=[0, 1, -1])
    def gains_and_index(self, request):
        blocks = _index_gains(request.param)
        return blocks, estimator._GainIndex((blocks,))

    @settings(max_examples=150, deadline=None)
    @given(params=_any_params(), schemes=_any_schemes)
    def test_index_counts_equal_strip_counts(self, gains_and_index, params, schemes):
        ((g0, g1), (e0, e1)), index = gains_and_index
        expected = tally_population(params, g0, g1, schemes)
        expected.merge(tally_population(params, e0, e1, schemes))
        got = index.tally(params, schemes)
        assert got == expected
        assert all(type(v) is int for v in _counts(got).values())

    def test_index_takes_whole_cells(self, monkeypatch):
        # the index is only worth its name if most draws skip the rule: it runs once on the
        # cells' corners, then tally_population runs it on the mixed cells' draws alone
        index = estimator._GainIndex((_index_gains(0),))
        assert index.counts.sum() == index.gains.shape[1] == 30_000 + 36 ** 2
        rules, mixed = [], []
        rule, tally = estimator._rule, estimator.tally_population

        def counted_rule(params, g0, *args):
            rules.append(g0.size)
            return rule(params, g0, *args)

        def counted_tally(params, g0, *args, **kwargs):
            mixed.append((g0.size, len(rules)))
            return tally(params, g0, *args, **kwargs)

        monkeypatch.setattr(estimator, "_rule", counted_rule)
        monkeypatch.setattr(estimator, "tally_population", counted_tally)
        index.tally(make_params(10.0, 10.0, 1.0, 1.0), self.SCHEMES)
        [(size, rules_before)] = mixed
        assert rules_before == 1 and rules[0] == 4 * index.counts.size  # once, on the corners
        assert size < 0.3 * index.counts.sum()

    @settings(max_examples=12, deadline=None)
    @given(params=_any_params(), schemes=_any_schemes)
    def test_index_counts_equal_strip_counts_at_every_worker_count(self, params, schemes):
        sampler = SamplerConfig(seed=self.KEY[0], stream_count=self.KEY[1])
        expected = _reference_tally(params, *self.KEY, schemes, False)
        for workers in (1, 2, 3):
            for _ in range(2):  # a counts job that finds the key kept takes the index
                assert simulate_tally(params, sampler, self.KEY[2], schemes,
                                      workers=workers) == expected
            assert estimator._kept.index is not None  # at one worker, in this process

    @settings(max_examples=100, deadline=None)
    @given(params=_any_params(), seed=st.integers(0, 2**32))
    def test_each_comparison_changes_at_most_once_along_each_gain(self, params, seed):
        g = _threshold_gains(params, seed)
        g0, g1 = np.meshgrid(g, g, indexing="ij")  # g0 along axis 0, g1 along axis 1
        tests = self.comparisons(params, params.p0 * g0, params.p1 * g1)
        assert len(tests) == 5 + 1 + 1 + 2  # the rule's, RS's, NH-SIC's and CSI-SIC's
        for test in tests:
            for axis in (0, 1):
                assert np.count_nonzero(np.diff(test, axis=axis), axis=axis).max() <= 1

    @pytest.mark.parametrize("point", TestBoundaries.POINTS + [(10.0, 100.0, 1.5, 1.5)])
    def test_no_comparison_is_the_complement_of_another(self, point):
        # a complement decides nothing that its comparison does not, so listing it only makes
        # the corner stack taller; p0g0 = eps0 and a tiny p1g1 are the ties that part
        # admission from primary outage, and the case-I budget test from CSI-SIC's x0 test
        params = SystemParams(*point)
        g = _threshold_gains(params, 0)
        p0g0, p1g1 = np.meshgrid(np.append(params.p0 * g, params.eps0),
                                 np.append(params.p1 * g, 1e-300), indexing="ij")
        tests = self.comparisons(params, p0g0, p1g1)
        for i, test in enumerate(tests):
            for other in tests[:i]:
                assert not np.array_equal(test, other ^ True)

    def comparisons(self, params, p0g0, p1g1):
        """The comparisons of the rule and every scheme at the given received powers."""
        rule = _Rule(params, p0g0, p1g1, True, False, np)
        return rule.comparisons([rule.scheme(s) for s in self.SCHEMES])

    def test_a_counts_job_indexes_a_key_it_finds_kept(self, monkeypatch, empty_kept_set):
        builds, strips = [], []
        build, run_shard = estimator._GainIndex, estimator._run_shard

        def counted_build(shards):
            builds.append(estimator._kept.mine)
            return build(shards)

        def counted_run_shard(*args):
            strips.append(args)
            return run_shard(*args)

        monkeypatch.setattr(estimator, "_GainIndex", counted_build)
        monkeypatch.setattr(estimator, "_run_shard", counted_run_shard)
        first, second = make_params(10.0, 10.0, 1.0, 1.0), make_params(12.0, 17.0, 1.0, 1.5)
        key, other = self.KEY, (51, 5, 30_011)

        def simulate(params, key, with_rates=False):
            """Check the tally against the reference; return the path it took."""
            expected = _reference_tally(params, *key, self.SCHEMES, with_rates)
            strips.clear()
            got = simulate_tally(params, SamplerConfig(seed=key[0], stream_count=key[1]), key[2],
                                 self.SCHEMES, with_rates, workers=1)
            assert got == expected
            return "strips" if strips else "index"

        assert simulate(first, key, with_rates=True) == "strips"  # a rates job draws the key
        assert builds == [] and estimator._kept.index is None
        assert simulate(second, key) == "index"  # the next counts job finds it kept: it indexes
        index = estimator._kept.index
        assert builds == [(key, 0, 1)] and index is not None
        for params in (second, first, second):
            assert simulate(params, key) == "index"
            assert simulate(params, key, with_rates=True) == "strips"  # and the index stays
        assert builds == [(key, 0, 1)] and estimator._kept.index is index  # built once
        assert simulate(first, other) == "strips"  # a counts job that draws a key indexes nothing
        assert estimator._kept.mine[0] == other and estimator._kept.index is None  # old one dropped
        assert simulate(second, other) == "index"  # the next one indexes it
        assert simulate(first, other) == "index"
        assert builds == [(key, 0, 1), (other, 0, 1)]
        monkeypatch.setattr(estimator, "_KEEP_MAX_DRAWS", 30_010)  # keys above it are not kept
        for params in (first, second, first):
            assert simulate(params, key) == "strips"
        assert estimator._kept is None and len(builds) == 2


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

    @pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
    def test_tally_of_no_draws_is_refused(self, params_10db, metric):
        g0, g1 = GainStream(1, 0).gains(1_000)
        empty = tally_population(params_10db, np.empty(0), np.empty(0), with_rates=True)
        primary = metric in (Metric.PRIMARY_OUTAGE, Metric.ADMISSION)
        scheme = SchemeId.OMA_PRIMARY if primary else SchemeId.RS
        with pytest.raises(ValueError, match=f"^{metric.value} needs at least one draw, but the tally "
                                             f"holds none$"):
            estimator.estimate_from_tally(scheme, metric, params_10db, empty)
        part = tally_population(params_10db, g0, g1, with_rates=True)
        empty.merge(part)  # still an accumulator
        assert empty == part

    @pytest.mark.parametrize("flag", ["with_rates", "with_counts"])
    @pytest.mark.parametrize("value", ["yes", 1, None], ids=repr)
    def test_product_flags_must_be_bools(self, params_10db, flag, value):
        g0, g1 = GainStream(1, 0).gains(1_000)
        message = f"^{flag} must be True or False, got {re.escape(repr(value))}$"
        with pytest.raises(ParameterError, match=message):
            tally_population(params_10db, g0, g1, **{flag: value})
        with pytest.raises(ParameterError, match=message):
            simulate_tally(params_10db, SamplerConfig(seed=47), 1_000, **{flag: value}, workers=1)

    def test_numpy_bool_flags_are_stored_as_bools(self, params_10db):
        g0, g1 = GainStream(1, 0).gains(1_000)
        got = tally_population(params_10db, g0, g1, with_rates=np.True_, with_counts=np.True_)
        assert type(got.has_rates) is bool and type(got.has_counts) is bool
        assert got == tally_population(params_10db, g0, g1, with_rates=True)
        total = simulate_tally(params_10db, SamplerConfig(seed=47), 1_000, with_rates=np.True_,
                               workers=1)
        assert type(total.has_rates) is bool
        total.merge(got)  # a tally of the same products merges

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_tally_takes_one_shot_schemes(self, params_10db, empty_kept_set, workers):
        sampler, schemes = SamplerConfig(seed=47), (SchemeId.CSI_SIC, SchemeId.RS)
        expected = simulate_tally(params_10db, sampler, 1_000, schemes, True, workers)
        got = simulate_tally(params_10db, sampler, 1_000, (s for s in schemes), True, workers)
        assert got == expected and list(got.schemes) == list(schemes)

    def test_tally_population_takes_one_shot_schemes_above_a_strip(self, params_10db):
        g0, g1 = GainStream(1, 0).gains(50_000)
        assert g0.size > estimator._STRIP  # so that the strips read the schemes more than once
        schemes = (SchemeId.CSI_SIC, SchemeId.RS)
        expected = tally_population(params_10db, g0, g1, schemes, True)
        got = tally_population(params_10db, g0, g1, (s for s in schemes), True)
        assert got == expected and list(got.schemes) == list(schemes)

    def test_mixed_batch_equals_each_metric_alone(self, params_10db, empty_kept_set):
        sampler, metrics = SamplerConfig(seed=50), [Metric.OUTAGE_TOTAL, Metric.THROUGHPUT_ERGODIC]
        mixed = estimate_batch(SECONDARY, params_10db, metrics, 20_000, sampler)
        alone = [estimate_batch([s], params_10db, [m], 20_000, sampler)[0]
                 for s in SECONDARY for m in metrics]
        assert mixed == alone


def _owner_pids():
    return [proc.pid for proc, _ in estimator._owners]


def _exited(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestShardPool:
    """simulate_tally keeps one set of shard-owner processes per process, for the last worker count."""

    @staticmethod
    def run(workers):
        return simulate_tally(make_params(10.0, 10.0, 1.0, 1.0), SamplerConfig(seed=51, stream_count=8),
                              8_000, (SchemeId.RS, SchemeId.CSI_SIC), workers=workers)

    def test_calls_reuse_the_owners(self, empty_kept_set):
        expected = self.run(1)
        assert self.run(2) == expected
        pids = _owner_pids()
        assert len(pids) == 2 and os.getpid() not in pids
        assert self.run(2) == expected
        assert _owner_pids() == pids  # kept between calls, not started for each
        assert all(proc.is_alive() for proc, _ in estimator._owners)

    def test_new_worker_count_shuts_the_old_pool_down(self, empty_kept_set):
        self.run(2)
        old = _owner_pids()
        self.run(3)
        assert len(_owner_pids()) == 3 and not set(old) & set(_owner_pids())
        assert all(_exited(pid) for pid in old)  # stopped and reaped

    def test_one_worker_leaves_the_pool_alone(self, empty_kept_set, monkeypatch):
        import multiprocessing

        expected = self.run(1)
        assert estimator._owners == () and not multiprocessing.active_children()  # none started
        assert self.run(2) == expected
        pids = _owner_pids()
        seen, tally = [], estimator.tally_population

        def spy(*args, **kwargs):
            seen.append(os.getpid())
            return tally(*args, **kwargs)

        monkeypatch.setattr(estimator, "tally_population", spy)
        assert self.run(1) == expected
        assert set(seen) == {os.getpid()}  # tallied in the calling process
        assert _owner_pids() == pids and all(proc.is_alive() for proc, _ in estimator._owners)

    def test_without_fork_every_call_runs_on_one_worker(self, empty_kept_set, monkeypatch):
        import multiprocessing

        expected = self.run(1)
        monkeypatch.delattr(os, "fork")  # as on Windows
        assert self.run(2) == expected
        assert estimator._owners == () and not multiprocessing.active_children()  # none started
        monkeypatch.setenv("CRNOMA_WORKERS", "0")
        with pytest.raises(ParameterError, match="CRNOMA_WORKERS must be an integer"):
            self.run(None)
        with pytest.raises(ParameterError, match="workers must be an integer"):
            self.run(0)

    def test_no_owner_idles(self, empty_kept_set):
        import multiprocessing

        params = make_params(10.0, 10.0, 1.0, 1.0)
        # (sampler, n_samples, workers asked for, owners the call needs: its nonempty shards)
        for sampler, n, workers, owners in [(SamplerConfig(seed=3, stream_count=2), 1_000, 4, 2),
                                            (SamplerConfig(seed=3), 3, 4, 3),
                                            (SamplerConfig(seed=3), 1, 2, 0)]:
            expected = simulate_tally(params, sampler, n, workers=1)
            assert simulate_tally(params, sampler, n, workers=workers) == expected
            assert len(_owner_pids()) == len(multiprocessing.active_children()) == owners
            estimator._stop_owners()

    def test_threads_switching_worker_counts_get_their_results(self):
        # each call may stop the owners that the other thread's last call used
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
        import multiprocessing

        expected = self.run(2)  # the parent holds owners now; they are not the child's
        pids = _owner_pids()
        pid = os.fork()
        if pid == 0:
            try:
                ok = (estimator._owners == ()
                      and not {p.pid for p in multiprocessing.active_children()} & set(pids)
                      and self.run(2) == expected
                      and not set(_owner_pids()) & set(pids))
                estimator._stop_owners()
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
        assert self.run(2) == expected and _owner_pids() == pids  # the parent's are untouched


# Starts two owners, prints their pids and waits for its standard input to close.
_OWNERS_CHILD = (
    "import sys, crnoma; from crnoma import estimator; "
    "crnoma.simulate_tally(crnoma.SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0), "
    "crnoma.SamplerConfig(seed=1), 10_000, workers=2); "
    "print(*(proc.pid for proc, _ in estimator._owners), flush=True); sys.stdin.read()"
)

# Runs _OWNERS_CHILD, ends it (argv[1]: "exit" closes its input, "kill" SIGKILLs it) and
# reports which owners are still there 10 s later. It adopts orphans (Linux
# PR_SET_CHILD_SUBREAPER) and reaps them, so an owner that exited never lingers as a zombie.
_OWNERS_HARNESS = r"""
import ctypes, json, os, subprocess, sys, time
assert ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
child = subprocess.Popen([sys.executable, "-c", sys.argv[2]], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, text=True)
pids = [int(pid) for pid in child.stdout.readline().split()]
started = []
for pid in pids:
    os.kill(pid, 0)
    started.append(pid)
if sys.argv[1] == "kill":
    child.kill()
else:
    child.stdin.close()
child.wait(timeout=60)
alive, deadline = set(pids), time.monotonic() + 10
while alive and time.monotonic() < deadline:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass
    for pid in list(alive):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            alive.discard(pid)
    time.sleep(0.02)
print(json.dumps({"started": started, "alive": sorted(alive)}))
"""

# a usable point whose tally raises _REFUSAL in test_owner_error_reaches_the_caller
_MARKED = SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=0.5)
_REFUSAL = "the marked point is refused inside the tally"


class TestOwnerLifecycle:
    """Owners end with their caller, report their errors, and survive neither a kill nor Ctrl-C quietly."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
    @pytest.mark.parametrize("end", ["exit", "kill"])
    def test_owners_end_with_their_caller(self, end):
        proc = subprocess.run([sys.executable, "-c", _OWNERS_HARNESS, end, _OWNERS_CHILD],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert len(report["started"]) == 2 and report["alive"] == []

    @pytest.fixture
    def marked_point_refused(self, monkeypatch):
        """tally_population raises _REFUSAL at _MARKED, here and in every owner forked meanwhile.

        The owners are stopped first, so the next call with two workers forks
        owners that inherit the wrapper, and again at teardown, so that no
        wrapped owner serves a later test.
        """
        tally = estimator.tally_population

        def refusing(params, *args, **kwargs):
            if params == _MARKED:
                raise ParameterError(_REFUSAL)
            return tally(params, *args, **kwargs)

        estimator._stop_owners()
        monkeypatch.setattr(estimator, "tally_population", refusing)
        yield
        estimator._stop_owners()

    @pytest.mark.parametrize("bad, schemes, error", [
        # raised inside each owner, by its tally of the parameters it rebuilds
        (_MARKED, tuple(SECONDARY), ParameterError),
        # refused in the caller, before any owner is asked, as the rule refuses it at one worker
        (SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0), ("bogus",), UnknownSchemeError),
    ], ids=["owner", "caller"])
    def test_owner_error_reaches_the_caller(self, params_10db, marked_point_refused, bad, schemes,
                                            error):
        sampler, other = SamplerConfig(seed=52), SamplerConfig(seed=54)
        expected = simulate_tally(params_10db, sampler, 10_000, workers=1)
        simulate_tally(params_10db, sampler, 10_000, workers=2)
        pids = _owner_pids()
        with pytest.raises(error) as at_one:
            simulate_tally(bad, other, 10_000, schemes, workers=1)
        for _ in range(2):  # the first call draws the owners' shards, the second finds them kept
            with pytest.raises(error) as at_two:
                simulate_tally(bad, other, 10_000, schemes, workers=2)
            assert type(at_two.value) is type(at_one.value) is error
            assert str(at_two.value) == str(at_one.value)
        assert str(at_one.value) in (_REFUSAL, "unknown scheme 'bogus'")
        assert simulate_tally(params_10db, sampler, 10_000, workers=2) == expected
        assert _owner_pids() == pids  # an error in the tally leaves the owners running

    @pytest.mark.parametrize("killed", [[0], [0, 1]])
    @pytest.mark.parametrize("wait", [False, True])
    def test_killed_owner_is_an_error_or_replaced(self, params_10db, killed, wait):
        sampler = SamplerConfig(seed=53)
        expected = simulate_tally(params_10db, sampler, 20_000, workers=1)
        assert simulate_tally(params_10db, sampler, 20_000, workers=2) == expected
        owners = estimator._owners
        pids = {owners[k][0].pid for k in killed}
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if wait:
            for k in killed:
                owners[k][0].join(timeout=30)
        outcome = []

        def call():
            try:
                outcome.append(simulate_tally(params_10db, sampler, 20_000, workers=2))
            except RuntimeError as exc:
                outcome.append(exc)

        t = threading.Thread(target=call, daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "simulate_tally hung after an owner was killed"
        got, = outcome
        assert got == expected or "worker process ended" in str(got)
        assert wait is False or got == expected  # a dead owner found before the call is replaced
        assert simulate_tally(params_10db, sampler, 20_000, workers=2) == expected
        assert not set(_owner_pids()) & pids

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
    def test_ctrl_c_prints_one_traceback(self):
        # a pytest started in the background (as a & job) may hand its children SIGINT ignored;
        # the child restores Python's own handler before it forks owners or prints ready
        code = ("import signal, sys, crnoma; signal.signal(signal.SIGINT, signal.default_int_handler); "
                "p = crnoma.SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0); "
                "crnoma.simulate_tally(p, crnoma.SamplerConfig(seed=1), 10_000, workers=2); "
                "print('ready', flush=True)\n"
                "while True: crnoma.simulate_tally(p, crnoma.SamplerConfig(seed=2), 4_000_000, workers=2)")
        with subprocess.Popen([sys.executable, "-c", code], env=src_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
            try:
                assert proc.stdout.readline() == "ready\n"
                time.sleep(0.5)
                os.killpg(proc.pid, signal.SIGINT)  # what Ctrl-C sends: the whole process group
                _, err = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode != 0
        assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt"), err


class TestOwnerMessages:
    """A job goes to the owners pickled once, as plain fields; each tally comes back as one flat tuple."""

    # a repeated scheme, and one with no secondary transmission, keep the replies' scheme order honest
    SCHEMES = (SchemeId.CSI_SIC, SchemeId.RS, SchemeId.OMA_PRIMARY, SchemeId.RS, SchemeId.NH_SIC)

    @pytest.mark.parametrize("with_counts, with_rates", [(True, False), (False, True), (True, True)],
                             ids=["counts", "rates", "both"])
    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "one-off"])
    # fewer shards than some worker counts, and fewer draws than streams
    @pytest.mark.parametrize("stream_count, n_samples", [(7, 10_000), (1, 10_000), (3, 10_000),
                                                         (5, 10_000), (5, 3), (7, 4)])
    def test_owners_equal_one_worker(self, monkeypatch, empty_kept_set, with_counts, with_rates, kept,
                                     stream_count, n_samples):
        if not kept:  # before any owner is forked
            monkeypatch.setattr(estimator, "_KEEP_MAX_DRAWS", n_samples - 1)
        params = make_params(10.0, 13.0, 1.0, 1.5)
        sampler = SamplerConfig(seed=61, stream_count=stream_count)

        def run(workers):
            return simulate_tally(params, sampler, n_samples, self.SCHEMES, with_rates, workers,
                                  with_counts=with_counts)

        expected = run(1)
        assert _kept_key() == ((61, stream_count, n_samples) if kept else None)
        assert list(expected.schemes) == [SchemeId.CSI_SIC, SchemeId.RS, SchemeId.OMA_PRIMARY,
                                          SchemeId.NH_SIC]
        for workers in (2, 2, 3, 3, 5, 5):  # each count draws, then finds its key kept (if it is kept)
            got = run(workers)
            assert got == expected and list(got.schemes) == list(expected.schemes)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_call_pickles_its_job_once(self, monkeypatch, params_10db, workers):
        from multiprocessing.connection import Connection

        sampler = SamplerConfig(seed=62, stream_count=5)

        def run():
            return simulate_tally(params_10db, sampler, 5_000, tuple(SECONDARY), workers=workers)

        expected = run()  # starts the owners, with more than one worker
        dumped, sent = [], []
        dumps, send_bytes = pickle.dumps, Connection.send_bytes
        monkeypatch.setattr(pickle, "dumps", lambda obj, *a, **k: dumped.append(obj) or dumps(obj, *a, **k))
        monkeypatch.setattr(Connection, "send_bytes",
                            lambda conn, buf, *a: sent.append(buf) or send_bytes(conn, buf, *a))
        assert run() == expected
        if workers == 1:  # the calling process tallies; nothing is sent
            assert dumped == sent == []
            return
        job = (10.0, 10.0, 1.0, 1.0, (62, 5, 5_000), ("rs", "nh-sic", "qos-sic", "csi-sic"), True, False)
        assert dumped == [job]
        assert len(sent) == workers and all(buf is sent[0] for buf in sent)  # the same bytes to each
        assert pickle.loads(sent[0]) == job


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3, 2.7, "2"])
    def test_bad_argument_raises(self, workers):
        with pytest.raises(ParameterError, match="workers must be an integer"):
            estimator._worker_count(workers)

    # text that int() reads is shown as the integer, other text as itself
    @pytest.mark.parametrize("env, shown", [("0", "0"), ("-2", "-2"), ("abc", "'abc'"),
                                            ("2.5", "'2.5'")], ids=["0", "-2", "abc", "2.5"])
    def test_bad_environment_raises(self, env, shown, monkeypatch):
        monkeypatch.setenv("CRNOMA_WORKERS", env)
        message = f"CRNOMA_WORKERS must be an integer of at least 1, got {shown}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
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


def test_import_does_not_load_multiprocessing():
    code = ("import crnoma, sys; assert 'multiprocessing' not in sys.modules; "
            "p = crnoma.SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0); "
            "crnoma.simulate_tally(p, crnoma.SamplerConfig(seed=1), 1_000, workers=1); "
            "assert 'multiprocessing' not in sys.modules; "
            "crnoma.simulate_tally(p, crnoma.SamplerConfig(seed=1), 1_000, workers=2); "
            "assert 'multiprocessing' in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

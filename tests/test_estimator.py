import math

import pytest

from crnoma import (
    GainStream,
    InsufficientConditioningError,
    Metric,
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
from crnoma.strategy import evaluate_outcome
from crnoma.params import ChannelRealization

from conftest import make_params

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


class TestDeterminism:
    def test_same_seed_same_estimates(self, params_10db):
        a = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 500_000, SamplerConfig(seed=15))
        b = estimate(SchemeId.RS, params_10db, Metric.OUTAGE_TOTAL, 500_000, SamplerConfig(seed=15))
        assert a == b

    @pytest.mark.parametrize("metric", [Metric.OUTAGE_TOTAL, Metric.THROUGHPUT_ERGODIC])
    def test_worker_count_invariance(self, params_10db, metric):
        kwargs = dict(n_samples=500_000, sampler=SamplerConfig(seed=16))
        a = estimate(SchemeId.RS, params_10db, metric, workers=1, **kwargs)
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

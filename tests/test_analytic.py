import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from crnoma import (
    AnalyticReport,
    ParameterError,
    SchemeId,
    SystemParams,
    admission_probability,
    analytic_report,
    case_ii_outage_gap,
    conditional_case_ii_outage,
    db_to_linear,
    delay_limited_throughput,
    derive_constants,
    exp_strip_integral,
    nh_sic_case_ii_outage,
    primary_outage_probability,
    qos_sic_case_ii_outage,
    qos_sic_outage_floor,
    rs_case_i_outage,
    rs_case_ii_outage,
    rs_case_iii_outage,
    rs_high_snr,
    rs_total_outage,
    total_outage,
    total_outage_high_snr,
)
from crnoma.selftest import parameter_grid

from conftest import make_params

param_strategy = st.tuples(
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
).map(lambda t: SystemParams(p0=t[0], p1=t[1], r0_hat=t[2], r1_hat=t[3]))


def _qos_region_quadrature(params: SystemParams) -> float:
    """Independent check of the QoS-SIC case-II probability straight from its event.

    Integrates P{tau/p1 < g1 < eps1*(1 + p0*g0)/p1} over the g0 range where
    the interval is nonempty.
    """
    c = derive_constants(params)
    product = c.eps0 * c.eps1
    hi = c.eta0 * (1.0 + c.eps1) / (1.0 - product) if product < 1.0 else np.inf

    def integrand(y):
        lower = (params.p0 * y / c.eps0 - 1.0) / params.p1
        upper = c.eps1 * (1.0 + params.p0 * y) / params.p1
        return math.exp(-lower - y) - math.exp(-upper - y)

    value, _ = quad(integrand, c.eta0, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


class TestStripIntegral:
    def test_limit_value_at_minus_one(self):
        assert exp_strip_integral(-1.0, 0.3, 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_vanishes_with_zero_width(self):
        assert exp_strip_integral(0.5, 0.3, 0.0) == 0.0

    def test_general_branch_value(self):
        # exp(-0.3) - exp(-0.6), by direct evaluation
        assert exp_strip_integral(0.0, 0.3, 1.0) == pytest.approx(0.19200658458769143, abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-6, -1e-6, 1e-9, -1e-9])
    def test_continuity_across_singularity(self, delta):
        eta0, eps1 = 0.25, 1.5
        scale = eta0 * eps1
        assert abs(exp_strip_integral(-1.0 + delta, eta0, eps1) - scale) <= 1e-6 * scale

    def test_series_matches_generic_branch_at_cutoff(self):
        # the two evaluation branches may not jump where they hand over
        eta0, eps1 = 0.4, 2.0
        below = exp_strip_integral(-1.0 + 0.999e-6, eta0, eps1)
        above = exp_strip_integral(-1.0 + 1.001e-6, eta0, eps1)
        assert below == pytest.approx(above, rel=1e-8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            exp_strip_integral(0.0, -1.0, 1.0)
        with pytest.raises(ParameterError):
            exp_strip_integral(float("nan"), 0.3, 1.0)


class TestRsOutage:
    def test_case_ii_frozen_value(self, params_10db):
        # quadrature of the case-II region at p0 = p1 = 10, r0 = r1 = 1
        assert rs_case_ii_outage(params_10db) == pytest.approx(0.007927776608949055, abs=1e-12)

    def test_vanishes_with_tiny_target(self):
        params = SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1e-9)
        assert rs_case_i_outage(params) < 1e-8
        assert rs_case_ii_outage(params) < 1e-8
        assert rs_case_iii_outage(params) < 1e-8

    def test_case_iii_vanishes_as_p1_grows(self):
        params = SystemParams(p0=10.0, p1=1e12, r0_hat=1.0, r1_hat=1.0)
        assert rs_case_iii_outage(params) < 1e-11

    def test_decomposition_identity_on_grid(self):
        for params in parameter_grid():
            parts = (rs_case_i_outage(params) + rs_case_ii_outage(params)
                     + rs_case_iii_outage(params))
            assert abs(parts - rs_total_outage(params)) <= 1e-12

    def test_all_probabilities_in_unit_interval_on_grid(self):
        for params in parameter_grid():
            for f in (rs_case_i_outage, rs_case_ii_outage, rs_case_iii_outage,
                      rs_total_outage, nh_sic_case_ii_outage, qos_sic_case_ii_outage,
                      admission_probability):
                assert 0.0 <= f(params) <= 1.0

    def test_total_monotone_in_p1(self):
        for r in (1.0, 1.5):
            values = [rs_total_outage(SystemParams(p0=10.0, p1=db_to_linear(db), r0_hat=1.0, r1_hat=r))
                      for db in np.arange(0.0, 40.01, 0.25)]
            assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))

    @settings(max_examples=200, deadline=None)
    @given(param_strategy)
    def test_probability_range_never_trips(self, params):
        assert 0.0 <= rs_total_outage(params) <= 1.0


class TestHighSnr:
    def test_headline_is_eta1(self):
        params = SystemParams(p0=1000.0, p1=1000.0, r0_hat=1.0, r1_hat=1.0)
        assert rs_high_snr(params).headline == pytest.approx(1e-3, rel=1e-12)

    def test_exact_to_approx_ratio_at_40db(self):
        params = make_params(40.0, 40.0, 1.0, 1.0)
        ratio = rs_total_outage(params) / rs_high_snr(params).headline
        assert 0.9 <= ratio <= 1.1

    def test_second_order_terms_scale_as_inverse_square(self):
        a = rs_high_snr(SystemParams(p0=100.0, p1=100.0, r0_hat=1.0, r1_hat=1.0))
        b = rs_high_snr(SystemParams(p0=100.0, p1=200.0, r0_hat=1.0, r1_hat=1.0))
        assert a.case_ii == pytest.approx(4.0 * b.case_ii, rel=1e-12)
        assert a.case_iii == pytest.approx(4.0 * b.case_iii, rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0])  # r = 2 puts eps0*eps1 = 9 >= 1
    def test_diversity_slope_is_minus_one(self, r):
        dbs = np.arange(30.0, 40.01, 2.0)
        pouts = [rs_total_outage(make_params(db, db, r, r)) for db in dbs]
        slope = np.polyfit(dbs / 10.0, np.log10(pouts), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


class TestBenchmarkOutage:
    def test_qos_matches_event_quadrature_across_regimes(self):
        # covers eps0*eps1 < 1, = 1, and > 1
        for (r0, r1) in [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (0.5, 2.0)]:
            for (a, b) in [(5.0, 15.0), (10.0, 10.0), (20.0, 10.0)]:
                params = make_params(a, b, r0, r1)
                assert qos_sic_case_ii_outage(params) == pytest.approx(
                    _qos_region_quadrature(params), abs=1e-9)

    def test_qos_floor_is_high_snr_limit(self):
        floor_20 = qos_sic_case_ii_outage(make_params(20.0, 20.0, 2.0, 2.0))
        floor_50 = qos_sic_case_ii_outage(make_params(50.0, 50.0, 2.0, 2.0))
        target = qos_sic_outage_floor(make_params(50.0, 50.0, 2.0, 2.0))
        assert target == pytest.approx(0.5, abs=1e-12)  # (9-1)/(4*4)
        assert abs(floor_50 - target) < abs(floor_20 - target)
        assert floor_50 == pytest.approx(target, rel=1e-3)

    def test_floor_zero_at_product_boundary(self):
        assert qos_sic_outage_floor(make_params(10.0, 10.0, 1.0, 1.0)) == 0.0

    def test_floor_limit_with_equal_powers(self):
        # p0 = p1 -> floor = (eps0*eps1 - 1)/((1+eps0)(1+eps1))
        params = make_params(25.0, 25.0, 2.0, 1.0)  # eps0 = 3, eps1 = 1
        assert qos_sic_outage_floor(params) == pytest.approx(2.0 / 8.0, rel=1e-12)

    def test_qos_continuous_across_product_one(self):
        lo = qos_sic_case_ii_outage(SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=0.9999999))
        at = qos_sic_case_ii_outage(SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0))
        assert lo == pytest.approx(at, rel=1e-5)

    def test_nh_frozen_value(self, params_10db):
        # event quadrature at p0 = p1 = 10, r0 = r1 = 1
        assert nh_sic_case_ii_outage(params_10db) == pytest.approx(0.014865818192578623, abs=1e-12)

    def test_nh_vanishes_with_tiny_target(self):
        params = SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1e-9)
        assert nh_sic_case_ii_outage(params) < 1e-8

    def test_gap_identity_and_sign_on_grid(self):
        for params in parameter_grid():
            gap = case_ii_outage_gap(params)
            assert gap >= 0.0
            assert abs(nh_sic_case_ii_outage(params) - rs_case_ii_outage(params) - gap) <= 1e-12

    def test_gap_vanishes_at_high_snr(self):
        assert case_ii_outage_gap(make_params(40.0, 40.0, 1.0, 1.0)) <= 1e-4

    def test_case_ii_ordering_on_grid(self):
        for params in parameter_grid():
            rs = rs_case_ii_outage(params)
            nh = nh_sic_case_ii_outage(params)
            qos = qos_sic_case_ii_outage(params)
            assert rs <= nh + 1e-15 <= qos + 2e-15


class TestAdmissionAndConditional:
    def test_direct_value(self, params_10db):
        assert admission_probability(params_10db) == pytest.approx(0.45241870901797976, abs=1e-15)

    def test_limit_large_p1(self):
        params = SystemParams(p0=10.0, p1=1e9, r0_hat=1.0, r1_hat=1.0)
        assert admission_probability(params) == pytest.approx(math.exp(-0.1), rel=1e-8)

    def test_limit_large_eta0(self):
        params = SystemParams(p0=1e-3, p1=10.0, r0_hat=6.0, r1_hat=1.0)
        assert admission_probability(params) < 1e-12

    def test_conditional_exceeds_unconditional(self, params_10db):
        for scheme in (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC):
            cond = conditional_case_ii_outage(scheme, params_10db)
            uncond = {SchemeId.RS: rs_case_ii_outage, SchemeId.NH_SIC: nh_sic_case_ii_outage,
                      SchemeId.QOS_SIC: qos_sic_case_ii_outage}[scheme](params_10db)
            assert cond >= uncond

    def test_conditional_ordering_on_snr_grid(self):
        for db in np.linspace(5.0, 40.0, 10):
            params = make_params(db, db, 1.0, 1.0)
            rs = conditional_case_ii_outage(SchemeId.RS, params)
            nh = conditional_case_ii_outage(SchemeId.NH_SIC, params)
            qos = conditional_case_ii_outage(SchemeId.QOS_SIC, params)
            assert rs <= nh + 1e-15 <= qos + 2e-15

    def test_qos_conditional_flattens_for_large_product(self):
        # eps0*eps1 = 9: the conditional curve approaches a positive constant
        hi = conditional_case_ii_outage(SchemeId.QOS_SIC, make_params(40.0, 40.0, 2.0, 2.0))
        hi2 = conditional_case_ii_outage(SchemeId.QOS_SIC, make_params(35.0, 35.0, 2.0, 2.0))
        assert hi > 0.1
        assert hi == pytest.approx(hi2, rel=0.02)
        # while the rs conditional keeps falling
        rs_hi = conditional_case_ii_outage(SchemeId.RS, make_params(40.0, 40.0, 2.0, 2.0))
        rs_lo = conditional_case_ii_outage(SchemeId.RS, make_params(35.0, 35.0, 2.0, 2.0))
        assert rs_hi < 0.5 * rs_lo

    def test_underflowing_admission_raises(self):
        params = SystemParams(p0=1e-3, p1=10.0, r0_hat=10.0, r1_hat=1.0)
        assert admission_probability(params) == 0.0
        with pytest.raises(ParameterError):
            conditional_case_ii_outage(SchemeId.RS, params)


class TestThroughputAndReport:
    def test_throughput_endpoints(self):
        # r1*(1 - pout): all-but-certain success and certain failure
        params = SystemParams(p0=1e4, p1=1e4, r0_hat=1.0, r1_hat=1.0)
        assert delay_limited_throughput(SchemeId.RS, params) == pytest.approx(1.0, abs=1e-3)
        params = SystemParams(p0=1e-6, p1=1e-6, r0_hat=4.0, r1_hat=4.0)
        assert delay_limited_throughput(SchemeId.RS, params) == pytest.approx(0.0, abs=1e-3)

    def test_throughput_ordering_on_snr_grid(self):
        for db in np.linspace(5.0, 40.0, 10):
            params = make_params(db - 10.0, db, 1.0, 1.0)
            rs = delay_limited_throughput(SchemeId.RS, params)
            nh = delay_limited_throughput(SchemeId.NH_SIC, params)
            qos = delay_limited_throughput(SchemeId.QOS_SIC, params)
            assert rs >= nh - 1e-15 >= qos - 2e-15

    def test_primary_outage_value(self, params_10db):
        assert primary_outage_probability(params_10db) == pytest.approx(-math.expm1(-0.1), abs=1e-15)

    def test_report_consistency(self, params_10db):
        for scheme in (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC):
            report = analytic_report(scheme, params_10db)
            assert isinstance(report, AnalyticReport)
            parts = report.pout_case_i + report.pout_case_ii + report.pout_case_iii
            assert abs(parts - report.pout_total) <= 1e-12
            assert report.pout_total == pytest.approx(total_outage(scheme, params_10db), abs=1e-15)

    def test_hi_snr_report_values(self):
        params = make_params(30.0, 30.0, 2.0, 2.0)
        c_eta1 = derive_constants(params).eta1
        assert total_outage_high_snr(SchemeId.RS, params) == c_eta1
        assert total_outage_high_snr(SchemeId.NH_SIC, params) == c_eta1
        qos = total_outage_high_snr(SchemeId.QOS_SIC, params)
        assert qos == pytest.approx(c_eta1 + qos_sic_outage_floor(params), abs=1e-15)

    def test_hi_snr_headline_is_returned_raw_at_low_snr(self):
        # an asymptote, not a probability: it exceeds 1 at -20 dB instead of raising
        params = make_params(-20.0, -20.0, 0.25, 0.25)
        report = analytic_report(SchemeId.QOS_SIC, params)
        expected = derive_constants(params).eta1 + qos_sic_outage_floor(params)
        assert expected > 1.0
        assert report.pout_total_hi_snr == expected

    def test_total_near_eta1_at_30db(self):
        params = make_params(30.0, 30.0, 1.0, 1.0)
        assert rs_total_outage(params) == pytest.approx(1e-3, rel=0.1)

    def test_csi_has_no_closed_form(self):
        from crnoma import UnknownSchemeError
        with pytest.raises(UnknownSchemeError):
            total_outage(SchemeId.CSI_SIC, make_params(10.0, 10.0, 1.0, 1.0))

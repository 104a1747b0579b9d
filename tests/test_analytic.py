import itertools
import math
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from crnoma import (
    AnalyticReport,
    SchemeId,
    SystemParams,
    admission_probability,
    analytic_report,
    case_ii_outage,
    case_ii_outage_gap,
    conditional_case_ii_outage,
    db_to_linear,
    delay_limited_throughput,
    nh_sic_case_ii_outage,
    primary_outage_probability,
    qos_sic_case_ii_outage,
    qos_sic_outage_floor,
    rs_case_i_outage,
    rs_case_ii_outage,
    rs_case_iii_outage,
    rs_total_outage,
    total_outage,
    total_outage_high_snr,
)
from crnoma import ParameterError, ProbabilityRangeError, analytic
from crnoma.analytic import _Point, _as_probability, _case_ii_raw, _scaled_strip
from crnoma.selftest import parameter_grid

from conftest import make_params

CLOSED_FORM = (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC)

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
    product = params.eps0 * params.eps1
    hi = params.eta0 * (1.0 + params.eps1) / (1.0 - product) if product < 1.0 else np.inf

    def integrand(y):
        lower = (params.p0 * y / params.eps0 - 1.0) / params.p1
        upper = params.eps1 * (1.0 + params.p0 * y) / params.p1
        return math.exp(-lower - y) - math.exp(-upper - y)

    value, _ = quad(integrand, params.eta0, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


def _case_ii_strip(nu: float, eta0: float, eps1: float) -> float:
    """J(nu) over the case-II gain strip [eta0, eta0*(1+eps1)]."""
    return _scaled_strip(0.0, nu, eta0, eta0 * (1.0 + eps1))


class TestStripIntegral:
    def test_limit_value_at_minus_one(self):
        assert _case_ii_strip(-1.0, 0.3, 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_vanishes_with_zero_width(self):
        assert _case_ii_strip(0.5, 0.3, 0.0) == 0.0

    def test_general_branch_value(self):
        # exp(-0.3) - exp(-0.6), by direct evaluation
        assert _case_ii_strip(0.0, 0.3, 1.0) == pytest.approx(0.19200658458769143, abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-6, -1e-6, 1e-9, -1e-9])
    def test_continuity_across_singularity(self, delta):
        eta0, eps1 = 0.25, 1.5
        scale = eta0 * eps1
        assert abs(_case_ii_strip(-1.0 + delta, eta0, eps1) - scale) <= 1e-6 * scale

    def test_series_matches_generic_branch_at_cutoff(self):
        # the two evaluation branches may not jump where they hand over
        eta0, eps1 = 0.4, 2.0
        below = _case_ii_strip(-1.0 + 0.999e-6, eta0, eps1)
        above = _case_ii_strip(-1.0 + 1.001e-6, eta0, eps1)
        assert below == pytest.approx(above, rel=1e-8)


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

    def test_conditional_with_underflowing_admission(self):
        # eta0 = 1500 and 1.02e6: the admission probability is 0.0, the ratio is not;
        # references are mpmath integrals of the event at 40 digits
        params = make_params(-20.0, 10.0, 4.0, 1.0)
        assert admission_probability(params) == 0.0
        expected = {SchemeId.RS: 0.79788791014762590706, SchemeId.NH_SIC: 0.79829173050697130985,
                    SchemeId.QOS_SIC: 0.79829173050697130985}
        for scheme, value in expected.items():
            assert conditional_case_ii_outage(scheme, params) == pytest.approx(value, rel=1e-12)
        params = SystemParams(p0=1e-3, p1=10.0, r0_hat=10.0, r1_hat=1.0)
        assert admission_probability(params) == 0.0
        for scheme in expected:
            assert conditional_case_ii_outage(scheme, params) == pytest.approx(1.0, abs=1e-9)

    def test_conditional_routes_meet_where_admission_underflows(self):
        # below eta0 ~ 708 the ratio of the two probabilities is taken; above it
        # both lose their common factor exp(-eta0) first
        routes = set()
        for eta0 in np.linspace(700.0, 760.0, 61):
            for p1, r1 in ((10.0, 1.0), (1.0, 0.5), (100.0, 2.0)):
                params = SystemParams(p0=1.0 / eta0, p1=p1, r0_hat=1.0, r1_hat=r1)
                k = params.p1 * params.eta0
                routes.add(admission_probability(params) >= sys.float_info.min)
                for scheme in (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC):
                    shifted = _case_ii_raw(scheme, _Point(params, shift=params.eta0)) / (k / (1.0 + k))
                    assert conditional_case_ii_outage(scheme, params) == pytest.approx(
                        shifted, rel=0.0, abs=1e-15)
        assert routes == {True, False}

    @pytest.mark.xfail(strict=True, raises=ProbabilityRangeError,
                       reason="below about p1 = -70 dB the case-II closed forms exceed the admission "
                              "probability, so the quotient reads 1.0000000011899322 (ROADMAP item 6)")
    @pytest.mark.parametrize("scheme", CLOSED_FORM)
    def test_conditional_is_a_probability_at_p1_minus_70_db(self, scheme):
        value = conditional_case_ii_outage(scheme, make_params(10.0, -70.0, 0.25, 0.25))
        assert 0.0 <= value <= 1.0

    def test_csi_conditional_has_no_closed_form_when_admission_underflows(self):
        from crnoma import UnknownSchemeError
        with pytest.raises(UnknownSchemeError):
            conditional_case_ii_outage(SchemeId.CSI_SIC, make_params(-20.0, 10.0, 4.0, 1.0))


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
        eta1 = params.eta1
        assert total_outage_high_snr(SchemeId.RS, params) == eta1
        assert total_outage_high_snr(SchemeId.NH_SIC, params) == eta1
        qos = total_outage_high_snr(SchemeId.QOS_SIC, params)
        assert qos == pytest.approx(eta1 + qos_sic_outage_floor(params), abs=1e-15)

    def test_hi_snr_headline_is_returned_raw_at_low_snr(self):
        # an asymptote, not a probability: it exceeds 1 at -20 dB instead of raising
        params = make_params(-20.0, -20.0, 0.25, 0.25)
        report = analytic_report(SchemeId.QOS_SIC, params)
        expected = params.eta1 + qos_sic_outage_floor(params)
        assert expected > 1.0
        assert report.pout_total_hi_snr == expected

    def test_total_near_eta1_at_30db(self):
        params = make_params(30.0, 30.0, 1.0, 1.0)
        assert rs_total_outage(params) == pytest.approx(1e-3, rel=0.1)

    def test_csi_has_no_closed_form(self):
        from crnoma import UnknownSchemeError
        with pytest.raises(UnknownSchemeError):
            total_outage(SchemeId.CSI_SIC, make_params(10.0, 10.0, 1.0, 1.0))


TINY = math.nextafter(0.0, 1.0)  # the smallest subnormal


class TestAsProbability:
    """One comparison passes a value inside (0, 1); everything else is checked and clamped as before."""

    @pytest.mark.parametrize("raw, expected", [
        (0.5, 0.5),
        (0.0, 0.0),
        (-0.0, 0.0),
        (1.0, 1.0),
        (TINY, TINY),
        (sys.float_info.min / 4.0, sys.float_info.min / 4.0),
        (-TINY, 0.0),
        (math.nextafter(1.0, 0.0), math.nextafter(1.0, 0.0)),
        (math.nextafter(1.0, 2.0), 1.0),
        (-analytic._RANGE_SLACK, 0.0),
        (1.0 + analytic._RANGE_SLACK, 1.0),
    ], ids=["half", "zero", "minus-zero", "one", "tiny", "subnormal", "minus-tiny", "below-one",
            "above-one", "low-slack-edge", "high-slack-edge"])
    def test_accepted_values(self, raw, expected):
        got = _as_probability(raw, "x")
        assert got == expected and type(got) is float
        assert math.copysign(1.0, got) == 1.0  # -0.0 and -TINY come back as +0.0

    @pytest.mark.parametrize("raw", [
        math.nextafter(-analytic._RANGE_SLACK, -1.0),
        math.nextafter(1.0 + analytic._RANGE_SLACK, 2.0),
        math.nan, math.inf, -math.inf,
    ], ids=["below-low-edge", "above-high-edge", "nan", "inf", "minus-inf"])
    def test_refused_values_keep_their_messages(self, raw):
        with pytest.raises(ProbabilityRangeError) as exc:
            _as_probability(raw, "total_outage", SchemeId.NH_SIC)
        assert str(exc.value) == f"total_outage[nh-sic] evaluated to {raw!r}, outside [0, 1]"
        with pytest.raises(ProbabilityRangeError) as exc:
            _as_probability(raw, "rs_total_outage")
        assert str(exc.value) == f"rs_total_outage evaluated to {raw!r}, outside [0, 1]"


class TestFloatRange:
    """Powers that SystemParams accepts but that take a closed form out of the float range."""

    POWERS = tuple(10.0 ** e for e in range(-300, 301, 60))
    RATES = (1e-6, 0.5, 1.0, 8.0, 50.0)
    SCHEME_FORMS = (analytic_report, case_ii_outage, total_outage, total_outage_high_snr,
                    conditional_case_ii_outage, delay_limited_throughput)
    FORMS = (rs_case_i_outage, rs_case_iii_outage, rs_total_outage, case_ii_outage_gap,
             qos_sic_outage_floor, admission_probability, primary_outage_probability)

    def test_only_package_errors_escape(self):
        raised = Counter()
        for p0, p1, r0, r1 in itertools.product(self.POWERS, self.POWERS, self.RATES, self.RATES):
            params = SystemParams(p0=p0, p1=p1, r0_hat=r0, r1_hat=r1)
            calls = [partial(f, scheme) for f in self.SCHEME_FORMS for scheme in CLOSED_FORM]
            for call in calls + list(self.FORMS):
                try:
                    call(params)
                except (ParameterError, ProbabilityRangeError) as exc:
                    raised[type(exc)] += 1
        # zero divisors and exp overflows used to escape as ZeroDivisionError and OverflowError
        assert raised[ParameterError] > 0 and raised[ProbabilityRangeError] > 0

    @pytest.mark.parametrize("params, cause", [
        (SystemParams(p0=1e-30, p1=1e-100, r0_hat=1e-6, r1_hat=1e-6), "math range error"),
        (SystemParams(p0=1e300, p1=1e-300, r0_hat=1.0, r1_hat=1.0), "float division by zero"),
    ], ids=["exp-overflow", "zero-divisor"])
    @pytest.mark.parametrize("scheme", CLOSED_FORM)
    def test_strip_out_of_range_is_one_parameter_error(self, params, cause, scheme):
        for _ in range(2):  # a term that raises is not kept, so the same error comes again
            with pytest.raises(ParameterError) as exc:
                analytic_report(scheme, params)
            assert str(exc.value) == ("closed forms leave the float range at these powers and rates "
                                      f"({cause} in _admission_strip)")

    def test_point_record_builds_at_every_corner(self):
        # the terms a _Point computes up front cannot fail, and every corner here is a
        # SystemParams, so its constants are derived: building a record never raises
        for p0, p1, r0, r1 in itertools.product(self.POWERS, self.POWERS, self.RATES, self.RATES):
            point = _Point(SystemParams(p0=p0, p1=p1, r0_hat=r0, r1_hat=r1))
            assert all(0.0 <= v <= 1.0 for v in (point.exp_eta0, point.clear_end, point.case_iii))
            assert point.qos_hi is None or point.qos_hi >= point.hi

    def test_floor_with_underflowed_divisor(self):
        params = SystemParams(p0=1e-300, p1=1e-300, r0_hat=8.0, r1_hat=8.0)
        with pytest.raises(ParameterError, match=r"\(float division by zero in qos_sic_outage_floor\)"):
            qos_sic_outage_floor(params)


# the point-eval benchmark grid: every power in 5 dB steps, every rate pair
POINT_POWERS_DB = tuple(float(v) for v in range(-20, 61, 5))
POINT_RATES = (0.25, 1.0, 2.0, 4.0)


def _value_or_error(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestReportMatchesStandaloneForms:
    """analytic_report computes each term once; every field is the standalone form's value."""

    # the package's check, and a stricter one that refuses every value within 0.01
    # of 0 or 1, which makes most of the grid's reports raise, so the report's
    # error order is checked against the standalone forms too
    @pytest.mark.parametrize("strict", [False, True], ids=["default", "raising"])
    def test_point_eval_grid(self, monkeypatch, strict):
        if strict:
            def refuse_near_the_ends(raw, what, scheme=None):
                if not 0.01 <= raw <= 0.99:
                    raise ProbabilityRangeError(f"{what} {scheme} {raw!r}")
                return raw
            monkeypatch.setattr(analytic, "_as_probability", refuse_near_the_ends)
        raised = 0
        for p0_db in POINT_POWERS_DB:
            for p1_db in POINT_POWERS_DB:
                for r0 in POINT_RATES:
                    for r1 in POINT_RATES:
                        params = make_params(p0_db, p1_db, r0, r1)
                        for scheme in CLOSED_FORM:
                            forms = [_value_or_error(rs_case_i_outage, params),
                                     _value_or_error(case_ii_outage, scheme, params),
                                     _value_or_error(rs_case_iii_outage, params),
                                     _value_or_error(total_outage, scheme, params),
                                     _value_or_error(total_outage_high_snr, scheme, params)]
                            got = _value_or_error(analytic_report, scheme, params)
                            errors = [f for f in forms if isinstance(f, tuple)]
                            if errors:
                                raised += 1
                                assert got == errors[0], (scheme, params)
                                continue
                            assert (got.scheme, got.pout_case_i, got.pout_case_ii, got.pout_case_iii,
                                    got.pout_total, got.pout_total_hi_snr) == (scheme, *forms)
        assert raised == 0 if not strict else raised > 0

    @pytest.mark.parametrize("scheme", [SchemeId.CSI_SIC, SchemeId.OMA_PRIMARY])
    def test_scheme_is_refused_before_any_term(self, monkeypatch, scheme):
        from crnoma import UnknownSchemeError
        # rs_case_i_outage is nan at this point; the report refuses the scheme instead
        params = SystemParams(p0=1e-300, p1=1e-300, r0_hat=50.0, r1_hat=1e-6)
        with pytest.raises(ProbabilityRangeError):
            rs_case_i_outage(params)
        for params in (params, make_params(10.0, 10.0, 1.0, 1.0)):
            with monkeypatch.context() as m:
                m.setattr(analytic, "_point", lambda params: pytest.fail("a term was evaluated"))
                with pytest.raises(UnknownSchemeError) as exc:
                    analytic_report(scheme, params)
            assert str(exc.value) == f"no closed-form case-II outage for {scheme.value}"

    @pytest.mark.parametrize("scheme", [SchemeId.CSI_SIC, SchemeId.OMA_PRIMARY])
    def test_errors_name_the_scheme_token(self, scheme):
        from crnoma import UnknownSchemeError
        params = make_params(10.0, 10.0, 1.0, 1.0)
        for f, text in ((analytic_report, "no closed-form case-II outage"),
                        (case_ii_outage, "no closed-form case-II outage"),
                        (total_outage, "no closed-form total outage"),
                        (total_outage_high_snr, "no high-SNR approximation")):
            with pytest.raises(UnknownSchemeError) as exc:
                f(scheme, params)
            assert str(exc.value) == f"{text} for {scheme.value}"


PUBLIC_SCHEME_FORMS = (analytic_report, case_ii_outage, total_outage, total_outage_high_snr,
                       conditional_case_ii_outage, delay_limited_throughput)
PUBLIC_FORMS = (rs_case_i_outage, rs_case_ii_outage, rs_case_iii_outage, rs_total_outage,
                nh_sic_case_ii_outage, qos_sic_case_ii_outage, case_ii_outage_gap,
                admission_probability, primary_outage_probability, qos_sic_outage_floor)
# every public closed form, at every scheme, so the unknown-scheme errors are in too
PUBLIC_CALLS = ([(f"{f.__name__}[{scheme.value}]", partial(f, scheme))
                 for f in PUBLIC_SCHEME_FORMS for scheme in SchemeId]
                + [(f.__name__, f) for f in PUBLIC_FORMS])


def _repr_or_error(call, params):
    try:
        return repr(call(params))
    except Exception as exc:
        return type(exc), str(exc)


def _fresh(params: SystemParams) -> SystemParams:
    """An equal but distinct params object, which no kept record belongs to."""
    return SystemParams(params.p0, params.p1, params.r0_hat, params.r1_hat)


def _uncached(call, params):
    """call's repr or error on a fresh copy of params, with no record kept beforehand."""
    analytic._last_point = None
    return _repr_or_error(call, _fresh(params))


class TestPointRecord:
    """The closed forms keep the terms of the last params object; reusing them changes no value or error."""

    # every 7th point of the point-eval grid, and the overflowing TestFloatRange corners
    POINTS = ([make_params(a, b, r0, r1) for a in POINT_POWERS_DB for b in POINT_POWERS_DB
               for r0 in POINT_RATES for r1 in POINT_RATES][::7]
              + [SystemParams(p0=1e-30, p1=1e-100, r0_hat=1e-6, r1_hat=1e-6),
                 SystemParams(p0=1e300, p1=1e-300, r0_hat=1.0, r1_hat=1.0)])

    def test_shuffled_calls_equal_calls_on_fresh_params(self):
        rng = np.random.default_rng(21)
        raised = 0
        for params in self.POINTS:
            expected = {name: _uncached(call, params) for name, call in PUBLIC_CALLS}
            for i in rng.permutation(len(PUBLIC_CALLS)):
                name, call = PUBLIC_CALLS[i]
                got = _repr_or_error(call, params)
                assert got == expected[name], (name, params)
                raised += isinstance(got, tuple)
        assert raised > 0

    def test_alternating_points_never_swap_values(self):
        for a, b in zip(self.POINTS, self.POINTS[1:]):
            expected = {p: [_uncached(call, p) for _, call in PUBLIC_CALLS] for p in (a, b)}
            got = {a: [], b: []}
            for _, call in PUBLIC_CALLS:
                for p in (a, b):
                    got[p].append(_repr_or_error(call, p))
            assert got == expected, (a, b)

    def test_only_the_last_point_is_kept(self):
        a, b = self.POINTS[:2]
        rs_total_outage(a)
        record = analytic._point(a)
        assert analytic._point(a) is record
        rs_total_outage(b)
        assert analytic._point(a) is not record  # a second pass over a grid computes every point again
        assert analytic._point(_fresh(a)) is not analytic._point(a)

    def test_three_reports_share_the_case_i_and_iii_values(self):
        raised = 0
        for params in self.POINTS:
            fresh = {f.__name__: _uncached(f, params) for f in (rs_case_i_outage, rs_case_iii_outage)}
            reports = [_value_or_error(analytic_report, scheme, params) for scheme in CLOSED_FORM]
            if isinstance(reports[0], tuple):
                raised += 1
                continue
            for report in reports:
                assert report.pout_case_i is reports[0].pout_case_i
                assert report.pout_case_iii is reports[0].pout_case_iii
            assert repr(reports[0].pout_case_i) == fresh["rs_case_i_outage"]
            assert repr(reports[0].pout_case_iii) == fresh["rs_case_iii_outage"]
            assert rs_case_i_outage(params) is reports[0].pout_case_i
            assert rs_case_iii_outage(params) is reports[0].pout_case_iii
        assert 0 < raised < len(self.POINTS)

    @pytest.mark.parametrize("form, params, error", [
        (rs_case_i_outage, SystemParams(p0=1e300, p1=1e-300, r0_hat=1.0, r1_hat=1.0),
         "closed forms leave the float range at these powers and rates "
         "(float division by zero in _admission_strip)"),
        # eta0 underflows to 0 and p0*eta1 overflows: the case-III clear term is nan
        (rs_case_iii_outage, SystemParams(p0=1e308, p1=1e-300, r0_hat=3.2e-16, r1_hat=1.0),
         "rs_case_iii_outage evaluated to nan, outside [0, 1]"),
    ], ids=["case-i", "case-iii"])
    def test_a_case_term_that_raises_keeps_nothing(self, form, params, error):
        for _ in range(2):
            with pytest.raises((ParameterError, ProbabilityRangeError)) as exc:
                form(params)
            assert str(exc.value) == error
            record = analytic._point(params)
            assert record._pout_i is None and record._pout_iii is None

    def test_nine_point_eval_calls_evaluate_five_strips(self, monkeypatch):
        strips = []

        def counted(*args):
            strips.append(args)
            return _scaled_strip(*args)

        monkeypatch.setattr(analytic, "_scaled_strip", counted)
        params = make_params(10.0, 13.0, 1.0, 1.5)
        for scheme in CLOSED_FORM:
            for f in (analytic_report, conditional_case_ii_outage, delay_limited_throughput):
                f(scheme, params)
        # admission and RS crossing strips, the first-clear strip, and QoS-SIC's two strips
        assert len(strips) == 5


def _mp_over_g0(g, lo, hi):
    """Integral of exp(-y) * g(y) over g0 = y in [lo, hi] by mp.quad, at the working precision.

    mp.quad stops on an absolute error, so the density is taken relative to
    exp(-lo): unscaled, the integrals of size exp(-100) at p0 = p1 = -20 dB
    came out wrong from their 9th digit on. An infinite range is taken in
    u = exp(lo - y), over [0, 1], which halves its cost.
    """
    from mpmath import mp

    if hi == mp.inf:
        return mp.exp(-lo) * mp.quad(lambda u: g(lo - mp.log(u)), [0, 1])
    return mp.exp(-lo) * mp.quad(lambda y: mp.exp(lo - y) * g(y), [lo, hi])


def _mp_case_ii_outage(scheme: SchemeId, params: SystemParams, conditional: bool):
    """The scheme's case-II outage event integrated at 30 digits: the g1 interval in closed form, g0 by mp.quad.

    conditional divides by the admission probability, which does not underflow in mpmath.
    """
    from mpmath import mp

    with mp.workdps(30):
        p0, p1 = mp.mpf(params.p0), mp.mpf(params.p1)
        eps0, eps1 = mp.mpf(2) ** params.r0_hat - 1, mp.mpf(2) ** params.r1_hat - 1
        eta0 = eps0 / p0
        hi = eta0 * (1 + eps1)  # where the RS and NH-SIC intervals close
        if scheme is SchemeId.RS:
            def upper(y):
                return ((1 + eps0) * (1 + eps1) - 1 - p0 * y) / p1
        else:
            def upper(y):
                return eps1 * (1 + p0 * y) / p1
            if scheme is SchemeId.QOS_SIC:
                # the QoS kink: the interval closes here, or never once eps0*eps1 >= 1
                hi = hi / (1 - eps0 * eps1) if eps0 * eps1 < 1 else mp.inf
        value = _mp_over_g0(lambda y: mp.exp(-(p0 * y / eps0 - 1) / p1) - mp.exp(-upper(y)), eta0, hi)
        if conditional:
            k = p1 * eta0
            value /= mp.exp(-eta0) * k / (1 + k)
        return value


class TestRelativeAccuracy:
    """Closed forms against mpmath, to a relative bound that holds in the tails.

    The grid spans -20..60 dB on each power and r in {0.25, 1, 4}, taken with
    a stride to keep the run short where its references are slow; it
    includes cells whose admission probability underflows to 0. Below the
    smallest normal float a double carries no relative precision, so that
    much absolute slack is allowed.
    """

    def test_case_ii_and_conditional_within_1e_5(self):
        pytest.importorskip("mpmath")
        powers = (-20.0, 0.0, 20.0, 40.0, 60.0)
        rates = (0.25, 1.0, 4.0)
        cells = [(make_params(a, b, r0, r1), scheme)
                 for a in powers for b in powers for r0 in rates for r1 in rates
                 for scheme in (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC)][::5]
        underflowing = set()
        for params, scheme in cells:
            for conditional, f in ((False, case_ii_outage), (True, conditional_case_ii_outage)):
                ref = _mp_case_ii_outage(scheme, params, conditional)
                value = f(scheme, params)
                assert abs(value - ref) <= 1e-5 * ref + sys.float_info.min, (scheme, params, conditional)
            if admission_probability(params) == 0.0:
                underflowing.add(scheme)
        assert underflowing == {SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC}

    def test_rs_case_i_total_and_admission_within_1e_5(self):
        # rs_case_iii_outage is left out: its 1 - exp(-eta0) cancels, so it is off by 5.6e-5
        # at p0 = p1 = 60 dB, r0 = 1, r1 = 0.25; the expm1 fix moves figure CSV bytes and
        # waits for a re-record of them. Every third point; the worst errors on the full
        # grid (1.4e-8, 5.9e-10 and 4.6e-15 in turn) fall on it
        pytest.importorskip("mpmath")
        powers = (-20.0, 0.0, 20.0, 40.0, 60.0)
        rates = (0.25, 1.0, 4.0)
        for a, b, r0, r1 in list(itertools.product(powers, powers, rates, rates))[::3]:
            params = make_params(a, b, r0, r1)
            refs = _mp_rs_events(params)
            for f in (rs_case_i_outage, rs_total_outage, admission_probability):
                ref, value = refs[f.__name__], f(params)
                assert abs(value - ref) <= 1e-5 * ref + sys.float_info.min, (f.__name__, params)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="1 - exp(-eta0) cancels where eta0 is ~1e-6: off by 5.6e-5; the expm1 "
                              "form moves figure CSV bytes (ROADMAP item 6)")
    def test_rs_case_iii_within_1e_9_at_high_snr(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        params = make_params(60.0, 60.0, 1.0, 0.25)
        with mp.workdps(60):
            # 1 - exp(-eta0) - exp(-eta1) * (1 - exp(-eta0*k)) / k, k = p0*eta1 + 1
            p0, p1 = mp.mpf(params.p0), mp.mpf(params.p1)
            eta0 = (mp.mpf(2) ** params.r0_hat - 1) / p0
            eta1 = (mp.mpf(2) ** params.r1_hat - 1) / p1
            k = p0 * eta1 + 1
            ref = -mp.expm1(-eta0) - mp.exp(-eta1) * -mp.expm1(-eta0 * k) / k
        assert abs(rs_case_iii_outage(params) - ref) <= 1e-9 * ref

    def test_case_ii_outage_gap_within_1e_5(self):
        # the full grid; its worst error is 1.22e-6 at p0 = -20 dB, p1 = 60 dB, r0 = 1, r1 = 0.25
        pytest.importorskip("mpmath")
        powers = (-20.0, 0.0, 20.0, 40.0, 60.0)
        rates = (0.25, 1.0, 4.0)
        for a, b, r0, r1 in itertools.product(powers, powers, rates, rates):
            params = make_params(a, b, r0, r1)
            ref = _mp_case_ii_outage_gap(params)
            assert abs(case_ii_outage_gap(params) - ref) <= 1e-5 * ref + sys.float_info.min, params


def _mp_case_ii_outage_gap(params: SystemParams):
    """The case-II band where NH-SIC is in outage and RS is not, integrated at 30 digits.

    On the case-II strip g0 = y in [eta0, eta0*(1+eps1)], that band is g1
    between RS's upper edge and NH-SIC's, which lies d(y) = (1+eps1)*(p0*y -
    eps0)/p1 above it; so the integrand is exp(-y - RS's edge) * (1 -
    exp(-d(y))), with the last factor by expm1. The difference of the two
    schemes' 30-digit outages cancels to 0 where the band is below ~1e-30 of
    either, as at p0 = p1 = -20 dB, r0 = 0.25, r1 = 1 (2.52e-59 against
    9.65e-10). mp.quad stops on an absolute error, so the integrand is taken
    relative to its exponential's larger end; the exponent is affine in y.
    """
    from mpmath import mp

    with mp.workdps(30):
        p0, p1 = mp.mpf(params.p0), mp.mpf(params.p1)
        eps0, eps1 = mp.mpf(2) ** params.r0_hat - 1, mp.mpf(2) ** params.r1_hat - 1
        eta0 = eps0 / p0
        hi = eta0 * (1 + eps1)

        def exponent(y):
            return -y - ((1 + eps0) * (1 + eps1) - 1 - p0 * y) / p1

        top = max(exponent(eta0), exponent(hi))
        return mp.exp(top) * mp.quad(
            lambda y: mp.exp(exponent(y) - top) * -mp.expm1(-(1 + eps1) * (p0 * y - eps0) / p1),
            [eta0, hi])


def _mp_rs_events(params: SystemParams) -> dict:
    """RS case-I and total outage and the admission probability, from their events at 30 digits.

    Given g0 = y, U1 is admitted where g1 > (p0*y/eps0 - 1)/p1, which needs
    y > eta0. RS is in outage where g1 is below eta1*(p0*y + 1) in case III
    (y < eta0), below ((1+eps0)*(1+eps1) - 1 - p0*y)/p1 on the case-II strip
    up to hi = eta0*(1+eps1), and below eta1 past it; case I is the part of
    that outage below the admission threshold.
    """
    from mpmath import mp

    with mp.workdps(30):
        p0, p1 = mp.mpf(params.p0), mp.mpf(params.p1)
        eps0, eps1 = mp.mpf(2) ** params.r0_hat - 1, mp.mpf(2) ** params.r1_hat - 1
        eta0, eta1 = eps0 / p0, eps1 / p1
        hi = eta0 * (1 + eps1)

        def admitted_above(y):
            return (p0 * y / eps0 - 1) / p1

        def below(x):  # P{g1 < x(y)}
            return lambda y: -mp.expm1(-x(y))

        past_hi = _mp_over_g0(lambda y: -mp.expm1(-eta1), hi, mp.inf)
        case_iii = _mp_over_g0(below(lambda y: eta1 * (p0 * y + 1)), 0, eta0)
        strip = _mp_over_g0(below(lambda y: ((1 + eps0) * (1 + eps1) - 1 - p0 * y) / p1), eta0, hi)
        return {
            "rs_case_i_outage": _mp_over_g0(below(admitted_above), eta0, hi) + past_hi,
            "rs_total_outage": case_iii + strip + past_hi,
            "admission_probability": _mp_over_g0(lambda y: mp.exp(-admitted_above(y)), eta0, mp.inf),
        }

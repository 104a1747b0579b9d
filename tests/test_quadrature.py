import math

import pytest
from scipy.integrate import quad

from crnoma import (
    QuadratureError,
    SystemParams,
    case_ii_outage_quadrature,
    rs_case_ii_outage,
)
from crnoma import quadrature
from crnoma.params import db_to_linear
from crnoma.quadrature import _WG, _XK, _outer_integrand, _qk21
from crnoma.selftest import parameter_grid

from conftest import make_params


class TestAgreement:
    def test_matches_closed_form_everywhere_on_grid(self):
        worst = 0.0
        for params in parameter_grid():
            diff = abs(case_ii_outage_quadrature(params) - rs_case_ii_outage(params))
            worst = max(worst, diff)
        assert worst <= 1e-9

    def test_singular_branch_config(self, params_10db):
        assert case_ii_outage_quadrature(params_10db) == pytest.approx(
            rs_case_ii_outage(params_10db), abs=1e-12)

    def test_interval_collapses_with_tiny_target(self):
        params = SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1e-12)
        assert case_ii_outage_quadrature(params) < 1e-11


class TestUpperLimit:
    def test_wider_positive_bound_limit_is_wrong(self):
        # extending the outer integral to where the event's g1 upper bound
        # stays positive, instead of where the interval stays nonempty,
        # integrates a spurious signed tail
        params = SystemParams(p0=1.0, p1=5.0, r0_hat=1.0, r1_hat=2.0)

        def integrand(y):
            lower = (params.p0 * y / params.eps0 - 1.0) / params.p1
            upper = ((1.0 + params.eps0) * (1.0 + params.eps1) - (1.0 + params.p0 * y)) / params.p1
            return math.exp(-lower - y) - math.exp(-upper - y)

        wider_hi = params.eta0 * (1.0 + params.eps1) + params.eps1 / params.p0
        wider, _ = quad(integrand, params.eta0, wider_hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        right = case_ii_outage_quadrature(params)
        assert right == pytest.approx(rs_case_ii_outage(params), abs=1e-12)
        assert wider < right - 1e-4


def _set_tolerance(monkeypatch, tol: float) -> None:
    monkeypatch.setattr(quadrature, "_ABS_TOL", tol)
    monkeypatch.setattr(quadrature, "_REL_TOL", tol)


class TestSpecContract:
    def test_halving_tolerance_is_self_consistent(self, params_10db, monkeypatch):
        _set_tolerance(monkeypatch, 1e-8)
        loose = case_ii_outage_quadrature(params_10db)
        _set_tolerance(monkeypatch, 5e-9)
        tight = case_ii_outage_quadrature(params_10db)
        assert abs(loose - tight) < 1e-8

    def test_additive_under_interval_split(self, params_10db):
        # integrate the two halves of the outer interval separately
        p = params_10db
        lo, hi = p.eta0, p.eta0 * (1.0 + p.eps1)
        mid = 0.5 * (lo + hi)

        def integrand(y):
            lower = (p.p0 * y / p.eps0 - 1.0) / p.p1
            upper = ((1.0 + p.eps0) * (1.0 + p.eps1) - (1.0 + p.p0 * y)) / p.p1
            return math.exp(-lower - y) - math.exp(-upper - y)

        left, _ = quad(integrand, lo, mid, epsabs=1e-13, epsrel=1e-13)
        right, _ = quad(integrand, mid, hi, epsabs=1e-13, epsrel=1e-13)
        assert left + right == pytest.approx(case_ii_outage_quadrature(params_10db), abs=1e-11)

    def test_unreachable_tolerance_raises(self, params_10db, monkeypatch):
        _set_tolerance(monkeypatch, 1e-300)
        with pytest.raises(QuadratureError):
            case_ii_outage_quadrature(params_10db)

    def test_subdivision_limit_raises_on_a_cell_that_needs_bisection(self, monkeypatch):
        params = make_params(10.0, 10.0, 4.0, 4.0)
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
            with pytest.raises(QuadratureError, match="did not converge"):
                case_ii_outage_quadrature(params)
        assert case_ii_outage_quadrature(params) == pytest.approx(
            rs_case_ii_outage(params), abs=1e-12)


def test_matches_at_asymmetric_powers():
    for params in (make_params(5.0, 25.0, 0.5, 2.0), make_params(25.0, 5.0, 2.0, 0.5)):
        assert case_ii_outage_quadrature(params) == pytest.approx(
            rs_case_ii_outage(params), abs=1e-12)


class TestRule:
    """The in-repo QK21 rule and its QAG driver against exact values and QUADPACK."""

    @staticmethod
    def _monomial_integral(k):
        return 2.0 / (k + 1) if k % 2 == 0 else 0.0

    def test_kronrod_rule_is_exact_to_degree_31(self):
        for k in range(32):
            value, _ = _qk21(lambda ys: [y ** k for y in ys], -1.0, 1.0)
            assert value == pytest.approx(self._monomial_integral(k), rel=1e-14, abs=1e-15), k

    def test_embedded_gauss_rule_is_exact_to_degree_19(self):
        gauss_nodes = _XK[1::2]
        assert len(gauss_nodes) == len(_WG) == 10
        for k in range(20):
            value = sum(w * x ** k for w, x in zip(_WG, gauss_nodes))
            assert value == pytest.approx(self._monomial_integral(k), rel=1e-14, abs=1e-15), k

    def test_matches_quadpack_on_wide_grid(self):
        # a -20..60 dB power grid at four target rates on each side, including
        # the low-SNR corner; quadpack's QAGS is the reference
        powers = [db_to_linear(float(db)) for db in range(-20, 61, 5)]
        rates = (0.25, 1.0, 2.0, 4.0)
        worst = 0.0
        for p0 in powers:
            for p1 in powers:
                for r0 in rates:
                    for r1 in rates:
                        params = SystemParams(p0=p0, p1=p1, r0_hat=r0, r1_hat=r1)
                        lo, hi = params.eta0, params.eta0 * (1.0 + params.eps1)
                        batch = _outer_integrand(params)
                        ref, _ = quad(lambda y: batch([y])[0], lo, hi,
                                      epsabs=1e-12, epsrel=1e-12, limit=200)
                        worst = max(worst, abs(case_ii_outage_quadrature(params) - ref))
        assert worst <= 1e-12

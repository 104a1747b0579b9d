"""Built-in consistency checks: algebraic identities, quadrature, Monte Carlo.

These are the fast cross-checks a user can run after install. The exhaustive
versions (10^7-sample grids) live in the test suite.
"""

from __future__ import annotations

import math

from . import analytic
from .channel import SamplerConfig
from .estimator import Metric, estimate_from_tally, simulate_tally
from .params import SystemParams, _as_count, db_to_linear
from .quadrature import case_ii_outage_quadrature
from .strategy import SchemeId

GRID_POWERS_DB = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
GRID_RATES = (0.5, 1.0, 2.0)


def parameter_grid():
    for p0_db in GRID_POWERS_DB:
        for p1_db in GRID_POWERS_DB:
            for r0 in GRID_RATES:
                for r1 in GRID_RATES:
                    yield SystemParams(p0=db_to_linear(p0_db), p1=db_to_linear(p1_db),
                                       r0_hat=r0, r1_hat=r1)


def _check_identities() -> tuple[bool, str]:
    worst_sum = 0.0
    worst_gap = 0.0
    for params in parameter_grid():
        parts = (analytic.rs_case_i_outage(params)
                 + analytic.rs_case_ii_outage(params)
                 + analytic.rs_case_iii_outage(params))
        worst_sum = max(worst_sum, abs(parts - analytic.rs_total_outage(params)))
        gap = (analytic.nh_sic_case_ii_outage(params)
               - analytic.rs_case_ii_outage(params)
               - analytic.case_ii_outage_gap(params))
        worst_gap = max(worst_gap, abs(gap))
    ok = worst_sum <= 1e-12 and worst_gap <= 1e-12
    return ok, f"max |sum-total|={worst_sum:.2e}, max |nh-rs-gap|={worst_gap:.2e} (tol 1e-12)"


def _check_quadrature() -> tuple[bool, str]:
    worst = 0.0
    for params in parameter_grid():
        diff = abs(analytic.rs_case_ii_outage(params) - case_ii_outage_quadrature(params))
        worst = max(worst, diff)
    return worst <= 1e-9, f"max |closed-quadrature|={worst:.2e} (tol 1e-9)"


# the normal approximation behind the 4.5 sigma limit needs this many expected events
# and non-events at every target, as in the acceptance tests
_MIN_EXPECTED_EVENTS = 20


def _check_monte_carlo(samples: int, sampler: SamplerConfig) -> tuple[bool, str]:
    points = {
        "p0=10 dB, p1=10 dB, r0=1, r1=1": SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0),
        "p0=15 dB, p1=20 dB, r0=1, r1=2": SystemParams(p0=db_to_linear(15.0), p1=db_to_linear(20.0),
                                                       r0_hat=1.0, r1_hat=2.0),
    }  # the first is the p0 = p1 singular branch
    targets = {point: [
        (SchemeId.RS, Metric.OUTAGE_CASE_I, analytic.rs_case_i_outage(params)),
        (SchemeId.RS, Metric.OUTAGE_CASE_II, analytic.rs_case_ii_outage(params)),
        (SchemeId.RS, Metric.OUTAGE_CASE_III, analytic.rs_case_iii_outage(params)),
        (SchemeId.NH_SIC, Metric.OUTAGE_CASE_II, analytic.nh_sic_case_ii_outage(params)),
        (SchemeId.QOS_SIC, Metric.OUTAGE_CASE_II, analytic.qos_sic_case_ii_outage(params)),
        (SchemeId.RS, Metric.ADMISSION, analytic.admission_probability(params)),
    ] for point, params in points.items()}
    rare, point, scheme, metric = min(((min(p, 1.0 - p), point, scheme, metric)
                                       for point, ts in targets.items() for scheme, metric, p in ts),
                                      key=lambda target: target[0])
    if rare * samples < _MIN_EXPECTED_EVENTS:
        return False, (f"{scheme.value} {metric.value} at {point} needs --samples "
                       f"{math.ceil(_MIN_EXPECTED_EVENTS / rare)} or more for "
                       f"{_MIN_EXPECTED_EVENTS} expected events, not {samples}")
    worst = 0.0
    for point, params in points.items():
        tally = simulate_tally(params, sampler, samples, analytic._CLOSED_FORM_SCHEMES)
        for scheme, metric, expected in targets[point]:
            est = estimate_from_tally(scheme, metric, params, tally)
            sigma = math.sqrt(expected * (1.0 - expected) / samples)  # > 0: checked above
            worst = max(worst, abs(est.mean - expected) / sigma)
    # 4.5 sigma over 12 comparisons (6 targets x 2 configs) keeps the false-alarm rate ~8e-5
    return worst <= 4.5, f"max |z|={worst:.2f} over analytic targets (limit 4.5)"


def run_selftest(samples: int = 1_000_000, seed: int = 2024) -> int:
    # a bad sample count or seed raises ParameterError before any check prints
    samples, sampler = _as_count("samples", samples, 1), SamplerConfig(seed=seed)
    checks = [
        ("identity: case decomposition and nh-rs gap", _check_identities),
        ("oracle: quadrature vs closed form", _check_quadrature),
        ("oracle: Monte Carlo vs closed form", lambda: _check_monte_carlo(samples, sampler)),
    ]
    failed = 0
    for name, check in checks:
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0

"""Built-in consistency checks: algebraic identities, quadrature, Monte Carlo.

These are the fast cross-checks a user can run after install. The exhaustive
versions (10^7-sample grids) live in the test suite.
"""

from __future__ import annotations

import math

from . import analytic
from .channel import SamplerConfig
from .estimator import Metric, estimate_batch
from .params import SystemParams, db_to_linear
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


def _check_monte_carlo(samples: int, sampler: SamplerConfig) -> tuple[bool, str]:
    worst = 0.0
    configs = [
        SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0),     # p0 = p1 singular branch
        SystemParams(p0=db_to_linear(15.0), p1=db_to_linear(20.0), r0_hat=1.0, r1_hat=2.0),
    ]
    for params in configs:
        targets = [
            (SchemeId.RS, Metric.OUTAGE_CASE_I, analytic.rs_case_i_outage(params)),
            (SchemeId.RS, Metric.OUTAGE_CASE_II, analytic.rs_case_ii_outage(params)),
            (SchemeId.RS, Metric.OUTAGE_CASE_III, analytic.rs_case_iii_outage(params)),
            (SchemeId.NH_SIC, Metric.OUTAGE_CASE_II, analytic.nh_sic_case_ii_outage(params)),
            (SchemeId.QOS_SIC, Metric.OUTAGE_CASE_II, analytic.qos_sic_case_ii_outage(params)),
            (SchemeId.RS, Metric.ADMISSION, analytic.admission_probability(params)),
        ]
        estimates = estimate_batch([s for s, _, _ in targets], params,
                                   [Metric.OUTAGE_CASE_I, Metric.OUTAGE_CASE_II,
                                    Metric.OUTAGE_CASE_III, Metric.ADMISSION],
                                   samples, sampler)
        lookup = {(e.scheme, e.metric): e for e in estimates}
        for scheme, metric, expected in targets:
            est = lookup[(scheme, metric)]
            sigma = math.sqrt(expected * (1.0 - expected) / samples)
            if sigma > 0.0:
                worst = max(worst, abs(est.mean - expected) / sigma)
    # 4.5 sigma over 12 comparisons (6 targets x 2 configs) keeps the false-alarm rate ~8e-5
    return worst <= 4.5, f"max |z|={worst:.2f} over analytic targets (limit 4.5)"


def run_selftest(samples: int = 1_000_000, seed: int = 2024) -> int:
    sampler = SamplerConfig(seed=seed)  # a bad seed raises ParameterError before any check prints
    checks = [
        ("identity: case decomposition and nh-rs gap", lambda: _check_identities()),
        ("oracle: quadrature vs closed form", lambda: _check_quadrature()),
        ("oracle: Monte Carlo vs closed form", lambda: _check_monte_carlo(samples, sampler)),
    ]
    failed = 0
    for name, check in checks:
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0

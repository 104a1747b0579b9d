"""Per-layer costs at one reference cell, for comparison with the recorded baseline.

    python3 bench/calibrate.py

Measures, at p0 = p1 = 10, r0 = r1 = 1 and best of 5: Philox uniforms and
GainStream.gains per 2^20 draws (their difference is the exponential
transform), tally_population per 2^20 draws for RS only, for all four
schemes, and with ergodic rates, the µs per call of rs_total_outage and of
the case-II quadrature, and simulate_tally draws/s at 10^7 draws with one
and two workers. Prints one JSON object; bench/baseline.json holds the
figures measured at the seed state.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from run import _import_package

N = 1 << 20
REPEATS = 5


def best(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def per_call_us(fn, calls: int = 2000) -> float:
    return best(lambda: [fn() for _ in range(calls)]) / calls * 1e6


def main() -> int:
    _import_package()
    import crnoma as cn
    from crnoma import SchemeId

    params = cn.SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0)
    g0, g1 = cn.GainStream(7, 0).gains(N)
    all4 = (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC, SchemeId.CSI_SIC)
    philox = best(lambda: np.random.Generator(np.random.Philox(key=[7, 0])).random((N, 2)))
    gains = best(lambda: cn.GainStream(7, 0).gains(N))
    sampler = cn.SamplerConfig(seed=7)
    three = (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC)
    w1 = best(lambda: cn.simulate_tally(params, sampler, 10_000_000, three, workers=1), 3)
    w2 = best(lambda: cn.simulate_tally(params, sampler, 10_000_000, three, workers=2), 3)
    out = {
        "reference_cell": "p0=p1=10 (linear), r0=r1=1, 2^20 draws, best of 5",
        "philox_uniforms_ms": philox * 1e3,
        "exponential_transform_ms": (gains - philox) * 1e3,
        "gainstream_gains_ms": gains * 1e3,
        "tally_rs_only_ms": best(lambda: cn.tally_population(params, g0, g1, (SchemeId.RS,))) * 1e3,
        "tally_4_schemes_ms": best(lambda: cn.tally_population(params, g0, g1, all4)) * 1e3,
        "tally_4_schemes_rates_ms": best(lambda: cn.tally_population(params, g0, g1, all4, True)) * 1e3,
        "rs_total_outage_us": per_call_us(lambda: cn.rs_total_outage(params)),
        "case_ii_quadrature_us": per_call_us(lambda: cn.case_ii_outage_quadrature(params), 500),
        "simulate_tally_1e7_draws_per_s_w1": 1e7 / w1,
        "simulate_tally_1e7_draws_per_s_w2": 1e7 / w2,
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

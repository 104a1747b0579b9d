"""The benchmark's three workloads: inputs, the timed pass, and output checks.

Each workload is a fixed, ordered list of cells. A cell is one parameter
point (one grid point, or one axis value of one sweep); the client evaluates
one cell at a time, in order (a closed loop with a single client). Inputs are
built from the seed before any timing starts, and every output check runs
after the timed pass, so neither is charged to a cell.

* ``oracle-grid``: the 324-point criterion-3 grid. Closed forms, the case-II
  quadrature and an outage-only Monte Carlo tally per cell. Every cell draws
  the same gains, so sampler and tally changes dominate here.
* ``figure-sweeps``: the five figure presets plus an ergodic-throughput sweep
  on the fig3 axis, run through ``run_sweep`` one axis value at a time and
  rendered to CSV. The only workload with CSI-SIC, the rate path and render.
* ``point-eval``: no Monte Carlo. A wide grid of closed forms, quadrature and
  scalar per-realization decisions, including the low-SNR corner where the
  program is known to fail; failures are counted, never filtered out.

The package is driven only through its public functions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from collections import Counter
from functools import partial
from pathlib import Path
from statistics import NormalDist

import numpy as np

import crnoma as cn
from crnoma import Metric, SamplerConfig, SchemeId, SystemParams
from crnoma.experiments import PRESET_NAMES, SweepResult, parse_csv
from crnoma.params import db_to_linear
from crnoma.selftest import parameter_grid

BENCH_DIR = Path(__file__).resolve().parent
# figure-sweeps CSV digests per seed, written by record_csv_hashes.py
CSV_RECORD = BENCH_DIR / "csv_sha256.json"

# Passed explicitly so CRNOMA_WORKERS in the caller's environment cannot
# change a run; equals the core count of the machine the baseline is from.
WORKERS = 2

CLOSED_FORM_SCHEMES = (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC)

# Family-wise false-alarm rate of the Monte Carlo agreement check. A wrong
# formula shows as |z| in the tens; this keeps a correct program from failing
# a run by chance across the many runs a comparison makes.
FAMILY_ALPHA = 1e-6
# The normal approximation behind z holds only when both outcomes are common.
MIN_EXPECTED_EVENTS = 20

QUADRATURE_TOL = 1e-9

# Failures the seed-state program raises on the full point-eval grid, by
# (call, exception type). A fix lowers them; they stay in the grid either way.
KNOWN_POINT_FAILURES = {
    "analytic_report[qos-sic]:ProbabilityRangeError": 1358,
    "conditional_case_ii_outage[rs]:ParameterError": 68,
    "conditional_case_ii_outage[nh-sic]:ParameterError": 68,
    "conditional_case_ii_outage[qos-sic]:ParameterError": 68,
}


@dataclasses.dataclass
class PassResult:
    """What one timed pass over all cells produced."""

    outputs: list
    cell_s: list[float]
    wall_s: float
    failed_cells: int
    failures: Counter
    render_bytes: int = 0


@dataclasses.dataclass
class CheckResult:
    run: int = 0
    failed: int = 0
    notes: list[str] = dataclasses.field(default_factory=list)
    skipped: list[str] = dataclasses.field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.run += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def sidak_z(comparisons: int) -> float:
    """Two-sided |z| bound holding the family-wise false-alarm rate at FAMILY_ALPHA.

    Šidák's bound stays valid for correlated normal statistics, which these
    are: every cell of the grid draws the same gains.
    """
    per_test = -math.expm1(math.log1p(-FAMILY_ALPHA) / max(1, comparisons))
    return NormalDist().inv_cdf(1.0 - per_test / 2.0)


def _failure_key(call: str, exc: Exception) -> str:
    return f"{call}:{type(exc).__name__}"


def sweep_failure_key(f) -> str:
    """Key of a failure run_sweep records instead of raising."""
    return f"run_sweep[{f.engine}]:{f.scheme.value}/{f.metric.value}"


# --------------------------------------------------------------------------- oracle-grid

ORACLE_FORMS = (
    ("rs_case_i_outage", cn.rs_case_i_outage),
    ("rs_case_ii_outage", cn.rs_case_ii_outage),
    ("rs_case_iii_outage", cn.rs_case_iii_outage),
    ("rs_total_outage", cn.rs_total_outage),
    ("nh_sic_case_ii_outage", cn.nh_sic_case_ii_outage),
    ("qos_sic_case_ii_outage", cn.qos_sic_case_ii_outage),
    ("total_outage[nh-sic]", partial(cn.total_outage, SchemeId.NH_SIC)),
    ("total_outage[qos-sic]", partial(cn.total_outage, SchemeId.QOS_SIC)),
    ("admission_probability", cn.admission_probability),
)

# Monte Carlo count matching each closed form, in ORACLE_FORMS order.
_ORACLE_COUNTS = (
    lambda t: t.schemes[SchemeId.RS].outage_case_i,
    lambda t: t.schemes[SchemeId.RS].outage_case_ii,
    lambda t: t.schemes[SchemeId.RS].outage_case_iii,
    lambda t: t.schemes[SchemeId.RS].outage_total,
    lambda t: t.schemes[SchemeId.NH_SIC].outage_case_ii,
    lambda t: t.schemes[SchemeId.QOS_SIC].outage_case_ii,
    lambda t: t.schemes[SchemeId.NH_SIC].outage_total,
    lambda t: t.schemes[SchemeId.QOS_SIC].outage_total,
    lambda t: t.case_ii,
)


class OracleGrid:
    name = "oracle-grid"

    def __init__(self, seed: int, smoke: bool) -> None:
        grid = list(parameter_grid())
        self.cells = grid[:6] if smoke else grid
        self.draws = 1 << 12 if smoke else 1 << 20
        self.sampler = SamplerConfig(seed=seed)

    def manifest(self) -> dict:
        return {"cells": len(self.cells), "draws_per_cell": self.draws,
                "stream_count": self.sampler.stream_count}

    def run_pass(self, limit: int | None = None) -> PassResult:
        outputs, cell_s, failures = [], [], Counter()
        failed_cells = 0
        start = time.perf_counter()
        for params in self.cells[:limit]:
            t0 = time.perf_counter()
            try:
                closed = tuple(f(params) for _, f in ORACLE_FORMS)
                quad = cn.case_ii_outage_quadrature(params)
                tally = cn.simulate_tally(params, self.sampler, self.draws,
                                          CLOSED_FORM_SCHEMES, workers=WORKERS)
                out = (closed, quad, tally)
            except Exception as exc:  # a failed cell is counted, the pass goes on
                failures[_failure_key("cell", exc)] += 1
                failed_cells += 1
                out = None
            cell_s.append(time.perf_counter() - t0)
            outputs.append(out)
        return PassResult(outputs, cell_s, time.perf_counter() - start, failed_cells, failures)

    def check(self, outputs: list) -> CheckResult:
        res = CheckResult()
        comparisons = []
        for params, out in zip(self.cells, outputs):
            if out is None:
                continue
            closed, quad, tally = out
            res.expect(abs(closed[1] - quad) <= QUADRATURE_TOL,
                       f"|closed - quadrature| = {abs(closed[1] - quad):.3e} at {params}")
            for (name, _), count_of, p in zip(ORACLE_FORMS, _ORACLE_COUNTS, closed):
                if min(p, 1.0 - p) * tally.n < MIN_EXPECTED_EVENTS:
                    continue
                z = (count_of(tally) / tally.n - p) / math.sqrt(p * (1.0 - p) / tally.n)
                comparisons.append((abs(z), name, params))
        bound = sidak_z(len(comparisons))
        for z, name, params in comparisons:
            res.expect(z <= bound, f"Monte Carlo |z| = {z:.2f} > {bound:.2f} for {name} at {params}")
        return res


# --------------------------------------------------------------------------- figure-sweeps

def figure_specs(seed: int, smoke: bool) -> list[tuple[str, cn.SweepSpec]]:
    """The five presets plus an ergodic-throughput sweep on the fig3 axis."""
    n = 1 << 12 if smoke else None
    specs = [(name, cn.figure_preset(name, n_samples=n, seed=seed)) for name in PRESET_NAMES]
    fig3 = dict(specs)["fig3"]
    specs.append(("fig3-ergodic", dataclasses.replace(fig3, metrics=(Metric.THROUGHPUT_ERGODIC,))))
    if smoke:
        specs = [(name, dataclasses.replace(s, axis_values=s.axis_values[-2:])) for name, s in specs]
    return specs


class FigureSweeps:
    name = "figure-sweeps"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.specs = figure_specs(seed, smoke)
        # one cell = one axis value of one sweep
        self.cells = [(k, dataclasses.replace(spec, axis_values=(v,)))
                      for k, (_, spec) in enumerate(self.specs) for v in spec.axis_values]

    def manifest(self) -> dict:
        return {"cells": len(self.cells), "sweeps": [name for name, _ in self.specs],
                "draws_per_cell": self.specs[0][1].n_samples,
                "stream_count": self.specs[0][1].stream_count}

    def run_pass(self, limit: int | None = None) -> PassResult:
        rows = [[] for _ in self.specs]
        cell_s, failures = [], Counter()
        failed_cells = 0
        start = time.perf_counter()
        for k, cell_spec in self.cells[:limit]:
            t0 = time.perf_counter()
            result = cn.run_sweep(cell_spec, workers=WORKERS)
            cell_s.append(time.perf_counter() - t0)
            rows[k].extend(result.rows)
            if result.failures:
                failed_cells += 1
                failures.update(sweep_failure_key(f) for f in result.failures)
        # render refuses an empty result; an empty CSV then fails the check
        csvs = [cn.render(SweepResult(spec=spec, rows=r), "csv") if r else ""
                for (_, spec), r in zip(self.specs, rows)]
        wall = time.perf_counter() - start
        return PassResult(csvs, cell_s, wall, failed_cells, failures,
                          render_bytes=sum(len(c.encode()) for c in csvs))

    def hashes(self, csvs: list[str]) -> dict[str, str]:
        return {name: hashlib.sha256(text.encode()).hexdigest()
                for (name, _), text in zip(self.specs, csvs)}

    def check(self, csvs: list[str]) -> CheckResult:
        res = CheckResult()
        for (name, _), text in zip(self.specs, csvs):
            records = parse_csv(text)
            res.expect(len(records) > 0, f"{name}: empty CSV")
            for rec in records:
                v = rec["value"]
                top = 1.0 if rec["metric"].startswith("outage") else math.inf
                res.expect(0.0 <= v <= top,
                           f"{name}: {rec['metric']} {rec['engine']} value {v!r} out of range")
        if self.smoke:
            return res
        recorded = json.loads(CSV_RECORD.read_text()).get(str(self.seed))
        if recorded is None:
            res.skipped.append(f"no CSV SHA-256 recorded for seed {self.seed} in {CSV_RECORD.name}; "
                               f"the byte check did not run")
            return res
        for name, digest in self.hashes(csvs).items():
            res.expect(recorded.get(name) == digest,
                       f"{name}: CSV SHA-256 {digest[:12]} differs from the record for seed {self.seed}")
        return res


# --------------------------------------------------------------------------- point-eval

POINT_POWERS_DB = tuple(float(v) for v in range(-20, 61, 5))
POINT_RATES = (0.25, 1.0, 2.0, 4.0)
REALIZATIONS_PER_CELL = 4
POINT_CALLS = (
    ("analytic_report", cn.analytic_report),
    ("conditional_case_ii_outage", cn.conditional_case_ii_outage),
    ("delay_limited_throughput", cn.delay_limited_throughput),
)
ALL_SCHEMES = tuple(SchemeId)


def point_grid() -> list[SystemParams]:
    return [SystemParams(p0=db_to_linear(p0), p1=db_to_linear(p1), r0_hat=r0, r1_hat=r1)
            for p0 in POINT_POWERS_DB for p1 in POINT_POWERS_DB
            for r0 in POINT_RATES for r1 in POINT_RATES]


class PointEval:
    name = "point-eval"

    def __init__(self, seed: int, smoke: bool) -> None:
        grid = point_grid()
        self.cells = grid[:48] if smoke else grid
        # the benchmark's own generator: the channel layer does no work here
        rng = np.random.default_rng(seed)
        self.gains = rng.exponential(size=(len(self.cells), REALIZATIONS_PER_CELL, 2))
        self.chans = [[cn.ChannelRealization(g0=float(a), g1=float(b)) for a, b in cell]
                      for cell in self.gains]

    def manifest(self) -> dict:
        return {"cells": len(self.cells), "realizations_per_cell": REALIZATIONS_PER_CELL}

    def run_pass(self, limit: int | None = None) -> PassResult:
        outputs, cell_s, failures = [], [], Counter()
        failed_cells = 0
        start = time.perf_counter()
        for params, chans in zip(self.cells[:limit], self.chans):
            t0 = time.perf_counter()
            values, failed = [], False
            for scheme in CLOSED_FORM_SCHEMES:
                for call, f in POINT_CALLS:
                    try:
                        values.append(f(scheme, params))
                    except Exception as exc:
                        failures[_failure_key(f"{call}[{scheme.value}]", exc)] += 1
                        values.append(None)
                        failed = True
            try:
                values.append(cn.case_ii_outage_quadrature(params))
            except Exception as exc:
                failures[_failure_key("case_ii_outage_quadrature", exc)] += 1
                values.append(None)
                failed = True
            outcomes = [cn.evaluate_outcome(s, params, ch) for ch in chans for s in ALL_SCHEMES]
            cell_s.append(time.perf_counter() - t0)
            failed_cells += failed
            outputs.append((values, outcomes))
        return PassResult(outputs, cell_s, time.perf_counter() - start, failed_cells, failures)

    def check(self, outputs: list) -> CheckResult:
        """Scalar outcomes must equal the vector tally on the same realizations."""
        res = CheckResult()
        secondary = tuple(s for s in ALL_SCHEMES if s is not SchemeId.OMA_PRIMARY)
        cases = ("I", "II", "III")
        for params, gains, (_, outcomes) in zip(self.cells, self.gains, outputs):
            tally = cn.tally_population(params, gains[:, 0], gains[:, 1], secondary)
            by_scheme = {s: [o for o in outcomes if o.scheme is s] for s in ALL_SCHEMES}
            rs = by_scheme[SchemeId.RS]
            scalar = [sum(o.case_label.value == c for o in rs) for c in cases]
            scalar.append(sum(o.primary_outage for o in by_scheme[SchemeId.OMA_PRIMARY]))
            vector = [tally.case_i, tally.case_ii, tally.case_iii, tally.primary_outage]
            for s in secondary:
                outs = by_scheme[s]
                scalar += [sum(o.secondary_outage and o.case_label.value == c for o in outs) for c in cases]
                st = tally.schemes[s]
                vector += [st.outage_case_i, st.outage_case_ii, st.outage_case_iii]
            res.expect(scalar == vector, f"scalar {scalar} != tally {vector} at {params}")
        return res


WORKLOADS = {w.name: w for w in (OracleGrid, FigureSweeps, PointEval)}

"""Traced single-threaded replay of each workload, built from public calls.

The replay redoes every cell of a workload with a span (name, start, end,
cell) around each public call: each closed form, the quadrature,
``evaluate_outcome``, ``simulate_tally``, ``run_sweep`` and ``render``. While a
cell runs, the program's own calls one layer down are wrapped with spans
too: ``GainStream`` creation, ``GainStream.gains`` per shard block,
``tally_population`` and ``PopulationTally.merge`` inside the estimator, and
the closed forms, ``simulate_tally`` and ``estimate_from_tally`` that
``run_sweep`` calls. Monte Carlo runs at one worker. Counts are kept at the
same boundaries, so they follow whatever the program does. A layer's busy
time is the self time of its spans: duration minus the time of the spans
nested in them. Spans stay in memory until the run writes them out.

The replay must reproduce the untraced run's tallies, outcomes and CSV bytes
exactly; any difference is a failed check.

Right after each replayed cell the tracer times its Monte Carlo calls again,
untraced, at one and at two workers. Timing them next to the spans they are
compared with keeps slow phases of a shared host out of the differences.
"""

from __future__ import annotations

import inspect
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import partial

import crnoma as cn
import crnoma.estimator as estimator
import crnoma.experiments as experiments
from crnoma.estimator import PopulationTally
from crnoma.experiments import SweepResult

from workloads import (ALL_SCHEMES, CLOSED_FORM_SCHEMES, ORACLE_FORMS, POINT_CALLS,
                       WORKERS, FigureSweeps, OracleGrid, PointEval, _failure_key,
                       sweep_failure_key)

# span name -> layer; any other name is a closed form
LAYER_OF = {
    "GainStream": "channel",
    "GainStream.gains": "channel",
    "tally_population": "estimator.tally",
    "tally_population[rates]": "estimator.tally_rates",
    "PopulationTally.merge": "estimator.merge",
    "simulate_tally": "estimator.simulate",
    "estimate_from_tally": "estimator.estimate",
    "case_ii_outage_quadrature": "quadrature",
    "evaluate_outcome": "strategy",
    "run_sweep": "experiments.sweep",
    "render": "experiments.render",
}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, "analytic")


class _TracedModule:
    """Stands in for a module; every function taken from it runs in a span."""

    def __init__(self, tracer: "Tracer", module) -> None:
        self._tracer, self._module = tracer, module

    def __getattr__(self, name: str):
        value = getattr(self._module, name)
        return partial(self._tracer.call, name, value) if callable(value) else value


class Tracer:
    """In-memory spans and counters; one instance per traced replay."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.busy: dict[str, float] = defaultdict(float)  # self time per layer
        self.calls: Counter = Counter()  # spans per layer
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self.cell = -1
        self.mismatches: list[str] = []
        self._children: list[float] = []  # time of nested spans, per open span
        # (seed, stream, offset, size) of every gains block, and how far
        # each live stream has been drawn
        self.blocks: set = set()
        self.drawn: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # traced simulate_tally calls awaiting their untraced probes, and the
        # probes' time at one and at WORKERS workers
        self.pending: list = []
        self.mc_w1_s = self.mc_w2_s = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            nested = self._children.pop()
            if self._children:
                self._children[-1] += t1 - t0
            layer = layer_of(name)
            self.busy[layer] += t1 - t0 - nested
            self.calls[layer] += 1
            self.spans.append((name, t0, t1, self.cell))

    def simulate(self, *args, **kwargs) -> PopulationTally:
        """simulate_tally in a span; probe() times it again untraced."""
        total = self.call("simulate_tally", estimator.simulate_tally, *args, **kwargs)
        self.pending.append((args, kwargs, total))
        return total

    @contextmanager
    def instrumented(self):
        """Wrap the calls one layer below the public ones with spans, then restore them."""
        stream_cls, gains = estimator.GainStream, estimator.GainStream.gains
        tally, merge = estimator.tally_population, PopulationTally.merge
        tally_sig = inspect.signature(tally)
        swept = (experiments.analytic, experiments.simulate_tally, experiments.estimate_from_tally)

        def traced_stream(seed, stream_index):
            return self.call("GainStream", stream_cls, seed, stream_index)

        def traced_gains(stream, n):
            at = self.drawn.get(stream, 0)
            self.drawn[stream] = at + n
            self.blocks.add((stream.seed, stream.stream_index, at, n))
            self.counts["channel.draws"] += n
            return self.call("GainStream.gains", gains, stream, n)

        def traced_tally(*args, **kwargs):
            bound = tally_sig.bind(*args, **kwargs).arguments
            name = "tally_population[rates]" if bound.get("with_rates") else "tally_population"
            self.counts[f"{name}.draws"] += bound["g0"].size
            return self.call(name, tally, *args, **kwargs)

        def traced_merge(total, other):
            return self.call("PopulationTally.merge", merge, total, other)

        estimator.GainStream, estimator.tally_population = traced_stream, traced_tally
        stream_cls.gains, PopulationTally.merge = traced_gains, traced_merge
        experiments.analytic = _TracedModule(self, swept[0])
        experiments.simulate_tally = self.simulate
        experiments.estimate_from_tally = partial(self.call, "estimate_from_tally", swept[2])
        try:
            yield
        finally:
            estimator.GainStream, estimator.tally_population = stream_cls, tally
            stream_cls.gains, PopulationTally.merge = gains, merge
            experiments.analytic, experiments.simulate_tally, experiments.estimate_from_tally = swept

    def probe(self) -> None:
        """Time the pending simulate_tally calls untraced, at one and WORKERS workers."""
        for args, kwargs, traced in self.pending:
            t0 = time.perf_counter()
            one = cn.simulate_tally(*args, **{**kwargs, "workers": 1})
            t1 = time.perf_counter()
            two = cn.simulate_tally(*args, **{**kwargs, "workers": WORKERS})
            t2 = time.perf_counter()
            self.mc_w1_s += t1 - t0
            self.mc_w2_s += t2 - t1
            if not one == two == traced:
                self.mismatches.append(
                    f"cell {self.cell}: traced simulate_tally != untraced at 1 or {WORKERS} workers")
        self.pending.clear()

    def probe_s(self) -> float:
        """Time spent in the untraced probes, which the traced wall time excludes."""
        return self.mc_w1_s + self.mc_w2_s

    def distinct_draws(self) -> int:
        return sum(m for *_, m in self.blocks)


def replay_oracle(w: OracleGrid, tr: Tracer) -> list:
    outputs = []
    for i, params in enumerate(w.cells):
        tr.cell = i
        try:
            closed = tuple(tr.call(name, f, params) for name, f in ORACLE_FORMS)
            quad = tr.call("case_ii_outage_quadrature", cn.case_ii_outage_quadrature, params)
            with tr.instrumented():
                tally = tr.simulate(params, w.sampler, w.draws, CLOSED_FORM_SCHEMES, workers=1)
            outputs.append((closed, quad, tally))
        except Exception as exc:
            tr.failures[_failure_key("cell", exc)] += 1
            outputs.append(None)
        tr.probe()
    return outputs


def replay_figures(w: FigureSweeps, tr: Tracer) -> list[str]:
    rows = [[] for _ in w.specs]
    for i, (k, spec) in enumerate(w.cells):
        tr.cell = i
        with tr.instrumented():
            result = tr.call("run_sweep", cn.run_sweep, spec, workers=1)
        tr.probe()
        rows[k].extend(result.rows)
        tr.failures.update(sweep_failure_key(f) for f in result.failures)
    tr.cell = len(w.cells)
    return [tr.call("render", cn.render, SweepResult(spec=spec, rows=r), "csv") if r else ""
            for (_, spec), r in zip(w.specs, rows)]


def replay_points(w: PointEval, tr: Tracer) -> list:
    outputs = []
    for i, (params, chans) in enumerate(zip(w.cells, w.chans)):
        tr.cell = i
        values = []
        for scheme in CLOSED_FORM_SCHEMES:
            for call, f in POINT_CALLS:
                try:
                    values.append(tr.call(call, f, scheme, params))
                except Exception as exc:
                    tr.failures[_failure_key(f"{call}[{scheme.value}]", exc)] += 1
                    values.append(None)
        try:
            values.append(tr.call("case_ii_outage_quadrature", cn.case_ii_outage_quadrature, params))
        except Exception as exc:
            tr.failures[_failure_key("case_ii_outage_quadrature", exc)] += 1
            values.append(None)
        outcomes = [tr.call("evaluate_outcome", cn.evaluate_outcome, s, params, ch)
                    for ch in chans for s in ALL_SCHEMES]
        outputs.append((values, outcomes))
    return outputs


REPLAYS = {OracleGrid.name: replay_oracle, FigureSweeps.name: replay_figures,
           PointEval.name: replay_points}

"""crnoma benchmark: one workload per process, every metric printed by name with its unit.

Usage, from the repository root:

    python3 bench/run.py --workload figure-sweeps --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --smoke

BENCHMARK.json lists figure-sweeps and point-eval. oracle-grid runs the same
way; it is left out of BENCHMARK.json because its passes take about ten
seconds, so a run as long as the others holds too few of them for a steady
figure, and longer runs of a third workload would not fit the time all the
runs of a comparison may take (see host_noise in baseline.json).

``--trace 0`` measures the end-to-end metrics: complete passes over the
workload's cells, with ``workers=2`` Monte Carlo, in several fresh
processes one after another for ``--seconds`` seconds in all; wall_s is the
mean over processes of each one's median pass, cell_p50_ms the median over
cells of each cell's fastest time, and cell_p90_ms the 90th percentile of
every timed cell (see measure_untraced). ``--trace 1`` ignores
``--seconds``: it makes one untraced reference pass (counting the page
faults and system time it causes), then replays the workload
single-threaded with spans (see replay.py) and reports the per-layer
metrics. Either way the set-up time is the median of several fresh interpreters, each
timed from start to the end of the workload's first cell.

The figure-sweeps CSV bytes are checked against the SHA-256 recorded for the
seed in bench/csv_sha256.json (seeds 0-199); for any other seed that check
is reported as skipped.

Outputs are checked after timing; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A
results file with the run manifest is written under bench/results/.
``--smoke`` runs all three workloads at a tiny size in both modes and asserts that
every metric named in BENCHMARK.json is emitted with its unit.

The package is imported from ``src/`` next to this directory, never from an
installed copy, so the benchmark fails if the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
# set-up samples of a traced run; an untraced run takes one per timing process
SETUP_PROBES = 5
# fresh processes that time passes in one untraced run (see measure_untraced)
CHILDREN = 6
# share of a workload's cells each timing process runs untimed before its passes
WARMUP_SHARE = 20

END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_p50_ms": "ms",
    "cell_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "channel.draws": "count",
    "channel.busy_s": "s",
    "channel.ns_per_draw": "ns",
    "channel.distinct_draw_ratio": "ratio",
    "estimator.tally.ns_per_draw": "ns",
    "estimator.tally_rates.ns_per_draw": "ns",
    "estimator.merge.calls": "count",
    "estimator.merge.busy_s": "s",
    "estimator.draws_per_s_w1": "1/s",
    "estimator.draws_per_s_w2": "1/s",
    "estimator.scaling_w2": "ratio",
    "estimator.wait_s": "s",
    "analytic.calls": "count",
    "analytic.us_per_call": "us",
    "analytic.failed": "count",
    "quadrature.calls": "count",
    "quadrature.us_per_call": "us",
    "quadrature.failed": "count",
    "strategy.calls": "count",
    "strategy.us_per_call": "us",
    "experiments.render.busy_s": "s",
    "experiments.render.bytes": "bytes",
    "experiments.sweep_overhead_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "process.minor_faults": "count",
    "process.sys_s": "s",
    "fail_ratio": "ratio",
    "failed.ProbabilityRangeError": "count",
    "failed.ParameterError": "count",
    "failed.other": "count",
}


def _import_package():
    sys.path.insert(0, str(SRC))
    import crnoma  # noqa: F401


# --------------------------------------------------------------------------- set-up time

def _first_cell(workload: str, seed: int) -> int:
    """Child side of a set-up probe: import, build inputs, run the first cell."""
    t0 = time.perf_counter()
    _import_package()
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    WORKLOADS[workload](seed, smoke=False).run_pass(limit=1)
    print(f"first-cell import_s={import_s!r}", flush=True)
    return 0


def _setup_probes(workload: str, seed: int, count: int) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter to the end of its first cell."""
    setup, imports = [], []
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--first-cell",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or not line.startswith("first-cell "):
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
        setup.append(t1 - t0)
        imports.append(float(line.split("import_s=")[1]))
    return setup, imports


# --------------------------------------------------------------------------- measurement

def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _digest(output) -> str:
    """Fingerprint of one cell's output; outputs are plain dataclasses, floats and strings."""
    return hashlib.blake2b(repr(output).encode(), digest_size=8).hexdigest()


def _timed_child(workload: str, seed: int, budget: float, smoke: bool, check: bool) -> int:
    """Child side of measure_untraced: warm up, then time whole passes for `budget` seconds.

    Its first cell also ends a set-up sample, timed on the system-wide
    monotonic clock from when the parent spawned it.
    """
    _import_package()
    from workloads import WORKLOADS
    w = WORKLOADS[workload](seed, smoke=smoke)
    w.run_pass(limit=1)
    first_cell_at = time.monotonic()
    w.run_pass(limit=max(1, len(w.cells) // WARMUP_SHARE))
    passes, cell_s, failed_cells = [], [], []
    digests, failures, checked, differ = None, None, None, set()
    start = time.perf_counter()
    # whole passes only, and none that would end far past the budget
    while not passes or time.perf_counter() - start + statistics.median(passes) <= budget:
        p = w.run_pass()
        passes.append(p.wall_s)
        cell_s += p.cell_s
        failed_cells.append(p.failed_cells)
        d = [_digest(o) for o in p.outputs]
        if digests is None:
            digests, failures = d, dict(p.failures)
            checked = p.outputs if check else None
        else:
            differ.update(i for i, (a, b) in enumerate(zip(digests, d)) if a != b)
        # drop the pass before the next one, so peak memory does not grow with the pass count
        del p
    out = {"passes_s": passes, "cell_s": cell_s, "failed_cells": failed_cells,
           "digests": digests, "differ": sorted(differ), "failures": failures,
           "first_cell_at": first_cell_at,
           "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if check:
        checks = w.check(checked)
        out["checks"] = {"run": checks.run, "failed": checks.failed,
                         "notes": checks.notes, "skipped": checks.skipped}
        if hasattr(w, "hashes"):
            out["csv_sha256"] = w.hashes(checked)
    print(json.dumps(out), flush=True)
    return 0


def _per_cell(cell_s: list[float], cells: int) -> list[float]:
    """Each cell's fastest time over the passes of one process (cell times are pass after pass)."""
    return [min(cell_s[i::cells]) for i in range(cells)]


def _spawn_timed(workload: str, seed: int, budget: float, smoke: bool, check: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--timed-child", repr(budget),
           "--workload", workload, "--seed", str(seed)] + ["--smoke"] * smoke + ["--check"] * check
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget + 150)
    if proc.returncode != 0:
        raise RuntimeError(f"timed process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out.pop("first_cell_at") - spawned_at
    return out


def measure_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Whole passes in CHILDREN fresh processes, one after another, `seconds` in all.

    The program's page-fault rate, and with it its speed, settles per process
    into one of a few levels (how the allocator hands the Monte Carlo worker
    threads their memory), so one process would give a run one draw of that
    level. Each run therefore times passes in several processes: wall_s is the
    mean over processes of each one's median pass.

    A shared host slows single cells too, by up to about 2x and in bursts far
    shorter than a pass, so a cell's time mixes its own cost with how busy
    the host was at that moment. cell_p50_ms is the median over cells of
    each cell's fastest time in the run: what the cell costs, as steady as
    the host allows. cell_p90_ms is the 90th percentile of every timed cell
    evaluation, contention included: the slow end a user meets.

    Each process warms up on a few cells first. The first process checks its
    first pass; every pass of every process must reproduce that pass's
    outputs exactly. setup_s is the median over the processes of the time
    from spawning one to the end of its first cell.
    """
    n = 2 if smoke else CHILDREN
    runs = [_spawn_timed(workload, seed, seconds / n, smoke, check=i == 0) for i in range(n)]
    first, checks = runs[0], runs[0]["checks"]
    differ = set().union(*(r["differ"] for r in runs))
    for r in runs[1:]:
        differ.update(i for i, (a, b) in enumerate(zip(first["digests"], r["digests"])) if a != b)
    cells = len(first["digests"])
    timed = [t for r in runs for t in r["cell_s"]]
    fastest = [min(ts) for ts in zip(*(_per_cell(r["cell_s"], cells) for r in runs))]
    # one pass's worth, like fail_ratio, so the figure does not depend on
    # how many passes fit in the run
    first_failed = first["failed_cells"][0] + checks["failed"] + len(differ)
    metrics = {
        "wall_s": statistics.fmean(statistics.median(r["passes_s"]) for r in runs),
        "cell_p50_ms": statistics.median(fastest) * 1e3,
        "cell_p90_ms": _p90(timed) * 1e3,
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in runs),
        "ok_ratio": max(0.0, 1.0 - first_failed / cells),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
    }
    notes = checks["notes"] + ([f"{len(differ)} cells differ between passes"] if differ else [])
    extra = {"passes_s": [r["passes_s"] for r in runs], "cells_per_pass": cells,
             "timed_cells": len(timed), "setup_samples_s": [r["setup_s"] for r in runs],
             "failures": first["failures"],
             "checks_run": checks["run"], "checks_failed": checks["failed"]}
    if "csv_sha256" in first:
        extra["csv_sha256"] = first["csv_sha256"]
    failed = sum(sum(r["failed_cells"]) for r in runs) + checks["failed"] + len(differ)
    return dict(metrics=metrics, attempted=len(timed), failed=failed,
                correct=checks["failed"] == 0 and not differ, notes=notes,
                skipped=checks["skipped"], extra=extra)


def measure_traced(w) -> tuple[dict, list]:
    """Untraced reference pass, then the traced replay with its untraced probes."""
    from replay import REPLAYS, Tracer, layer_of

    before = resource.getrusage(resource.RUSAGE_SELF)
    ref = w.run_pass()
    after = resource.getrusage(resource.RUSAGE_SELF)
    checks = w.check(ref.outputs)

    tr = Tracer()
    t0 = time.perf_counter()
    replayed = REPLAYS[w.name](w, tr)
    traced_wall = time.perf_counter() - t0 - tr.probe_s()

    for i, (a, b) in enumerate(zip(ref.outputs, replayed)):
        checks.expect(a == b, f"replay output differs from the untraced run in cell/sweep {i}")
    for note in tr.mismatches:
        checks.expect(False, note)
    checks.expect(dict(tr.failures) == dict(ref.failures),
                  f"replay failures {dict(tr.failures)} != untraced {dict(ref.failures)}")

    busy, calls, counts = tr.busy, tr.calls, tr.counts
    draws, t_w1, t_w2 = counts["channel.draws"], tr.mc_w1_s, tr.mc_w2_s
    failed_by_layer, by_type = Counter(), Counter()
    for key, n in ref.failures.items():  # keys are "call[scheme]:ExceptionType"
        call, kind = key.rsplit(":", 1)
        failed_by_layer[layer_of(call.split("[")[0])] += n
        by_type[kind if kind in ("ProbabilityRangeError", "ParameterError") else "other"] += n

    def per(layer_busy: float, n: float, scale: float) -> float:
        return layer_busy / n * scale if n else 0.0

    metrics = {
        "channel.draws": draws,
        "channel.busy_s": busy["channel"],
        "channel.ns_per_draw": per(busy["channel"], draws, 1e9),
        "channel.distinct_draw_ratio": tr.distinct_draws() / draws if draws else 0.0,
        "estimator.tally.ns_per_draw": per(busy["estimator.tally"], counts["tally_population.draws"], 1e9),
        "estimator.tally_rates.ns_per_draw": per(busy["estimator.tally_rates"],
                                                 counts["tally_population[rates].draws"], 1e9),
        "estimator.merge.calls": calls["estimator.merge"],
        "estimator.merge.busy_s": busy["estimator.merge"],
        "estimator.draws_per_s_w1": draws / t_w1 if draws else 0.0,
        "estimator.draws_per_s_w2": draws / t_w2 if draws else 0.0,
        "estimator.scaling_w2": t_w1 / t_w2 if draws else 0.0,
        # simulate_tally's self time: its own shard loop, outside the channel,
        # tally and merge spans (one worker, so no pool)
        "estimator.wait_s": busy["estimator.simulate"],
        "analytic.calls": calls["analytic"],
        "analytic.us_per_call": per(busy["analytic"], calls["analytic"], 1e6),
        "analytic.failed": failed_by_layer["analytic"],
        "quadrature.calls": calls["quadrature"],
        "quadrature.us_per_call": per(busy["quadrature"], calls["quadrature"], 1e6),
        "quadrature.failed": failed_by_layer["quadrature"],
        "strategy.calls": calls["strategy"],
        "strategy.us_per_call": per(busy["strategy"], calls["strategy"], 1e6),
        "experiments.render.busy_s": busy["experiments.render"],
        "experiments.render.bytes": ref.render_bytes,
        # run_sweep's self time: outside closed forms, estimates and simulate_tally
        "experiments.sweep_overhead_s": busy["experiments.sweep"],
        "trace.overhead_s": traced_wall - ref.wall_s,
        "trace.unaccounted_s": traced_wall - sum(busy.values()),
        "process.minor_faults": after.ru_minflt - before.ru_minflt,
        "process.sys_s": after.ru_stime - before.ru_stime,
        "fail_ratio": (ref.failed_cells + checks.failed) / len(ref.cell_s),
        "failed.ProbabilityRangeError": by_type["ProbabilityRangeError"],
        "failed.ParameterError": by_type["ParameterError"],
        "failed.other": by_type["other"],
    }
    extra = {"reference_wall_s": ref.wall_s, "traced_wall_s": traced_wall,
             "simulate_tally_w1_s": t_w1, "simulate_tally_w2_s": t_w2,
             "busy_s_by_layer": dict(busy), "calls_by_layer": dict(calls),
             "failures": dict(ref.failures), "checks_run": checks.run,
             "checks_failed": checks.failed, "spans": len(tr.spans)}
    t_base = min((a for _, a, _, _ in tr.spans), default=0.0)  # spans are appended as they end
    spans = [(name, a - t_base, b - t_base, cell) for name, a, b, cell in tr.spans]
    result = dict(metrics=metrics, attempted=len(ref.cell_s),
                  failed=ref.failed_cells + checks.failed, correct=checks.failed == 0,
                  notes=checks.notes, skipped=checks.skipped, extra=extra)
    return result, spans


# --------------------------------------------------------------------------- reporting

def _git_commit() -> str:
    """HEAD of the repository rooted here; "unknown" for a plain checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _manifest(w, seed: int, seconds: float, trace: int, setup_samples: int) -> dict:
    import numpy
    import scipy
    import crnoma
    from workloads import WORKERS
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "workers": WORKERS, "nproc": os.cpu_count(), "setup_samples": setup_samples,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "crnoma": crnoma.__version__,
        "git_commit": _git_commit(), "machine": platform.machine(), **w.manifest(),
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    _import_package()
    from workloads import KNOWN_POINT_FAILURES, WORKLOADS

    w = WORKLOADS[workload](seed, smoke=smoke)
    spans = None
    if trace:
        setup, imports = _setup_probes(workload, seed, 1 if smoke else SETUP_PROBES)
        result, spans = measure_traced(w)
        result["metrics"]["setup.import_s"] = statistics.median(imports)
        result["extra"]["setup_samples_s"] = setup
        units = PER_LAYER_UNITS
    else:
        result = measure_untraced(workload, seed, seconds, smoke)
        units = END_TO_END_UNITS
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    result["manifest"] = _manifest(w, seed, seconds, trace, len(result["extra"]["setup_samples_s"]))
    if workload == "point-eval":
        result["known_failures"] = KNOWN_POINT_FAILURES

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "cell"], "spans": spans}) + "\n")
    return result


def _print(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']!r} {m['unit']}")
    for key, n in sorted(result["extra"].get("failures", {}).items()):
        known = result.get("known_failures", {}).get(key)
        print(f"failure {key}: {n}" + ("" if known is None else f" (seed-state ledger: {known})"))
    for note in result["notes"]:
        print(f"CHECK FAILED: {note}")
    for note in result["skipped"]:
        print(f"CHECK SKIPPED: {note}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def smoke() -> int:
    """Every workload at a tiny size, both modes; every BENCHMARK.json metric with its unit."""
    _import_package()
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, seed=1, seconds=0, trace=trace, smoke=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: emitted {got}, expected {expected[trace]}")
            bad = [k for k, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
            if bad or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: bad values {bad} or failed checks "
                                f"{result['notes']}")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics, correct={result['correct']}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("oracle-grid", "figure-sweeps", "point-eval"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload and mode")
    parser.add_argument("--first-cell", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--timed-child", type=float, metavar="BUDGET", help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "crnoma" / "__init__.py").is_file():
        print(f"benchmark: package sources not found under {SRC.name}/crnoma", file=sys.stderr)
        return 2
    if args.timed_child is not None:
        return _timed_child(args.workload, args.seed, args.timed_child, args.smoke, args.check)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if args.first_cell:
        return _first_cell(args.workload, args.seed)
    _print(run(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

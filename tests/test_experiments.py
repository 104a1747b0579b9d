import dataclasses
import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from crnoma import (
    Metric,
    ParameterError,
    SamplerConfig,
    SchemeId,
    SweepSpec,
    admission_probability,
    emit,
    estimate,
    figure_preset,
    load_spec,
    render,
    rs_total_outage,
    run_sweep,
    save_spec,
)
from crnoma import estimator, experiments
from crnoma.cli import main
from crnoma.experiments import PRESET_NAMES, SweepResult, parse_csv


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        axis="P1_DB", axis_values=(10.0, 14.0), fixed={"r0": 1.0, "r1": 1.0, "ratio": 1.0},
        schemes=(SchemeId.RS,), metrics=(Metric.OUTAGE_TOTAL,),
        engine="BOTH", n_samples=50_000, seed=33,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_rejects_unsorted_axis(self):
        with pytest.raises(ValueError):
            small_spec(axis_values=(10.0, 10.0))

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            small_spec(axis="SNR")

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="ratio must be positive"):
            small_spec(fixed={"r0": 1.0, "r1": 1.0, "ratio": 0.0})

    def test_params_coupling(self):
        spec = small_spec(fixed={"r0": 1.0, "r1": 1.0, "ratio": 0.1})
        p = spec.params_at(20.0)
        assert p.p1 == pytest.approx(100.0)
        assert p.p0 == pytest.approx(10.0)

    def test_params_rate_axis(self):
        spec = small_spec(axis="TARGET_RATE_R1", axis_values=(0.5, 1.5),
                          fixed={"r0": 1.0, "p0_db": 15.0, "p1_db": 20.0})
        p = spec.params_at(1.5)
        assert p.r1_hat == 1.5
        assert p.p0 == pytest.approx(10**1.5)

    def test_fixed_is_copied(self):
        fixed = {"r0": 1.0, "r1": 1.0, "ratio": 1.0}
        spec = small_spec(fixed=fixed)
        fixed["r1"] = -1.0
        assert spec.fixed == {"r0": 1.0, "r1": 1.0, "ratio": 1.0}
        assert spec.params_at(10.0).r1_hat == 1.0

    def test_bad_axis_value_is_refused_when_built(self, tmp_path, capsys):
        config = dict(axis="TARGET_RATE_R1", axis_values=(0.0, 1.0),
                      fixed={"r0": 1.0, "p0_db": 10.0, "p1_db": 10.0},
                      schemes=(SchemeId.RS, SchemeId.CSI_SIC),
                      metrics=(Metric.OUTAGE_TOTAL, Metric.ADMISSION))
        # r1 = 0 is not a valid target rate
        with pytest.raises(ParameterError, match="axis value 0.0"):
            small_spec(**config)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({**config, "schemes": ["rs", "csi-sic"],
                                   "metrics": ["outage-total", "admission"]}))
        out_path = tmp_path / "out.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("crnoma: error: axis value 0.0 ")
        assert captured.out == ""
        assert not out_path.exists()


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        spec = small_spec(schemes=(SchemeId.RS, SchemeId.CSI_SIC),
                          metrics=(Metric.OUTAGE_TOTAL, Metric.ADMISSION))
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = figure_preset("fig2b", n_samples=1000, seed=99)
        path = save_spec(spec, tmp_path / "spec.json")
        assert load_spec(path) == spec


class TestRunSweep:
    def test_single_point_matches_direct_calls(self):
        spec = small_spec(axis_values=(10.0,))
        result = run_sweep(spec)
        assert not result.failures
        by_engine = {r.engine: r for r in result.rows}
        params = spec.params_at(10.0)
        assert by_engine["ANALYTIC"].value == rs_total_outage(params)
        direct = estimate(SchemeId.RS, params, Metric.OUTAGE_TOTAL, spec.n_samples,
                          SamplerConfig(seed=spec.seed, stream_count=spec.stream_count))
        assert by_engine["MONTE_CARLO"].value == direct.mean
        assert by_engine["MONTE_CARLO"].std_error == direct.std_error

    def test_one_row_per_cell(self):
        spec = small_spec(schemes=(SchemeId.RS, SchemeId.NH_SIC),
                          metrics=(Metric.OUTAGE_TOTAL, Metric.ADMISSION))
        result = run_sweep(spec)
        keys = [(r.axis_value, r.scheme, r.metric, r.engine) for r in result.rows]
        assert len(keys) == len(set(keys)) == 2 * 2 * 2 * 2

    def test_csi_is_simulation_only_under_both(self):
        spec = small_spec(schemes=(SchemeId.CSI_SIC,))
        result = run_sweep(spec)
        assert not result.failures
        assert {r.engine for r in result.rows} == {"MONTE_CARLO"}

    def test_csi_analytic_request_records_failure(self):
        spec = small_spec(schemes=(SchemeId.CSI_SIC,), engine="ANALYTIC")
        result = run_sweep(spec)
        assert not result.rows
        assert len(result.failures) == 2
        assert "closed form" in result.failures[0].message

    def test_failures_do_not_abort_other_cells(self):
        spec = small_spec(schemes=(SchemeId.CSI_SIC, SchemeId.RS), engine="ANALYTIC")
        result = run_sweep(spec)
        assert {r.scheme for r in result.rows} == {SchemeId.RS}
        assert {f.scheme for f in result.failures} == {SchemeId.CSI_SIC}

    def test_simulation_failure_fails_each_monte_carlo_cell_once(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sampler broke")

        monkeypatch.setattr(experiments, "simulate_tally", broken)
        spec = small_spec(schemes=(SchemeId.RS, SchemeId.CSI_SIC),
                          metrics=(Metric.OUTAGE_TOTAL, Metric.ADMISSION))
        result = run_sweep(spec)
        failed = [(f.axis_value, f.scheme, f.metric, f.engine, f.message) for f in result.failures]
        assert failed == [(v, s, m, "MONTE_CARLO", "sampler broke")
                          for v in spec.axis_values for s in spec.schemes for m in spec.metrics]
        assert {r.engine for r in result.rows} == {"ANALYTIC"}

    @pytest.mark.parametrize("engine", ["ANALYTIC", "MONTE_CARLO", "BOTH"])
    @pytest.mark.parametrize("workers, env, shown", [
        (0, None, "workers must be an integer of at least 1, got 0"),
        ("two", None, "workers must be an integer of at least 1, got 'two'"),
        (None, "0", "CRNOMA_WORKERS must be an integer of at least 1, got 0"),
    ], ids=["zero", "text", "environment"])
    def test_bad_worker_count_raises_before_any_cell(self, monkeypatch, engine, workers, env, shown):
        ran = []
        monkeypatch.setattr(experiments, "_analytic_value", lambda *args: ran.append(args))
        monkeypatch.setattr(experiments, "simulate_tally", lambda *args, **kwargs: ran.append(args))
        if env is not None:
            monkeypatch.setenv("CRNOMA_WORKERS", env)
        with pytest.raises(ParameterError) as refused:
            run_sweep(small_spec(engine=engine), workers=workers)
        assert str(refused.value) == shown and ran == []

    @pytest.mark.parametrize("metrics, products", [
        ((Metric.THROUGHPUT_ERGODIC,), (False, True)),
        ((Metric.OUTAGE_TOTAL, Metric.THROUGHPUT_ERGODIC), (True, True)),
        ((Metric.OUTAGE_TOTAL, Metric.ADMISSION), (True, False)),
    ], ids=["ergodic-only", "mixed", "counts-only"])
    def test_tally_holds_only_what_the_metrics_read(self, monkeypatch, metrics, products):
        requested = []
        tally = estimator.tally_population
        signature = inspect.signature(tally)

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            requested.append((bound.arguments["with_counts"], bound.arguments["with_rates"]))
            return tally(*args, **kwargs)

        monkeypatch.setattr(estimator, "tally_population", spy)
        spec = small_spec(schemes=(SchemeId.RS, SchemeId.CSI_SIC), metrics=metrics,
                          engine="MONTE_CARLO")
        result = run_sweep(spec, workers=1)  # the spy sees the calling process only
        assert not result.failures
        assert len(result.rows) == 2 * 2 * len(metrics)
        assert requested and set(requested) == {products}
        for workers in (2, 3):
            assert run_sweep(spec, workers=workers) == result


class TestEmit:
    def test_csv_round_trip_exact(self, tmp_path):
        result = run_sweep(small_spec())
        path = emit(result, "csv", tmp_path / "out.csv")
        recovered = parse_csv(path.read_text())
        assert len(recovered) == len(result.rows)
        for rec, row in zip(recovered, result.rows):
            assert rec["value"] == row.value  # bit-exact through repr
            assert rec["std_error"] == row.std_error
            assert rec["axis_value"] == row.axis_value

    def test_json_and_csv_hold_identical_values(self, tmp_path):
        result = run_sweep(small_spec())
        csv_vals = sorted(r["value"] for r in parse_csv(render(result, "csv")))
        json_vals = sorted(r["value"] for r in json.loads(render(result, "json")))
        assert csv_vals == json_vals

    def test_empty_result_refuses_and_creates_nothing(self, tmp_path):
        empty = SweepResult(spec=small_spec())
        target = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit(empty, "csv", target)
        assert not target.exists()

    def test_unknown_format_rejected(self):
        result = run_sweep(small_spec())
        with pytest.raises(ValueError):
            render(result, "xml")

    def test_column_order(self):
        header = render(run_sweep(small_spec()), "csv").splitlines()[0]
        assert header == "axis_value,scheme,metric,engine,value,std_error"


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESET_NAMES:
            spec = figure_preset(name)
            assert spec.axis_values
            assert spec.schemes

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            figure_preset("fig9")

    def test_fig1a_ties_p0_to_p1_exactly(self):
        spec = figure_preset("fig1a")
        for value in spec.axis_values:
            p = spec.params_at(value)
            assert p.p0 == p.p1

    def test_overrides_apply(self):
        spec = figure_preset("fig1a", n_samples=123, seed=456)
        assert spec.n_samples == 123
        assert spec.seed == 456

    @pytest.mark.parametrize("override", [{"n_samples": 1000.5}, {"n_samples": True},
                                          {"seed": 7.9}, {"seed": True}])
    def test_overrides_are_checked_not_truncated(self, override):
        with pytest.raises(ParameterError, match=f"^{next(iter(override))} must be "):
            figure_preset("fig1a", **override)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("overrides", [{}, {"n_samples": 123, "seed": 456}],
                             ids=["defaults", "overrides"])
    def test_preset_is_built_and_checked_once(self, monkeypatch, name, overrides):
        checks = []
        post_init = SweepSpec.__post_init__

        def counted(spec):
            checks.append(spec)
            post_init(spec)

        monkeypatch.setattr(SweepSpec, "__post_init__", counted)
        spec = figure_preset(name, **overrides)
        assert checks == [spec]

    def test_fig2b_conditional_nondecreasing_analytic(self):
        spec = figure_preset("fig2b")
        # analytic rows only: drop the Monte Carlo engine for speed
        spec = SweepSpec.from_dict({**spec.to_dict(), "engine": "ANALYTIC",
                                    "schemes": ["rs", "nh-sic", "qos-sic"]})
        result = run_sweep(spec)
        assert not result.failures
        for scheme in spec.schemes:
            curve = [r.value for r in result.rows if r.scheme == scheme]
            assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_fig1_preset_smoke(self):
        spec = figure_preset("fig1a", n_samples=20_000)
        spec = SweepSpec.from_dict({**spec.to_dict(), "axis_values": [10.0, 20.0]})
        result = run_sweep(spec)
        assert not result.failures
        # 2 axis points x (3 analytic + 4 monte carlo) rows
        assert len(result.rows) == 2 * 7

    def test_admission_row_matches_closed_form(self):
        spec = small_spec(metrics=(Metric.ADMISSION,), engine="ANALYTIC")
        result = run_sweep(spec)
        params = spec.params_at(10.0)
        assert result.rows[0].value == admission_probability(params)


# the CSV digests the benchmark's figure-sweeps check compares against, read here only
CSV_RECORD = Path(__file__).resolve().parents[1] / "bench" / "csv_sha256.json"


def _numpy_build() -> str:
    """numpy's version and its AVX-512 dispatch on this host: the gains' last bits depend on both.

    np.log1p takes an AVX-512 kernel where numpy dispatches one and the C
    library's elsewhere, and the two round differently. NPY_DISABLE_CPU_FEATURES
    turns the dispatch off but leaves AVX512F set in the feature table, so the
    dispatch targets are read, not the feature.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # numpy >= 2
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # numpy 1.24
    avx512 = [name for name in __cpu_dispatch__
              if ("AVX512" in name or name == "X86_V4") and __cpu_features__.get(name)]
    return f"numpy {np.__version__}, AVX-512 dispatch {' '.join(avx512) or 'off'}"


def test_figure_sweeps_share_one_draw_key():
    """Every preset, and the ergodic sweep on the fig3 axis, draws the key (seed, 16, 10^6).

    So each process draws the gains once and keeps them for every later cell (see estimator).
    """
    specs = {name: figure_preset(name, seed=7) for name in PRESET_NAMES}
    specs["fig3-ergodic"] = dataclasses.replace(specs["fig3"], metrics=(Metric.THROUGHPUT_ERGODIC,))
    assert len(specs) == 6 and all(spec.engine == "BOTH" for spec in specs.values())
    assert {(s.seed, s.stream_count, s.n_samples) for s in specs.values()} == {(7, 16, 10**6)}


def test_figure_csv_bytes_match_the_record():
    """All five presets plus an ergodic sweep on the fig3 axis, at seed 0, keep their bytes."""
    specs = {name: figure_preset(name, seed=0) for name in PRESET_NAMES}
    specs["fig3-ergodic"] = dataclasses.replace(specs["fig3"], metrics=(Metric.THROUGHPUT_ERGODIC,))
    digests = {name: hashlib.sha256(render(run_sweep(spec), "csv").encode()).hexdigest()
               for name, spec in specs.items()}
    assert digests == json.loads(CSV_RECORD.read_text())["0"], (
        "the record holds an AVX-512 host's bytes, which repeat only within one numpy build and "
        f"SIMD dispatch class; this run: {_numpy_build()}")

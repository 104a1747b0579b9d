"""Every count that enters the program passes one rule, at the point where it enters.

A seed, a stream count or index, a sample or draw count and a worker count are
refused with a ParameterError naming the input unless they are integers in
range (a bool, a float or a string is not), and a numpy integer is stored as
a plain int. A SweepSpec converts its fields the same way however it is built.
"""

import json
import re

import numpy as np
import pytest

from crnoma import (
    GainStream,
    Metric,
    ParameterError,
    SamplerConfig,
    SchemeId,
    SweepSpec,
    estimator,
    figure_preset,
    load_spec,
    render,
    run_sweep,
    save_spec,
    simulate_tally,
)

from conftest import make_params

CONFIG = {
    "axis": "P1_DB", "axis_values": [10, 12], "fixed": {"r0": 1.0, "r1": 1.0, "ratio": 1.0},
    "schemes": ["rs", "csi-sic"], "metrics": ["outage-total", "admission"],
    "n_samples": 2000, "seed": 5, "stream_count": 4,
}


def spec_with(name: str, value) -> SweepSpec:
    return SweepSpec(**{**CONFIG, name: value})


# entry point -> (the name its message gives, its upper bound or None, enter a value and
# return the count the program keeps)
ENTRY_POINTS = {
    "SamplerConfig-seed": ("seed", 2**64, lambda v: SamplerConfig(seed=v).seed),
    "SamplerConfig-stream_count": ("stream_count", None,
                                   lambda v: SamplerConfig(seed=1, stream_count=v).stream_count),
    "GainStream-seed": ("seed", 2**64, lambda v: GainStream(v, 0).seed),
    "GainStream-stream_index": ("stream_index", 2**64, lambda v: GainStream(1, v).stream_index),
    "simulate_tally-n_samples": ("n_samples", None, lambda v: simulate_tally(
        make_params(10.0, 10.0, 1.0, 1.0), SamplerConfig(seed=1), v, workers=1).n),
    "SweepSpec-n_samples": ("n_samples", None, lambda v: spec_with("n_samples", v).n_samples),
    "SweepSpec-seed": ("seed", 2**64, lambda v: spec_with("seed", v).seed),
    "SweepSpec-stream_count": ("stream_count", None,
                               lambda v: spec_with("stream_count", v).stream_count),
    "figure_preset-n_samples": ("n_samples", None,
                                lambda v: figure_preset("fig1a", n_samples=v).n_samples),
    "figure_preset-seed": ("seed", 2**64, lambda v: figure_preset("fig1a", seed=v).seed),
    "_worker_count-argument": ("workers", None, estimator._worker_count),
}


REFUSED = [True, False, 1.5, 2.0, "2", -1]
# a count below 1 is refused too, and a seed or a stream index past 2^64 - 1
REFUSED_CASES = [(entry, value) for entry, (_, high, _) in ENTRY_POINTS.items()
                 for value in REFUSED + ([0] if high is None else [2**64])]


@pytest.mark.parametrize("entry, value", REFUSED_CASES,
                         ids=[f"{entry}-{value!r}" for entry, value in REFUSED_CASES])
def test_every_entry_point_refuses_a_count_that_is_not_one(entry, value):
    name, high, enter = ENTRY_POINTS[entry]
    span = "of at least 1" if high is None else "in [0, 2^64)"
    message = f"{name} must be an integer {span}, got {value!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        enter(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [np.int64(3), np.uint64(3), np.int32(3), 3],
                         ids=["int64", "uint64", "int32", "int"])
def test_every_entry_point_keeps_a_numpy_integer_as_an_int(entry, value):
    kept = ENTRY_POINTS[entry][2](value)
    assert kept == 3 and type(kept) is int


@pytest.mark.parametrize("entry", [e for e, (_, high, _) in ENTRY_POINTS.items() if high])
def test_seeds_and_stream_indices_reach_2_to_the_64_minus_1(entry):
    assert ENTRY_POINTS[entry][2](np.uint64(2**64 - 1)) == 2**64 - 1


@pytest.mark.parametrize("text, shown", [("true", "'true'"), ("1.5", "'1.5'"), ("2.0", "'2.0'"),
                                         ("-1", "-1"), ("0", "0")])
def test_worker_count_environment_follows_the_same_rule(monkeypatch, text, shown):
    monkeypatch.setenv("CRNOMA_WORKERS", text)
    message = f"CRNOMA_WORKERS must be an integer of at least 1, got {shown}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        estimator._worker_count(None)
    monkeypatch.setenv("CRNOMA_WORKERS", " 3 ")
    assert estimator._worker_count(None) == 3


def test_numpy_integers_draw_the_gains_of_their_ints():
    ints = GainStream(5, 1).gains(64)
    for n in (64, np.int64(64), np.uint64(64), np.int32(64)):
        numpy_ints = GainStream(np.uint64(5), np.int64(1)).gains(n)
        assert all(np.array_equal(a, b) for a, b in zip(ints, numpy_ints))


@pytest.mark.parametrize("value", [True, 1.5, "2", -1], ids=repr)
def test_gains_refuses_a_draw_count_that_is_not_one(value):
    message = f"n must be an integer of at least 0, got {value!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        GainStream(5, 1).gains(value)


def test_gains_of_no_draws_are_two_empty_arrays():
    g0, g1 = GainStream(5, 1).gains(0)
    assert g0.shape == g1.shape == (0,)


def test_save_spec_round_trips_numpy_counts(tmp_path):
    spec = SweepSpec(**{**CONFIG, "n_samples": np.int64(2000), "seed": np.uint64(5),
                        "stream_count": np.int32(4)})
    assert (spec.n_samples, spec.seed, spec.stream_count) == (2000, 5, 4)
    assert load_spec(save_spec(spec, tmp_path / "spec.json")) == spec


class TestSpecConversion:
    def test_direct_spec_equals_the_config_spec_and_renders_its_bytes(self):
        direct = SweepSpec(**CONFIG)  # tokens and int axis values, in lists
        from_config = SweepSpec.from_dict(json.loads(json.dumps(CONFIG)))
        assert direct == from_config
        assert direct.axis_values == (10.0, 12.0) and all(type(v) is float for v in direct.axis_values)
        assert direct.schemes == (SchemeId.RS, SchemeId.CSI_SIC)
        assert direct.metrics == (Metric.OUTAGE_TOTAL, Metric.ADMISSION)
        direct_csv, config_csv = (render(run_sweep(s, workers=1), "csv") for s in (direct, from_config))
        assert direct_csv == config_csv

    @pytest.mark.parametrize("change, message", [
        ({"schemes": ["rs", "csi-sic", "rs"]}, "schemes lists ['rs'] more than once"),
        ({"schemes": [SchemeId.RS, "rs"]}, "schemes lists ['rs'] more than once"),
        ({"metrics": ["outage-total", "outage-total", "admission", "admission"]},
         "metrics lists ['outage-total', 'admission'] more than once"),
    ])
    def test_repeated_schemes_or_metrics_are_refused(self, change, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SweepSpec.from_dict({**CONFIG, **change})
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SweepSpec(**{**CONFIG, **change})

    @pytest.mark.parametrize("change, message", [
        ({"schemes": ["rs", "bogus"]}, "bad sweep config: 'bogus' is not a valid SchemeId"),
        ({"metrics": ("outage",)}, "bad sweep config: 'outage' is not a valid Metric"),
        ({"axis_values": [10, "x"]}, "bad sweep config: axis_values must be a number, got 'x'"),
        ({"schemes": []}, "schemes and metrics must be nonempty"),
        ({"axis_values": "05"}, "axis_values must be a list, not the string '05'"),
        ({"schemes": "rs"}, "schemes must be a list, not the string 'rs'"),
        ({"metrics": "outage-total"}, "metrics must be a list, not the string 'outage-total'"),
        ({"axis_values": [10, "12"]}, "bad sweep config: axis_values must be a number, got '12'"),
    ])
    def test_a_direct_spec_is_checked_like_a_config(self, change, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SweepSpec(**{**CONFIG, **change})
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SweepSpec.from_dict({**CONFIG, **change})

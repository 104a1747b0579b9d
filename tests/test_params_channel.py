import copy
import dataclasses
import inspect
import math
import pickle
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import crnoma.params
from crnoma import (
    AnalyticReport,
    CaseLabel,
    ChannelRealization,
    GainStream,
    Metric,
    OutageEstimate,
    ParameterError,
    RsDecision,
    SamplerConfig,
    SchemeId,
    SweepRow,
    SystemParams,
    TransmissionOutcome,
    analytic_report,
    case_ii_outage_quadrature,
    conditional_case_ii_outage,
    db_to_linear,
    delay_limited_throughput,
    evaluate_outcome,
    rs_decide,
)
from crnoma import analytic, estimator, experiments, strategy
from crnoma.experiments import CellFailure
from crnoma.params import _slot_init


class TestDerivedConstants:
    def test_rate_two_gives_eps_three(self):
        p = SystemParams(p0=1.0, p1=10.0, r0_hat=2.0, r1_hat=1.0)
        assert p.eps0 == 3.0

    def test_rate_one_gives_eps_one(self):
        p = SystemParams(p0=1.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        assert p.eps0 == 1.0
        assert p.eps1 == 1.0

    def test_eta_is_eps_over_power(self):
        p = SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        assert p.eta0 == pytest.approx(0.3, abs=1e-15)
        assert p.eta1 == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("bad", [
        dict(p0=0.0), dict(p0=-1.0), dict(p1=float("nan")), dict(p1=float("inf")),
        dict(r0_hat=0.0), dict(r1_hat=-0.5),
    ])
    def test_invalid_fields_raise(self, bad):
        fields = dict(p0=1.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        fields.update(bad)
        with pytest.raises(ParameterError):
            SystemParams(**fields)

    @pytest.mark.parametrize("name, bad", [
        ("p0", "x"), ("p1", None), ("r0_hat", [1.0]), ("r1_hat", 10**400), ("p0", True),
        ("p0", "10"), ("r1_hat", " 1.5 "), ("p1", b"1"),
    ], ids=["str", "none", "list", "huge-int", "bool", "numeric-str", "padded-str", "bytes"])
    def test_non_numeric_field_names_the_field(self, name, bad):
        fields = dict(p0=1.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        fields[name] = bad
        with pytest.raises(ParameterError, match=f"^{name} must be a number"):
            SystemParams(**fields)

    @pytest.mark.parametrize("name, bad", [("g0", "abc"), ("g1", None), ("g0", "1.5"), ("g1", "inf")])
    def test_non_numeric_gain_names_the_field(self, name, bad):
        gains = dict(g0=1.0, g1=1.0)
        gains[name] = bad
        with pytest.raises(ParameterError, match=f"^{name} must be a number"):
            ChannelRealization(**gains)

    def test_overflowing_rate_raises(self):
        with pytest.raises(ParameterError):
            SystemParams(p0=1.0, p1=1.0, r0_hat=2000.0, r1_hat=1.0)

    @pytest.mark.parametrize("rates, message", [
        ((2000.0, 1.0), "target rate too large: r0_hat = 2000.0"),
        ((1.0, 1024.0), "target rate too large: r1_hat = 1024.0"),
        ((1e-300, 1.0), "target rate too small: r0_hat = 1e-300 rounds 2^r0_hat - 1 to 0.0"),
        ((1.0, 1e-17), "target rate too small: r1_hat = 1e-17 rounds 2^r1_hat - 1 to 0.0"),
    ])
    def test_rate_derivation_error_names_the_rate(self, rates, message):
        for _ in range(2):  # the constants are derived as the params are built, every time
            with pytest.raises(ParameterError) as exc:
                SystemParams(p0=1.0, p1=1.0, r0_hat=rates[0], r1_hat=rates[1])
            assert str(exc.value) == message

    def test_negative_gain_raises(self):
        with pytest.raises(ParameterError):
            ChannelRealization(g0=-0.1, g1=1.0)


def _thresholds(p: SystemParams) -> tuple:
    return p.eps0, p.eps1, p.eta0, p.eta1


class TestConstantsMemo:
    """A SystemParams derives its thresholds once, when it is built, and holds them."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        """(name, rate) of every threshold computed: a derivation computes r0_hat's, then r1_hat's."""
        calls = []
        threshold = crnoma.params._sinr_threshold

        def counting(name, rate):
            calls.append((name, rate))
            return threshold(name, rate)

        monkeypatch.setattr(crnoma.params, "_sinr_threshold", counting)
        return calls

    def test_failing_derivation_raises_every_call(self, derivations):
        for _ in range(3):  # no instance exists to keep anything, so each attempt derives and raises
            with pytest.raises(ParameterError) as exc:
                SystemParams(p0=1.0, p1=1.0, r0_hat=2000.0, r1_hat=1.0)
            assert str(exc.value) == "target rate too large: r0_hat = 2000.0"
        assert derivations == [("r0_hat", 2000.0)] * 3

    def test_replace_gets_fresh_constants(self, derivations):
        p = SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0)
        same = dataclasses.replace(p)
        assert same is not p and _thresholds(same) == _thresholds(p)
        other = dataclasses.replace(p, r0_hat=2.0)
        assert other.eps0 == 3.0 and other.eps1 == p.eps1 and other.eta0 == 0.3
        assert derivations == [("r0_hat", 1.0), ("r1_hat", 1.0)] * 2 + [("r0_hat", 2.0), ("r1_hat", 1.0)]

    def test_identity_of_params_unchanged_by_memo(self):
        p = SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        fresh = SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        assert p == fresh and hash(p) == hash(fresh)
        assert repr(p) == repr(fresh) == "SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)"
        assert [f.name for f in dataclasses.fields(p)] == ["p0", "p1", "r0_hat", "r1_hat"]
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p) and repr(back) == repr(p)
        assert _thresholds(back) == _thresholds(p)

    def test_thresholds_are_read_only(self):
        p = SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        for name in ("eps0", "eps1", "eta0", "eta1"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(p, name)
        assert _thresholds(p) == (3.0, 1.0, 0.3, 0.2)

    @pytest.mark.parametrize("rates", [(0.5, 1.0), (2.0, 0.5), (1e-12, 30.0), (1e-15, 3.0)],
                             ids=["grid", "grid-swapped", "tiny-and-large", "near-refusal"])
    def test_thresholds_are_the_formula_bit_for_bit(self, rates):
        for p0_db, p1_db in [(-30.0, 30.0), (0.0, 0.0), (17.5, 3.25)]:
            p0, p1 = db_to_linear(p0_db), db_to_linear(p1_db)
            p = SystemParams(p0=p0, p1=p1, r0_hat=rates[0], r1_hat=rates[1])
            eps0, eps1 = 2.0 ** rates[0] - 1.0, 2.0 ** rates[1] - 1.0
            assert list(map(repr, _thresholds(p))) == list(map(repr, (eps0, eps1, eps0 / p0, eps1 / p1)))

    def test_thresholds_are_neither_fields_nor_arguments(self):
        fields = dict(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        p = SystemParams(**fields)
        for name in ("eps0", "eps1", "eta0", "eta1"):
            with pytest.raises(TypeError):
                SystemParams(**fields, **{name: 3.0})
            with pytest.raises(TypeError):
                dataclasses.replace(p, **{name: 3.0})
        assert dataclasses.asdict(p) == fields and dataclasses.astuple(p) == (10.0, 5.0, 2.0, 1.0)
        assert list(inspect.signature(SystemParams).parameters) == list(fields)

    def test_copies_keep_the_thresholds(self):
        p = SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        for twin in (copy.copy(p), copy.deepcopy(p), dataclasses.replace(p)):
            assert twin == p and hash(twin) == hash(p)
            assert _thresholds(twin) == _thresholds(p) == (3.0, 1.0, 0.3, 0.2)
            with pytest.raises(dataclasses.FrozenInstanceError):
                twin.eps0 = 1.0

    def test_integer_fields_give_float_thresholds(self):
        ints = SystemParams(p0=10, p1=5, r0_hat=2, r1_hat=1)
        floats = SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        assert ints == floats and hash(ints) == hash(floats)
        assert [type(t) for t in _thresholds(ints)] == [float] * 4
        assert _thresholds(ints) == _thresholds(floats)

    def test_threads_see_equal_constants(self):
        # Monte Carlo shards share one SystemParams across worker threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(50):
                p = SystemParams(p0=1.0 + k, p1=2.0, r0_hat=1.0, r1_hat=0.5)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    seen = list(pool.map(lambda _: _thresholds(p), range(8), timeout=10))
                assert all(c == seen[0] for c in seen)
                assert _thresholds(p) == seen[0]
        finally:
            sys.setswitchinterval(interval)

    def test_one_derivation_per_params_across_layers(self, derivations):
        p = SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0)
        for scheme in (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC):
            analytic_report(scheme, p)
            conditional_case_ii_outage(scheme, p)
            delay_limited_throughput(scheme, p)
        case_ii_outage_quadrature(p)
        chan = ChannelRealization(g0=0.7, g1=1.3)
        for k in range(20):
            evaluate_outcome(tuple(SchemeId)[k % len(SchemeId)], p, chan)
        assert derivations == [("r0_hat", 1.0), ("r1_hat", 1.0)]  # the one made as p was built


# positional arguments of each type built by _slot_init; ChannelRealization's ints become floats
_SLOT_INIT_ARGS = {
    ChannelRealization: (2, 0.5),
    RsDecision: (CaseLabel.II, 0.25, 1.5, 0.5, 1.25, 1.75, True),
    TransmissionOutcome: (SchemeId.RS, False, 1.5, False, CaseLabel.I),
    AnalyticReport: (SchemeId.NH_SIC, 0.1, 0.2, 0.3, 0.6, 0.5),
    OutageEstimate: (SchemeId.RS, Metric.OUTAGE_TOTAL, 0.5, 0.01, 0.48, 0.52, 1000),
    SweepRow: (10.0, SchemeId.RS, Metric.OUTAGE_TOTAL, "MONTE_CARLO", 0.5, 0.01),
    CellFailure: (10.0, SchemeId.CSI_SIC, Metric.OUTAGE_TOTAL, "ANALYTIC", "no closed form"),
}


def _twin(cls: type) -> type:
    """cls as dataclass alone builds it: the same fields, defaults and __post_init__, its own __init__."""
    fields = dataclasses.fields(cls)
    namespace = {"__annotations__": {f.name: f.type for f in fields}, "__module__": cls.__module__}
    namespace.update((f.name, f.default) for f in fields if f.default is not dataclasses.MISSING)
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))


def _stored(value) -> list:
    """Each field's value with its type, since 2 == 2.0."""
    return [(type(v), v) for v in (getattr(value, f.name) for f in dataclasses.fields(value))]


def _slotted_values() -> list:
    params = SystemParams(p0=10.0, p1=20.0, r0_hat=1.0, r1_hat=2.0)
    chan = ChannelRealization(g0=1.5, g1=0.5)
    return [
        analytic_report(SchemeId.QOS_SIC, params),
        rs_decide(params, chan),
        chan,
        OutageEstimate(SchemeId.RS, Metric.OUTAGE_TOTAL, 0.1, 0.01, 0.08, 0.12, 1000),
        SweepRow(10.0, SchemeId.RS, Metric.OUTAGE_TOTAL, "MONTE_CARLO", 0.1, 0.01),
        CellFailure(10.0, SchemeId.CSI_SIC, Metric.OUTAGE_TOTAL, "ANALYTIC", "csi-sic has no closed form"),
        evaluate_outcome(SchemeId.RS, params, chan),
    ]


class TestSlottedValueTypes:
    """The frozen value types carry __slots__ and behave as before otherwise."""

    def test_every_type_is_covered(self):
        assert {type(v) for v in _slotted_values()} == {
            AnalyticReport, RsDecision, ChannelRealization,
            OutageEstimate, SweepRow, CellFailure, TransmissionOutcome}

    @pytest.mark.parametrize("value", _slotted_values(), ids=lambda v: type(v).__name__)
    def test_copies_are_equal_with_equal_hash(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and twin is not value
            assert hash(twin) == hash(value)

    @pytest.mark.parametrize("value", _slotted_values(), ids=lambda v: type(v).__name__)
    def test_frozen_and_without_dict(self, value):
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            vars(value)

    @pytest.mark.parametrize("gains, message", [
        (dict(g0=-0.1, g1=1.0), "g0 must be finite and >= 0, got -0.1"),
        (dict(g0=1.0, g1=float("inf")), "g1 must be finite and >= 0, got inf"),
        (dict(g0=float("nan"), g1=1.0), "g0 must be finite and >= 0, got nan"),
        (dict(g0="abc", g1=1.0), "g0 must be a number, got 'abc'"),
        (dict(g0=1.0, g1=None), "g1 must be a number, got None"),
        (dict(g0=True, g1=1.0), "g0 must be a number, got True"),
    ])
    def test_channel_realization_messages(self, gains, message):
        # by keyword and by position, and as the dataclass's own __init__ words them
        for cls in (ChannelRealization, _twin(ChannelRealization)):
            for args, kwargs in (((), gains), (tuple(gains.values()), {})):
                with pytest.raises(ParameterError) as exc:
                    cls(*args, **kwargs)
                assert str(exc.value) == message

    def test_channel_realization_stores_floats(self):
        chan = ChannelRealization(g0=2, g1=3)
        assert (type(chan.g0), type(chan.g1)) == (float, float)
        assert (chan.g0, chan.g1) == (2.0, 3.0)


@pytest.mark.parametrize("cls", list(_SLOT_INIT_ARGS), ids=lambda cls: cls.__name__)
class TestSlotInit:
    """_slot_init's __init__ builds what the dataclass's own builds, and changes nothing else."""

    def test_construction_equals_the_dataclass_init(self, cls):
        twin, args = _twin(cls), _SLOT_INIT_ARGS[cls]
        kwargs = {f.name: a for f, a in zip(dataclasses.fields(cls), args)}
        required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
        for made, reference in [(cls(*args), twin(*args)), (cls(**kwargs), twin(**kwargs)),
                                (cls(*args[:required]), twin(*args[:required])),
                                (cls(**dict(list(kwargs.items())[:required])), twin(*args[:required]))]:
            assert type(made) is cls and _stored(made) == _stored(reference)
            assert repr(made) == repr(reference) and hash(made) == hash(reference)
        assert cls(*args) == cls(**kwargs)

    def test_signature_is_the_dataclass_init(self, cls):
        # names, kinds, defaults and annotations
        assert inspect.signature(cls) == inspect.signature(_twin(cls))

    def test_frozen_and_replaced_field_by_field(self, cls):
        # pickling, copies and hashes: TestSlottedValueTypes
        value = cls(*_SLOT_INIT_ARGS[cls])
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
            copied = dataclasses.replace(value, **{f.name: getattr(value, f.name)})
            assert copied == value and copied is not value and hash(copied) == hash(value)

    def test_stores_through_the_slots(self, cls):
        setters = {f"_set_{f.name}" for f in dataclasses.fields(cls)}
        assert setters <= set(cls.__init__.__code__.co_freevars)
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_slot_init_covers_every_frozen_slotted_type():
    found = {obj for module in (crnoma.params, strategy, analytic, estimator, experiments)
             for obj in vars(module).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)
             and obj.__dataclass_params__.frozen and "__slots__" in obj.__dict__}
    assert found == set(_SLOT_INIT_ARGS)


@pytest.mark.parametrize("decorate", [
    dataclasses.dataclass(frozen=True),
    dataclasses.dataclass(frozen=True, slots=True, kw_only=True),
], ids=["no-slots", "keyword-only"])
def test_slot_init_refuses_what_it_cannot_rebuild(decorate):
    cls = decorate(type("Pair", (), {"__annotations__": {"a": "float", "b": "float"}}))
    with pytest.raises(TypeError):
        _slot_init(cls)


def test_db_round_trip():
    assert db_to_linear(10.0) == pytest.approx(10.0)


class TestSamplerConfig:
    def test_rejects_bad_seed(self):
        with pytest.raises(ParameterError):
            SamplerConfig(seed=-1)
        with pytest.raises(ParameterError):
            SamplerConfig(seed=2**64)
        with pytest.raises(ParameterError, match="seed"):
            SamplerConfig(seed=True)

    def test_rejects_bad_stream_count(self):
        with pytest.raises(ParameterError):
            SamplerConfig(seed=1, stream_count=0)
        with pytest.raises(ParameterError, match="stream_count"):
            SamplerConfig(seed=1, stream_count=True)


class TestGainDistribution:
    def test_unit_mean(self):
        g0, g1 = GainStream(seed=101, stream_index=0).gains(1_000_000)
        assert abs(g0.mean() - 1.0) < 0.01
        assert abs(g1.mean() - 1.0) < 0.01

    def test_exponential_tail_at_one(self):
        g0, _ = GainStream(seed=102, stream_index=0).gains(1_000_000)
        assert abs((g0 > 1.0).mean() - math.exp(-1.0)) < 0.005

    def test_kolmogorov_smirnov_below_one_percent_critical(self):
        g0, _ = GainStream(seed=103, stream_index=0).gains(100_000)
        d = stats.kstest(g0, "expon").statistic
        # asymptotic 1% critical value for n = 1e5
        assert d < 1.6276 / math.sqrt(100_000)

    def test_gain_pair_uncorrelated(self):
        g0, g1 = GainStream(seed=104, stream_index=0).gains(1_000_000)
        assert abs(np.corrcoef(g0, g1)[0, 1]) < 0.01

    def test_gains_nonnegative(self):
        g0, g1 = GainStream(seed=105, stream_index=0).gains(100_000)
        assert g0.min() >= 0.0 and g1.min() >= 0.0


class TestReproducibility:
    def test_same_seed_same_draws(self):
        a0, a1 = GainStream(seed=7, stream_index=3).gains(1000)
        b0, b1 = GainStream(seed=7, stream_index=3).gains(1000)
        assert np.array_equal(a0, b0) and np.array_equal(a1, b1)

    @pytest.mark.parametrize("seed", [0, 7, 12_345])
    @pytest.mark.parametrize("m", [1, 7, 62_500, 1 << 20])
    def test_in_place_transform_equals_the_plain_expression(self, seed, m):
        g0, g1 = GainStream(seed=seed, stream_index=2).gains(m)
        u = np.random.Generator(np.random.Philox(key=[seed, 2])).random((m, 2))
        assert g0.tobytes() == (-np.log1p(-u[:, 0])).tobytes()  # bit for bit
        assert g1.tobytes() == (-np.log1p(-u[:, 1])).tobytes()
        assert g0.flags.c_contiguous and g1.flags.c_contiguous

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**53 + 1, 2**62 + 3, 2**63 - 1])
    @pytest.mark.parametrize("stream", [0, 15])
    def test_seeds_below_2_63_keep_their_draws(self, seed, stream):
        # the Philox key numpy made of the list [seed, stream], exact below 2^63
        u = np.random.Generator(np.random.Philox(key=[seed, stream])).random((1000, 2))
        g0, g1 = GainStream(seed=seed, stream_index=stream).gains(1000)
        assert g0.tobytes() == (-np.log1p(-u[:, 0])).tobytes()
        assert g1.tobytes() == (-np.log1p(-u[:, 1])).tobytes()

    def test_seeds_at_and_above_2_63_draw_apart(self):
        # as a float64 key, 2^63 and 2^63 + 1 were one seed, and 2^64 - 1 warned on the cast
        seeds = (2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = {GainStream(seed=seed, stream_index=15).gains(1000)[0].tobytes() for seed in seeds}
        assert len(draws) == len(seeds)

    def test_streams_differ(self):
        a0, _ = GainStream(seed=7, stream_index=0).gains(1000)
        b0, _ = GainStream(seed=7, stream_index=1).gains(1000)
        assert not np.array_equal(a0, b0)

    def test_cross_stream_independence(self):
        # adjacent substreams of one seed should look jointly independent
        a0, _ = GainStream(seed=21, stream_index=0).gains(1_000_000)
        b0, _ = GainStream(seed=21, stream_index=1).gains(1_000_000)
        assert abs(np.corrcoef(a0, b0)[0, 1]) < 0.01

import copy
import dataclasses
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import crnoma.params
from crnoma import (
    AnalyticReport,
    ChannelRealization,
    DerivedConstants,
    GainStream,
    HighSnrApprox,
    Metric,
    OutageEstimate,
    ParameterError,
    RsDecision,
    SamplerConfig,
    SchemeId,
    SweepRow,
    SystemParams,
    analytic_report,
    case_ii_outage_quadrature,
    conditional_case_ii_outage,
    db_to_linear,
    delay_limited_throughput,
    derive_constants,
    evaluate_outcome,
    rs_decide,
    rs_high_snr,
)
from crnoma.experiments import CellFailure


class TestDerivedConstants:
    def test_rate_two_gives_eps_three(self):
        c = derive_constants(SystemParams(p0=1.0, p1=10.0, r0_hat=2.0, r1_hat=1.0))
        assert c.eps0 == 3.0

    def test_rate_one_gives_eps_one(self):
        c = derive_constants(SystemParams(p0=1.0, p1=1.0, r0_hat=1.0, r1_hat=1.0))
        assert c.eps0 == 1.0
        assert c.eps1 == 1.0

    def test_eta_is_eps_over_power(self):
        c = derive_constants(SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0))
        assert c.eta0 == pytest.approx(0.3, abs=1e-15)
        assert c.eta1 == pytest.approx(0.2, abs=1e-15)

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
    ], ids=["str", "none", "list", "huge-int", "bool"])
    def test_non_numeric_field_names_the_field(self, name, bad):
        fields = dict(p0=1.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        fields[name] = bad
        with pytest.raises(ParameterError, match=f"^{name} must be a number"):
            SystemParams(**fields)

    @pytest.mark.parametrize("name, bad", [("g0", "abc"), ("g1", None)])
    def test_non_numeric_gain_names_the_field(self, name, bad):
        gains = dict(g0=1.0, g1=1.0)
        gains[name] = bad
        with pytest.raises(ParameterError, match=f"^{name} must be a number"):
            ChannelRealization(**gains)

    def test_overflowing_rate_raises(self):
        with pytest.raises(ParameterError):
            derive_constants(SystemParams(p0=1.0, p1=1.0, r0_hat=2000.0, r1_hat=1.0))

    def test_negative_gain_raises(self):
        with pytest.raises(ParameterError):
            ChannelRealization(g0=-0.1, g1=1.0)


class TestConstantsMemo:
    """derive_constants derives once per SystemParams instance and reuses the result."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []
        derive = crnoma.params._derive_constants

        def counting(params):
            calls.append(params)
            return derive(params)

        monkeypatch.setattr(crnoma.params, "_derive_constants", counting)
        return calls

    def test_repeated_calls_return_same_object(self, derivations):
        p = SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0)
        assert derive_constants(p) is derive_constants(p)
        assert len(derivations) == 1

    def test_failing_derivation_raises_every_call(self, derivations):
        p = SystemParams(p0=1.0, p1=1.0, r0_hat=2000.0, r1_hat=1.0)
        for _ in range(3):
            with pytest.raises(ParameterError):
                derive_constants(p)
        assert len(derivations) == 3

    def test_replace_gets_fresh_constants(self):
        p = SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0)
        c = derive_constants(p)
        same = dataclasses.replace(p)
        assert derive_constants(same) is not c and derive_constants(same) == c
        other = derive_constants(dataclasses.replace(p, r0_hat=2.0))
        assert other.eps0 == 3.0 and other.eps1 == c.eps1

    def test_identity_of_params_unchanged_by_memo(self):
        p = SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        fresh = SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)
        c = derive_constants(p)
        assert p == fresh and hash(p) == hash(fresh)
        assert repr(p) == repr(fresh) == "SystemParams(p0=10.0, p1=5.0, r0_hat=2.0, r1_hat=1.0)"
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p) and repr(back) == repr(p)
        assert derive_constants(back) == c

    def test_threads_see_equal_constants(self):
        # Monte Carlo shards share one SystemParams across worker threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(50):
                p = SystemParams(p0=1.0 + k, p1=2.0, r0_hat=1.0, r1_hat=0.5)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    seen = list(pool.map(lambda _: derive_constants(p), range(8), timeout=10))
                assert all(c == seen[0] for c in seen)
                assert derive_constants(p) == seen[0]
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
        assert derivations == [p]


def _slotted_values() -> list:
    params = SystemParams(p0=10.0, p1=20.0, r0_hat=1.0, r1_hat=2.0)
    chan = ChannelRealization(g0=1.5, g1=0.5)
    return [
        analytic_report(SchemeId.QOS_SIC, params),
        rs_high_snr(params),
        rs_decide(params, chan),
        derive_constants(params),
        chan,
        OutageEstimate(SchemeId.RS, Metric.OUTAGE_TOTAL, 0.1, 0.01, 0.08, 0.12, 1000),
        SweepRow(10.0, SchemeId.RS, Metric.OUTAGE_TOTAL, "MONTE_CARLO", 0.1, 0.01),
        CellFailure(10.0, SchemeId.CSI_SIC, Metric.OUTAGE_TOTAL, "ANALYTIC", "csi-sic has no closed form"),
    ]


class TestSlottedValueTypes:
    """The frozen value types carry __slots__ and behave as before otherwise."""

    def test_every_type_is_covered(self):
        assert {type(v) for v in _slotted_values()} == {
            AnalyticReport, HighSnrApprox, RsDecision, DerivedConstants, ChannelRealization,
            OutageEstimate, SweepRow, CellFailure}

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
        with pytest.raises(ParameterError) as exc:
            ChannelRealization(**gains)
        assert str(exc.value) == message

    def test_channel_realization_stores_floats(self):
        chan = ChannelRealization(g0=2, g1=3)
        assert (type(chan.g0), type(chan.g1)) == (float, float)
        assert (chan.g0, chan.g1) == (2.0, 3.0)


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

    def test_streams_differ(self):
        a0, _ = GainStream(seed=7, stream_index=0).gains(1000)
        b0, _ = GainStream(seed=7, stream_index=1).gains(1000)
        assert not np.array_equal(a0, b0)

    def test_cross_stream_independence(self):
        # adjacent substreams of one seed should look jointly independent
        a0, _ = GainStream(seed=21, stream_index=0).gains(1_000_000)
        b0, _ = GainStream(seed=21, stream_index=1).gains(1_000_000)
        assert abs(np.corrcoef(a0, b0)[0, 1]) < 0.01

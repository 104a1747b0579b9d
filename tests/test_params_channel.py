import math

import numpy as np
import pytest
from scipy import stats

from crnoma import (
    ChannelRealization,
    GainStream,
    ParameterError,
    SamplerConfig,
    SystemParams,
    db_to_linear,
    derive_constants,
    linear_to_db,
)


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

    def test_overflowing_rate_raises(self):
        with pytest.raises(ParameterError):
            derive_constants(SystemParams(p0=1.0, p1=1.0, r0_hat=2000.0, r1_hat=1.0))

    def test_negative_gain_raises(self):
        with pytest.raises(ParameterError):
            ChannelRealization(g0=-0.1, g1=1.0)


def test_db_round_trip():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert linear_to_db(db_to_linear(13.7)) == pytest.approx(13.7)


class TestSamplerConfig:
    def test_rejects_bad_seed(self):
        with pytest.raises(ParameterError):
            SamplerConfig(seed=-1)
        with pytest.raises(ParameterError):
            SamplerConfig(seed=2**64)

    def test_rejects_bad_stream_count(self):
        with pytest.raises(ParameterError):
            SamplerConfig(seed=1, stream_count=0)


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

    def test_streams_differ(self):
        a0, _ = GainStream(seed=7, stream_index=0).gains(1000)
        b0, _ = GainStream(seed=7, stream_index=1).gains(1000)
        assert not np.array_equal(a0, b0)

    def test_cross_stream_independence(self):
        # adjacent substreams of one seed should look jointly independent
        a0, _ = GainStream(seed=21, stream_index=0).gains(1_000_000)
        b0, _ = GainStream(seed=21, stream_index=1).gains(1_000_000)
        assert abs(np.corrcoef(a0, b0)[0, 1]) < 0.01

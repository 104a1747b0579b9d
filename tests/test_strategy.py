import copy
import dataclasses
import functools
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crnoma import (
    CaseLabel,
    ChannelRealization,
    GainStream,
    ParameterError,
    SchemeId,
    SystemParams,
    TransmissionOutcome,
    UnknownSchemeError,
    benchmark_rate_nh_sic,
    benchmark_rate_qos_sic,
    evaluate_outcome,
    received_sinrs,
    rs_decide,
    tally_population,
)
from crnoma import strategy
from crnoma.cli import main

# the two worked scenarios: (p0, p1, g0, g1) with r0_hat = 2 so eps0 = 3
SCENARIO_ONE = (SystemParams(p0=1.0, p1=10.0, r0_hat=2.0, r1_hat=4.0),
                ChannelRealization(g0=10.0, g1=10.0))
SCENARIO_TWO = (SystemParams(p0=10.0, p1=20.0, r0_hat=2.0, r1_hat=4.0),
                ChannelRealization(g0=10.0, g1=10.0))

powers = st.floats(min_value=0.05, max_value=1e4)
rates = st.floats(min_value=0.1, max_value=6.0)
gains = st.floats(min_value=0.0, max_value=50.0)


def random_inputs():
    return st.tuples(powers, powers, rates, rates, gains, gains).map(
        lambda t: (SystemParams(p0=t[0], p1=t[1], r0_hat=t[2], r1_hat=t[3]),
                   ChannelRealization(g0=t[4], g1=t[5])))


class TestInterferenceThreshold:
    def test_scenario_one(self):
        params, chan = SCENARIO_ONE
        assert rs_decide(params, chan).tau == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_scenario_two(self):
        params, chan = SCENARIO_TWO
        assert rs_decide(params, chan).tau == pytest.approx(97.0 / 3.0, rel=1e-14)

    def test_clamps_to_zero(self):
        params = SystemParams(p0=1.0, p1=1.0, r0_hat=2.0, r1_hat=1.0)
        assert rs_decide(params, ChannelRealization(g0=2.9, g1=1.0)).tau == 0.0  # p0*g0 < eps0


class TestReceivedSinrs:
    def test_alpha_one_kills_gamma12(self):
        params, chan = SCENARIO_ONE
        _, _, gamma12 = received_sinrs(params, chan, alpha=1.0)
        assert gamma12 == 0.0

    def test_alpha_zero_kills_gamma11(self):
        params, chan = SCENARIO_ONE
        gamma11, gamma0, _ = received_sinrs(params, chan, alpha=0.0)
        assert gamma11 == 0.0
        assert gamma0 == pytest.approx(10.0 / 101.0, rel=1e-14)

    def test_case_ii_power_split_pins_primary_sinr(self):
        # alpha chosen so the x12 stream carries exactly tau of received power
        params, chan = SCENARIO_ONE
        alpha = 1.0 - (7.0 / 3.0) / 100.0
        gamma11, gamma0, gamma12 = received_sinrs(params, chan, alpha)
        assert gamma12 == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert gamma0 == pytest.approx(3.0, rel=1e-12)          # equals eps0
        assert gamma11 == pytest.approx(293.0 / 40.0, rel=1e-12)

    def test_alpha_out_of_range_raises(self):
        params, chan = SCENARIO_ONE
        with pytest.raises(ValueError):
            received_sinrs(params, chan, alpha=1.5)


class TestRsDecide:
    def test_scenario_one_rates(self):
        params, chan = SCENARIO_ONE
        d = rs_decide(params, chan)
        assert d.case_label is CaseLabel.II
        assert d.alpha == pytest.approx(1.0 - (7.0 / 3.0) / 100.0, rel=1e-14)
        assert d.r1_total == pytest.approx(4.794415866350106, abs=1e-12)
        assert d.r1_total == pytest.approx(d.r11 + d.r12, abs=1e-12)
        assert d.transmits  # 4.794 >= 4

    def test_scenario_two_rates(self):
        params, chan = SCENARIO_TWO
        d = rs_decide(params, chan)
        assert d.case_label is CaseLabel.II
        assert d.r1_total == pytest.approx(6.233619676759702, abs=1e-12)

    def test_case_iii_when_threshold_zero(self):
        params = SystemParams(p0=1.0, p1=10.0, r0_hat=2.0, r1_hat=1.0)
        d = rs_decide(params, ChannelRealization(g0=1.0, g1=5.0))  # p0*g0 = 1 < 3
        assert d.case_label is CaseLabel.III
        assert d.alpha == 1.0
        assert d.transmits
        assert d.r1_total == pytest.approx(math.log2(1.0 + 50.0 / 2.0), rel=1e-14)

    def test_case_i_when_below_threshold(self):
        params = SystemParams(p0=1.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        d = rs_decide(params, ChannelRealization(g0=10.0, g1=2.0))  # tau = 9 >= p1*g1
        assert d.case_label is CaseLabel.I
        assert d.alpha == 0.0
        assert d.r11 == 0.0
        assert d.r1_total == pytest.approx(math.log2(3.0), rel=1e-14)

    def test_silence_when_case_ii_rate_misses_target(self):
        params = SystemParams(p0=10.0, p1=1.0, r0_hat=1.0, r1_hat=5.0)
        chan = ChannelRealization(g0=2.0, g1=19.5)  # tau = 19, case II, low rate
        d = rs_decide(params, chan)
        assert d.case_label is CaseLabel.II
        assert d.r1_total < params.r1_hat
        assert not d.transmits


class TestBenchmarkRates:
    def test_scenario_one(self):
        params, chan = SCENARIO_ONE
        assert benchmark_rate_qos_sic(params, chan) == pytest.approx(3.334984247712809, abs=1e-12)
        assert benchmark_rate_nh_sic(params, chan) == pytest.approx(3.334984247712809, abs=1e-12)

    def test_scenario_two(self):
        params, chan = SCENARIO_TWO
        assert benchmark_rate_qos_sic(params, chan) == pytest.approx(1.5754081940079072, abs=1e-12)
        assert benchmark_rate_nh_sic(params, chan) == pytest.approx(5.058893689053568, abs=1e-12)

    def test_zero_gain_gives_zero_rate(self):
        params, _ = SCENARIO_ONE
        assert benchmark_rate_qos_sic(params, ChannelRealization(g0=1.0, g1=0.0)) == 0.0

    def test_nh_equals_qos_when_threshold_zero(self):
        params = SystemParams(p0=1.0, p1=10.0, r0_hat=2.0, r1_hat=1.0)
        chan = ChannelRealization(g0=1.0, g1=3.0)
        assert rs_decide(params, chan).tau == 0.0
        assert benchmark_rate_nh_sic(params, chan) == benchmark_rate_qos_sic(params, chan)

    def test_achieved_rates_are_the_case_ii_rates_outside_case_i(self):
        # bit for bit, so the CLI's baseline lines keep their bytes in cases II and III
        params = SystemParams(p0=2.0, p1=4.0, r0_hat=1.0, r1_hat=1.5)
        g0, g1 = GainStream(314, 1).gains(20_000)
        cases = Counter()
        for a, b in zip(g0, g1):
            chan = ChannelRealization(g0=a, g1=b)
            case = rs_decide(params, chan).case_label
            cases[case] += 1
            if case is CaseLabel.I:
                continue
            for scheme, rate in ((SchemeId.QOS_SIC, benchmark_rate_qos_sic),
                                 (SchemeId.NH_SIC, benchmark_rate_nh_sic)):
                achieved = evaluate_outcome(scheme, params, chan).secondary_rate
                assert achieved.hex() == rate(params, chan).hex()
        assert min(cases.values()) > 1000


class TestEvaluateOutcome:
    def test_rs_scenario_one_no_outage(self):
        params, chan = SCENARIO_ONE
        out = evaluate_outcome(SchemeId.RS, params, chan)
        assert out.secondary_outage is False
        assert out.primary_outage is False
        assert out.case_label is CaseLabel.II

    def test_zero_secondary_gain_is_outage(self):
        params = SystemParams(p0=1.0, p1=10.0, r0_hat=2.0, r1_hat=0.5)
        out = evaluate_outcome(SchemeId.RS, params, ChannelRealization(g0=0.5, g1=0.0))
        assert out.case_label is CaseLabel.III
        assert out.secondary_outage is True
        assert out.secondary_rate == 0.0

    def test_oma_primary_has_no_secondary_fields(self):
        params, chan = SCENARIO_ONE
        out = evaluate_outcome(SchemeId.OMA_PRIMARY, params, chan)
        assert out.secondary_rate is None and out.secondary_outage is None
        assert out.primary_outage is False

    def test_outcome_is_a_value(self):
        params, chan = SCENARIO_ONE
        out = evaluate_outcome(SchemeId.RS, params, chan)
        twin = evaluate_outcome(SchemeId.RS, params, chan)
        assert out == twin and hash(out) == hash(twin)
        assert pickle.loads(pickle.dumps(out)) == out
        flipped = dataclasses.replace(out, secondary_outage=True)
        assert flipped != out and flipped.secondary_rate == out.secondary_rate
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.secondary_outage = True

    def test_primary_outage_is_scheme_independent(self):
        params = SystemParams(p0=1.0, p1=1.0, r0_hat=2.0, r1_hat=1.0)
        chan = ChannelRealization(g0=2.0, g1=1.0)  # p0*g0 = 2 < eps0 = 3
        for scheme in SchemeId:
            assert evaluate_outcome(scheme, params, chan).primary_outage is True

    def test_csi_sic_decodes_stronger_first(self):
        params = SystemParams(p0=1.0, p1=10.0, r0_hat=1.0, r1_hat=1.0)
        chan = ChannelRealization(g0=3.0, g1=2.0)  # p1*g1 = 20 > p0*g0 = 3
        out = evaluate_outcome(SchemeId.CSI_SIC, params, chan)
        assert out.secondary_rate == pytest.approx(math.log2(1.0 + 20.0 / 4.0), rel=1e-14)

    def test_csi_sic_second_stage_needs_primary_decode(self):
        params = SystemParams(p0=10.0, p1=1.0, r0_hat=3.0, r1_hat=0.5)
        chan = ChannelRealization(g0=1.0, g1=5.0)  # u0 stronger, x0 fails (10 < 7*6)
        out = evaluate_outcome(SchemeId.CSI_SIC, params, chan)
        assert out.secondary_outage is True
        assert out.secondary_rate == 0.0

    def test_csi_sic_clean_second_stage(self):
        params = SystemParams(p0=10.0, p1=1.0, r0_hat=1.0, r1_hat=1.0)
        chan = ChannelRealization(g0=10.0, g1=3.0)  # x0 decodable: 100 >= 1*(3+1)
        out = evaluate_outcome(SchemeId.CSI_SIC, params, chan)
        assert out.secondary_rate == pytest.approx(2.0, rel=1e-14)  # log2(1+3)
        assert out.secondary_outage is False

    def test_benchmarks_match_rs_outside_case_ii(self):
        # identical operation in cases I and III: same rate, same outage flag
        params = SystemParams(p0=2.0, p1=4.0, r0_hat=1.0, r1_hat=1.5)
        stream = GainStream(314, 0)
        g0, g1 = stream.gains(100_000)
        checked = 0
        for i in range(g0.size):
            chan = ChannelRealization(g0=g0[i], g1=g1[i])
            rs = evaluate_outcome(SchemeId.RS, params, chan)
            if rs.case_label is CaseLabel.II:
                continue
            for scheme in (SchemeId.QOS_SIC, SchemeId.NH_SIC):
                other = evaluate_outcome(scheme, params, chan)
                assert other.secondary_outage == rs.secondary_outage
                assert other.secondary_rate == rs.secondary_rate
            checked += 1
        assert checked > 10_000


class TestSharedPrimaryOnlyOutcomes:
    """evaluate_outcome returns one of two shared OMA_PRIMARY outcomes, one per primary outage bit."""

    # p0*g0 against eps0 = 3: g0 = 2 is a primary outage, g0 = 10 is not
    REALIZATIONS = {True: (ChannelRealization(g0=2.0, g1=1.0), ChannelRealization(g0=0.0, g1=5.0)),
                    False: (ChannelRealization(g0=10.0, g1=1.0), ChannelRealization(g0=4.0, g1=0.0))}

    @pytest.mark.parametrize("flag", [False, True])
    def test_one_instance_per_primary_bit(self, flag):
        points = (SystemParams(p0=1.0, p1=1.0, r0_hat=2.0, r1_hat=1.0), SCENARIO_ONE[0])
        outcomes = [evaluate_outcome(SchemeId.OMA_PRIMARY, params, chan)
                    for params in points for chan in self.REALIZATIONS[flag]]
        assert all(out is outcomes[0] for out in outcomes)
        other = evaluate_outcome(SchemeId.OMA_PRIMARY, SCENARIO_ONE[0], self.REALIZATIONS[not flag][0])
        assert other is not outcomes[0]

    @pytest.mark.parametrize("flag", [False, True])
    def test_equals_a_freshly_built_outcome(self, flag):
        shared = evaluate_outcome(SchemeId.OMA_PRIMARY, SCENARIO_ONE[0], self.REALIZATIONS[flag][0])
        fresh = TransmissionOutcome(SchemeId.OMA_PRIMARY, flag)
        assert shared is not fresh
        assert shared == fresh and hash(shared) == hash(fresh) and repr(shared) == repr(fresh)
        assert type(shared.primary_outage) is bool
        for twin in (pickle.loads(pickle.dumps(shared)), copy.deepcopy(shared)):
            assert twin == shared and hash(twin) == hash(shared)


class TestInvariants:
    @settings(max_examples=300, deadline=None)
    @given(random_inputs())
    def test_case_partition_exclusive_exhaustive(self, inputs):
        params, chan = inputs
        d = rs_decide(params, chan)
        p1g1 = params.p1 * chan.g1
        conditions = [d.tau > 0 and p1g1 <= d.tau, d.tau > 0 and p1g1 > d.tau, d.tau == 0.0]
        assert sum(conditions) == 1
        assert d.case_label is (CaseLabel.I, CaseLabel.II, CaseLabel.III)[conditions.index(True)]

    @settings(max_examples=300, deadline=None)
    @given(random_inputs())
    def test_alpha_bounds_and_stream_split(self, inputs):
        params, chan = inputs
        d = rs_decide(params, chan)
        assert 0.0 <= d.alpha <= 1.0
        if d.case_label is CaseLabel.II:
            assert 0.0 < d.alpha < 1.0
        assert d.r1_total == pytest.approx(d.r11 + d.r12, rel=1e-12, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(random_inputs())
    def test_case_ii_rate_dominance(self, inputs):
        # rs >= nh-sic >= qos-sic pointwise inside case II
        params, chan = inputs
        d = rs_decide(params, chan)
        if d.case_label is not CaseLabel.II:
            return
        rs = d.r1_total
        nh = benchmark_rate_nh_sic(params, chan)
        qos = benchmark_rate_qos_sic(params, chan)
        assert rs >= nh - 1e-12
        assert nh >= qos

    @settings(max_examples=300, deadline=None)
    @given(random_inputs())
    def test_case_ii_primary_sinr_equals_eps0(self, inputs):
        params, chan = inputs
        d = rs_decide(params, chan)
        if d.case_label is not CaseLabel.II:
            return
        eps0 = params.eps0
        gamma0 = params.p0 * chan.g0 / (d.tau + 1.0)
        assert abs(gamma0 - eps0) <= 1e-12 * eps0

    @settings(max_examples=300, deadline=None)
    @given(random_inputs())
    def test_admission_consistency(self, inputs):
        params, chan = inputs
        d = rs_decide(params, chan)
        if d.case_label is CaseLabel.II:
            out = evaluate_outcome(SchemeId.RS, params, chan)
            assert d.transmits == (not out.secondary_outage)

    def test_unknown_scheme_rejected(self):
        params, chan = SCENARIO_ONE
        with pytest.raises((UnknownSchemeError, AttributeError)):
            evaluate_outcome("not-a-scheme", params, chan)  # type: ignore[arg-type]


# every scalar entry point, each taking (params, chan)
SCALAR_CALLS = (rs_decide, benchmark_rate_qos_sic, benchmark_rate_nh_sic,
                *(functools.partial(evaluate_outcome, s) for s in SchemeId))


def _count_rules(mp: pytest.MonkeyPatch) -> list:
    """Empty the rule memo and make every _Rule built append itself to the returned list."""
    built = []

    class Spy(strategy._Rule):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    mp.setattr(strategy, "_Rule", Spy)
    mp.setattr(strategy, "_last_rule", None)
    return built


class TestOneRulePerRealization:
    def test_scalar_calls_share_one_rule(self, monkeypatch):
        built = _count_rules(monkeypatch)
        params, chan = SCENARIO_ONE
        for call in SCALAR_CALLS:
            call(params, chan)
        assert len(built) == 1

    def test_rate_command_builds_one_rule(self, monkeypatch, capsys):
        built = _count_rules(monkeypatch)
        code = main(["rate", "--p0-db", "0", "--p1-db", "10", "--g0", "10", "--g1", "10",
                     "--r0", "2", "--r1", "4", "--scheme", "rs"])
        assert code == 0 and "scheme=rs" in capsys.readouterr().out
        assert len(built) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(random_inputs(), min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, len(SCALAR_CALLS) - 1)), min_size=1, max_size=40))
    def test_interleaved_pairs_match_a_fresh_rule(self, values, steps):
        # two distinct objects of each drawn value: equal, but not the same object
        params_pool = [p for params, _ in values for p in (params, dataclasses.replace(params))]
        chan_pool = [c for _, chan in values for c in (chan, dataclasses.replace(chan))]
        with pytest.MonkeyPatch.context() as mp:
            built = _count_rules(mp)
            last = None
            for i, j, k in steps:
                params, chan = params_pool[i % len(params_pool)], chan_pool[j % len(chan_pool)]
                call = SCALAR_CALLS[k]
                kept = strategy._last_rule
                strategy._last_rule = None
                fresh = call(params, chan)
                strategy._last_rule = kept
                before = len(built)
                got = call(params, chan)
                same = last is not None and last[0] is params and last[1] is chan
                assert len(built) - before == (0 if same else 1)
                assert repr(got) == repr(fresh)
                memo = strategy._last_rule
                assert len(memo) == 3 and memo[0] is params and memo[1] is chan
                assert memo[2] is (kept[2] if same else built[-1])
                last = (params, chan)

    @pytest.mark.parametrize("p0, g0, p1, g1", [(1e300, 1e300, 1.0, 1.0), (1.0, 1.0, 1e300, 1e10),
                                                (1e300, 1e300, 1e300, 1e300)],
                             ids=["p0g0", "p1g1", "both"])
    def test_infinite_received_snr_is_a_parameter_error(self, monkeypatch, p0, g0, p1, g1):
        built = _count_rules(monkeypatch)
        params = SystemParams(p0=p0, p1=p1, r0_hat=1.0, r1_hat=1.0)
        chan = ChannelRealization(g0=g0, g1=g1)
        for call in SCALAR_CALLS:
            with pytest.raises(ParameterError, match=r"^received SNRs p0\*g0 = .* must be finite$"):
                call(params, chan)
        assert built == [] and strategy._last_rule is None

    @pytest.mark.parametrize("call", [rs_decide, *(functools.partial(evaluate_outcome, s) for s in SchemeId)],
                             ids=["rs_decide", *(f"evaluate_outcome-{s.value}" for s in SchemeId)])
    def test_infinite_budget_is_a_parameter_error(self, monkeypatch, call):
        # p0*g0 = 1e308 is finite, but p0*g0/eps0 with eps0 = 2^1e-6 - 1 is not
        built = _count_rules(monkeypatch)
        params = SystemParams(p0=1e300, p1=1e300, r0_hat=1e-6, r1_hat=1.0)
        chan = ChannelRealization(g0=1e8, g1=1e8)
        eps0 = params.eps0
        with pytest.raises(ParameterError) as exc:
            call(params, chan)
        assert str(exc.value) == (f"interference budget p0*g0/eps0 - 1 must be finite, "
                                  f"got p0*g0 = 1e+308 over eps0 = {eps0!r}")
        assert built == [] and strategy._last_rule is None


# -- independent oracle: every outcome rebuilt from received_sinrs and log2 rates,
# without the decision kernel that evaluate_outcome and tally_population share

ORACLE_POINTS = (
    SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0),
    SystemParams(p0=100.0, p1=3.0, r0_hat=1.5, r1_hat=0.5),
    SystemParams(p0=0.5, p1=300.0, r0_hat=0.25, r1_hat=2.0),
    SystemParams(p0=300.0, p1=30.0, r0_hat=0.5, r1_hat=3.0),
)
SECONDARY = (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC, SchemeId.CSI_SIC)
TIE_REL = 1e-9


def _oracle(params, chan):
    """(case, primary outage, {scheme: (outage, rate)}), or None within TIE_REL of a threshold.

    Rates come from the SINRs of the decode order each scheme uses; outage
    means rate < target. In case II, RS splits U1 so that x12 arrives at the
    primary's budget tau, and stays silent when the split misses the target;
    NH-SIC's back-off sends U1 alone at received power tau.
    """
    r0, r1 = params.r0_hat, params.r1_hat
    p0g0, p1g1 = params.p0 * chan.g0, params.p1 * chan.g1

    def rates(alpha, c=chan):
        return tuple(math.log2(1.0 + s) for s in received_sinrs(params, c, alpha))

    first, primary_alone, _ = rates(1.0)   # U1 decoded before x0, x0 as noise
    _, x0_first, last = rates(0.0)         # x0 decoded first, then U1 interference-free
    ties = [(primary_alone, r0), (p1g1, p0g0)]
    admitted = primary_alone > r0
    # largest x12 power leaving x0 decodable at its target rate
    tau = p0g0 / (2.0 ** r0 - 1.0) - 1.0 if admitted else 0.0
    if admitted:
        ties.append((p1g1, tau))
    case = CaseLabel.III if not admitted else CaseLabel.I if p1g1 <= tau else CaseLabel.II
    if case is CaseLabel.II:
        x11, _, x12 = rates(1.0 - tau / p1g1)
        backoff = rates(0.0, ChannelRealization(g0=chan.g0, g1=tau / params.p1))[2]
        rate = {SchemeId.RS: x11 + x12, SchemeId.QOS_SIC: first, SchemeId.NH_SIC: max(first, backoff)}
    else:
        rate = dict.fromkeys((SchemeId.RS, SchemeId.QOS_SIC, SchemeId.NH_SIC),
                             last if case is CaseLabel.I else first)
    if p1g1 >= p0g0:
        rate[SchemeId.CSI_SIC] = first
    else:
        ties.append((x0_first, r0))
        rate[SchemeId.CSI_SIC] = last if x0_first >= r0 else 0.0
    ties += [(r, r1) for r in rate.values()]
    if any(abs(a - b) <= TIE_REL * max(abs(a), abs(b)) for a, b in ties):
        return None
    outcome = {}
    for scheme, r in rate.items():
        silent = scheme is SchemeId.RS and case is CaseLabel.II and r < r1
        outcome[scheme] = (r < r1, 0.0 if silent else r)
    return case, primary_alone < r0, outcome


def test_outcomes_match_independent_oracle():
    seen = Counter()
    for params in ORACLE_POINTS:
        g0, g1 = GainStream(2718, 0).gains(4000)
        kept = []
        counts, rate_sums = Counter(), {s: [] for s in SECONDARY}
        for a, b in zip(g0, g1):
            chan = ChannelRealization(g0=a, g1=b)
            expected = _oracle(params, chan)
            if expected is None:
                continue
            kept.append((a, b))
            case, primary_outage, outcome = expected
            counts["case", case] += 1
            counts["primary"] += primary_outage
            for scheme, (outage, rate) in outcome.items():
                got = evaluate_outcome(scheme, params, chan)
                assert got.case_label is case, (params, chan, scheme)
                assert got.primary_outage == primary_outage, (params, chan, scheme)
                assert got.secondary_outage == outage, (params, chan, scheme)
                assert math.isclose(got.secondary_rate, rate, rel_tol=1e-12), (params, chan, scheme)
                counts[scheme, case] += outage
                rate_sums[scheme].append(rate)
                seen[scheme, case, outage] += 1
        assert len(kept) > 3900

        kept_g0, kept_g1 = (np.array(col) for col in zip(*kept))
        tally = tally_population(params, kept_g0, kept_g1, SECONDARY, with_rates=True)
        assert (tally.n, tally.case_i, tally.case_ii, tally.case_iii, tally.primary_outage) == (
            len(kept), counts["case", CaseLabel.I], counts["case", CaseLabel.II],
            counts["case", CaseLabel.III], counts["primary"])
        for scheme in SECONDARY:
            st = tally.schemes[scheme]
            assert (st.outage_case_i, st.outage_case_ii, st.outage_case_iii) == tuple(
                counts[scheme, c] for c in CaseLabel)
            assert math.isclose(st.rate_sum, math.fsum(rate_sums[scheme]), rel_tol=1e-12)
    # every scheme met both outcomes in every case somewhere on the grid
    assert len(seen) == len(SECONDARY) * len(CaseLabel) * 2

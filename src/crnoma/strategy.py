"""Per-realization transmission logic for all schemes.

The secondary user U1 may share the block with the primary U0 only while U0
keeps its orthogonal-access outage behavior. The base station grants U1 an
interference budget

    tau = max(0, p0*g0/eps0 - 1),

the largest post-SIC interference power under which U0 still meets its target
rate. The rate-splitting (RS) scheme splits U1's signal into two streams
(x11 decoded before x0, x12 after) and picks the power split per realization:

    case I   (tau > 0, p1*g1 <= tau): all power on x12, rate log2(1 + p1*g1)
    case II  (tau > 0, p1*g1 >  tau): x12 pinned to SINR tau via
             alpha = 1 - tau/(p1*g1); rate
             log2(1 + (p1*g1 - tau)/(p0*g0 + tau + 1)) + log2(1 + tau);
             U1 stays silent when that rate misses its target (counted as outage)
    case III (tau = 0): all power on x11, rate log2(1 + p1*g1/(p0*g0 + 1))

The QoS-SIC and NH-SIC baselines share cases I and III and differ only in
case II; CSI-SIC ignores the admission budget and orders SIC by received
power. Outage tests compare SINRs against eps thresholds in the linear
domain, which is the same condition as rate < target without the log2 noise.

The rule is written once, in ``_Rule``, from comparisons, arithmetic, ``&``,
``|`` and ``^`` plus three primitives (``where``, ``maximum``, ``log2``) that
the caller supplies. The scalar functions below pass floats with a namespace of
Python builtins; ``estimator.tally_population`` passes gain arrays with numpy.
Both therefore evaluate the same expressions realization by realization.
The rule has two products, the outage tests and the achieved rates. The
scalar callers (``evaluate_outcome``, ``rs_decide`` and the baseline rates)
share one rule per realization: ``_scalar_rule`` builds both products and
keeps the last rule with the ``params`` and ``chan`` objects it was built
from, so the five schemes of one realization build it once. A tally builds
whichever products its metrics need. The results, ``RsDecision`` and
``TransmissionOutcome``, are frozen, slotted dataclasses, built through
their slots (see ``params._slot_init``). An OMA_PRIMARY outcome carries
only the primary outage bit, so ``evaluate_outcome`` returns one of two
shared module-level instances for it instead of building a new one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Any

from .params import ChannelRealization, SystemParams, _slot_init
from .errors import ParameterError, UnknownSchemeError


class SchemeId(Enum):
    RS = "rs"
    NH_SIC = "nh-sic"
    QOS_SIC = "qos-sic"
    CSI_SIC = "csi-sic"
    OMA_PRIMARY = "oma"


class CaseLabel(Enum):
    I = "I"
    II = "II"
    III = "III"


# members bound once for the per-call dispatch here and in analytic: a bound
# name is read in ~8 ns, an attribute such as SchemeId.RS in ~112 ns (CPython 3.11)
_RS, _NH_SIC, _QOS_SIC, _CSI_SIC, _OMA_PRIMARY = (SchemeId.RS, SchemeId.NH_SIC, SchemeId.QOS_SIC,
                                                  SchemeId.CSI_SIC, SchemeId.OMA_PRIMARY)
_CASE_I, _CASE_II, _CASE_III = CaseLabel.I, CaseLabel.II, CaseLabel.III


@_slot_init
@dataclass(frozen=True, slots=True)
class RsDecision:
    """Chosen power split and the rates it supports on one realization."""

    case_label: CaseLabel
    alpha: float
    tau: float
    r11: float
    r12: float
    r1_total: float
    transmits: bool


@_slot_init
@dataclass(frozen=True, slots=True)
class TransmissionOutcome:
    """Per-realization result of one scheme.

    secondary_rate/secondary_outage are None for OMA_PRIMARY, which carries
    no secondary transmission.
    """

    scheme: SchemeId
    primary_outage: bool
    secondary_rate: float | None = None
    secondary_outage: bool | None = None
    case_label: CaseLabel | None = None


# the only two OMA_PRIMARY outcomes, indexed by the primary outage bit: the type is frozen
# and slotted, so evaluate_outcome hands out these instead of building one per call
_PRIMARY_ONLY = (TransmissionOutcome(_OMA_PRIMARY, False), TransmissionOutcome(_OMA_PRIMARY, True))

# the rule's primitives for one realization of floats; gain arrays use numpy itself
_SCALAR = SimpleNamespace(where=lambda cond, a, b: a if cond else b, maximum=max, log2=math.log2)


@dataclass(slots=True)
class _SchemeRule:
    shared_fail: Any   # (case-I, case-III) outage tests every admission scheme shares; None for CSI-SIC
    own_fail: Any      # the scheme's own outage test: in case II for an admission scheme, in every
                       # case for CSI-SIC; None without outages
    rate: Any          # achieved rate; None without rates
    case_ii_rate: Any  # the scheme's case-II rate, silence ignored; None without rates or for CSI-SIC
    tests: tuple = ()  # the comparisons of the gains that own_fail adds to the rule's; () without outages

    @property
    def outage(self) -> Any:
        """Secondary outage test over every case; None without outages."""
        if self.shared_fail is None:
            return self.own_fail
        fail_i, fail_iii = self.shared_fail
        return fail_i | self.own_fail | fail_iii


class _Rule:
    """The per-realization rule, for floats (ns = _SCALAR) or gain arrays (ns = numpy).

    p0g0 = p0*g0 and p1g1 = p1*g1. The rule has two products, outage tests
    and achieved rates, and construction builds only those asked for: the
    one rule that scalar callers share per realization has both, a tally
    over gain arrays those its metrics need. Both products read the
    admission and case-I/II masks. The outage tests add primary
    outage, the two decode orders' tests, and the case-I and case-III tests
    that RS, NH-SIC and QoS-SIC share; the rates add the rates. scheme()
    applies one scheme's rule on top, so an array caller can consume one
    scheme's arrays before the next are built; a product not built is None
    there. An admission scheme adds only its case-II test, so a tally counts
    the shared tests once for all three.

    The masks compare against the unclamped budget p0g0/eps0 - 1; the budget
    tau = max(0, that) is built only with rates. Both give the same masks:
    p0g0 > eps0 implies fl(p0g0/eps0) >= 1, so the budget is already >= 0
    wherever a block is admitted. Complements are taken with ^, since ~ on a
    Python bool is integer negation.

    Every outage test is a Boolean combination of the comparisons that
    comparisons() lists, and each of those is monotone in g0 and in g1: both
    sides are built from the gains and positive constants by correctly
    rounded products, quotients, sums and differences, each monotone in
    each of its operands.
    """

    __slots__ = ("params", "p0g0", "p1g1", "ns", "outages", "rates", "budget", "admitted", "within",
                 "case_i", "case_ii", "noise_x0", "case_iii", "primary_outage", "first_fail",
                 "last_fail", "fail_i", "fail_iii", "tau", "first_rate", "last_rate", "x11_rate",
                 "x12_rate", "shared_rate")

    def __init__(self, params: SystemParams, p0g0: Any, p1g1: Any, outages: bool, rates: bool,
                 ns: Any) -> None:
        self.params, self.p0g0, self.p1g1, self.ns = params, p0g0, p1g1, ns
        self.outages, self.rates = outages, rates
        self.admitted = admitted = p0g0 > params.eps0  # tau > 0
        self.budget = budget = p0g0 / params.eps0 - 1.0
        self.within = p1g1 <= budget
        self.case_i = admitted & self.within
        self.case_ii = admitted ^ self.case_i
        self.noise_x0 = noise_x0 = p0g0 + 1.0
        if outages:
            self.case_iii = admitted ^ True
            self.primary_outage = p0g0 < params.eps0
            self.first_fail = p1g1 < params.eps1 * noise_x0  # U1 decoded before x0, x0 as noise
            self.last_fail = p1g1 < params.eps1              # U1 decoded after x0, interference-free
            # cases I and III: the same test for every admission-based scheme
            self.fail_i = self.case_i & self.last_fail
            self.fail_iii = self.case_iii & self.first_fail
        if rates:
            self.tau = tau = ns.maximum(budget, 0.0)
            self.first_rate = ns.log2(1.0 + p1g1 / noise_x0)
            self.last_rate = ns.log2(1.0 + p1g1)
            # RS case II: x11 decoded before x0, x12 after it at SINR tau
            self.x11_rate = ns.log2(1.0 + (p1g1 - tau) / (p0g0 + tau + 1.0))
            self.x12_rate = ns.log2(1.0 + tau)
            self.shared_rate = ns.where(self.case_i, self.last_rate, self.first_rate)

    def scheme(self, scheme: SchemeId) -> _SchemeRule | None:
        """One scheme's secondary outage and rates; None for OMA_PRIMARY, unknown schemes raise."""
        params, p0g0, p1g1, ns, outages, rates = (self.params, self.p0g0, self.p1g1, self.ns,
                                                  self.outages, self.rates)
        if scheme is _OMA_PRIMARY:
            return None
        if scheme is _CSI_SIC:
            # dynamic ordering by received power, no admission rule
            u1_first = p1g1 >= p0g0
            x0_need = params.eps0 * (p1g1 + 1.0)
            outage, tests = None, ()
            if outages:
                x0_short = p0g0 < x0_need
                outage = (u1_first & self.first_fail) | ((u1_first ^ True) & (x0_short | self.last_fail))
                tests = (u1_first, x0_short)
            # U1 decoded second earns nothing unless x0 was decoded first
            rate = (ns.where(u1_first, self.first_rate, self.last_rate * (p0g0 >= x0_need))
                    if rates else None)
            return _SchemeRule(None, outage, rate, None, tests)
        fail_ii = rate_ii = achieved_ii = None
        tests = ()
        if scheme is _RS:
            need = (1.0 + params.eps0) * (1.0 + params.eps1) - self.noise_x0
            if outages:
                fail_ii = p1g1 < need
                tests = (fail_ii,)
            if rates:
                rate_ii = self.x11_rate + self.x12_rate
                achieved_ii = rate_ii * (p1g1 >= need)  # silent blocks earn nothing
        elif scheme is _QOS_SIC:
            if outages:
                fail_ii = self.first_fail
            if rates:
                # achieved_ii stays None: shared_rate is first_rate wherever case I does not
                # hold, so where(case_ii, first_rate, shared_rate) is shared_rate itself
                rate_ii = self.first_rate
        elif scheme is _NH_SIC:
            if outages:
                # the budget is tau in case II
                short = self.budget < params.eps1
                fail_ii = self.first_fail & short
                tests = (short,)
            if rates:
                rate_ii = achieved_ii = ns.maximum(self.first_rate, self.x12_rate)
        else:
            raise UnknownSchemeError(f"unknown scheme {scheme!r}")
        if outages:
            shared, own = (self.fail_i, self.fail_iii), self.case_ii & fail_ii
        else:
            shared = own = None
        if not rates:
            return _SchemeRule(shared, own, None, None, tests)
        rate = (self.shared_rate if achieved_ii is None
                else ns.where(self.case_ii, achieved_ii, self.shared_rate))
        return _SchemeRule(shared, own, rate, rate_ii, tests)

    def comparisons(self, owns: Iterable[_SchemeRule | None]) -> list:
        """The comparisons of the gains behind the outage tests of the rule and of owns.

        owns are this rule's scheme() results (None for OMA_PRIMARY). The
        rule's outage tests must be built. Where every comparison listed
        agrees on two realizations, so does every outage test, case mask
        and primary outage of the rule and of owns.
        """
        tests = [self.admitted, self.within, self.primary_outage, self.first_fail, self.last_fail]
        for own in owns:
            if own is not None:
                tests.extend(own.tests)
        return tests

    def case_label(self) -> CaseLabel:
        """Case of a single realization (floats only)."""
        if self.case_ii:
            return _CASE_II
        return _CASE_I if self.case_i else _CASE_III


# (params, chan, rule) of the last scalar rule built: one entry, replaced whole by the next
# build, so a thread reads either the old entry or the new one
_last_rule: tuple | None = None


def _scalar_rule(params: SystemParams, chan: ChannelRealization) -> _Rule:
    """The rule of one realization, with both products.

    Received SNRs p0*g0 and p1*g1, or a budget p0*g0/eps0 - 1, out of the
    float range raise ParameterError; the array path leaves such draws alone.
    The last rule built is returned again while the same params and chan
    objects (tested with is) come back, so evaluate_outcome over every
    scheme and rs_decide share one. The memo holds those two objects, so
    neither can be freed and its id reused while the rule is kept.
    """
    global _last_rule
    last = _last_rule
    if last is not None and last[0] is params and last[1] is chan:
        return last[2]
    p0g0, p1g1 = params.p0 * chan.g0, params.p1 * chan.g1
    if not (math.isfinite(p0g0) and math.isfinite(p1g1)):
        raise ParameterError(f"received SNRs p0*g0 = {p0g0!r} and p1*g1 = {p1g1!r} must be finite")
    if not math.isfinite(p0g0 / params.eps0):  # the budget p0*g0/eps0 - 1 overflows where p0*g0 does not
        raise ParameterError(f"interference budget p0*g0/eps0 - 1 must be finite, got p0*g0 = "
                             f"{p0g0!r} over eps0 = {params.eps0!r}")
    rule = _Rule(params, p0g0, p1g1, True, True, _SCALAR)
    _last_rule = (params, chan, rule)
    return rule


def received_sinrs(params: SystemParams, chan: ChannelRealization, alpha: float) -> tuple[float, float, float]:
    """SINRs for decoding x11, x0, x12 under the order x11 -> x0 -> x12.

    gamma11 = alpha*p1*g1 / (p0*g0 + (1-alpha)*p1*g1 + 1)
    gamma0  = p0*g0 / ((1-alpha)*p1*g1 + 1)
    gamma12 = (1-alpha)*p1*g1
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    p0g0 = params.p0 * chan.g0
    p1g1 = params.p1 * chan.g1
    residual = (1.0 - alpha) * p1g1
    gamma11 = alpha * p1g1 / (p0g0 + residual + 1.0)
    gamma0 = p0g0 / (residual + 1.0)
    return gamma11, gamma0, residual


def rs_decide(params: SystemParams, chan: ChannelRealization) -> RsDecision:
    """Power split, stream rates, and the silence decision of the RS scheme.

    In case II the x12 SINR equals tau by construction, so the post-SIC
    primary SINR is exactly eps0; the case-II rates use that identity
    instead of round-tripping through alpha.
    """
    rule = _scalar_rule(params, chan)
    case = rule.case_label()
    rs = rule.scheme(_RS)
    # fields in order: case_label, alpha, tau, r11, r12, r1_total, transmits
    if case is _CASE_II:
        return RsDecision(case, 1.0 - rule.tau / rule.p1g1, rule.tau,
                          rule.x11_rate, rule.x12_rate, rs.case_ii_rate, not rs.outage)
    if case is _CASE_III:
        return RsDecision(case, 1.0, rule.tau, rs.rate, 0.0, rs.rate, True)
    return RsDecision(case, 0.0, rule.tau, 0.0, rs.rate, rs.rate, True)


def benchmark_rate_qos_sic(params: SystemParams, chan: ChannelRealization) -> float:
    """Case-II rate of the QoS-ordered baseline: U1 decoded first, U0's signal as noise."""
    return _scalar_rule(params, chan).scheme(_QOS_SIC).case_ii_rate


def benchmark_rate_nh_sic(params: SystemParams, chan: ChannelRealization) -> float:
    """Case-II rate of the hybrid baseline: better of decode-first and power-backoff."""
    return _scalar_rule(params, chan).scheme(_NH_SIC).case_ii_rate


def evaluate_outcome(scheme: SchemeId, params: SystemParams, chan: ChannelRealization) -> TransmissionOutcome:
    """Decode one realization under the given scheme and report rates and outages.

    Primary outage is the orthogonal-access condition g0 < eta0 for every
    scheme; that is the admission contract the secondary schemes preserve.
    """
    rule = _scalar_rule(params, chan)
    own = rule.scheme(scheme)
    if own is None:
        return _PRIMARY_ONLY[rule.primary_outage]
    # positional arguments, in field order: keywords cost 1.21 us a call against 0.75 us
    return TransmissionOutcome(scheme, rule.primary_outage, own.rate, own.outage, rule.case_label())

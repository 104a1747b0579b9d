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

The rule is written once, in ``_Rule``, from comparisons, arithmetic, ``&``
and ``|`` plus three primitives (``where``, ``maximum``, ``log2``) that the
caller supplies. The scalar functions below pass floats with a namespace of
Python builtins; ``estimator.tally_population`` passes gain arrays with numpy.
Both therefore evaluate the same expressions realization by realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Any, NamedTuple

from .params import ChannelRealization, DerivedConstants, SystemParams, derive_constants
from .errors import UnknownSchemeError


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


@dataclass(frozen=True)
class RsDecision:
    """Chosen power split and the rates it supports on one realization."""

    case_label: CaseLabel
    alpha: float
    tau: float
    r11: float
    r12: float
    r1_total: float
    transmits: bool


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


# the rule's primitives for one realization of floats; gain arrays use numpy itself
_SCALAR = SimpleNamespace(where=lambda cond, a, b: a if cond else b, maximum=max, log2=math.log2)


class _SchemeRule(NamedTuple):
    outage: Any
    rate: Any          # achieved rate; None without rates
    case_ii_rate: Any  # rate of the scheme's case-II rule, silence ignored; None for CSI-SIC


class _Rule:
    """The per-realization rule, for floats (ns = _SCALAR) or gain arrays (ns = numpy).

    p0g0 = p0*g0 and p1g1 = p1*g1. Construction evaluates what every scheme
    shares: the budget tau, the case masks, primary outage and the two decode
    orders' tests and rates. scheme() applies one scheme's rule on top, so an
    array caller can consume one scheme's arrays before the next are built.
    Complementary comparisons stand in for ~, which on a Python bool is
    integer negation.
    """

    __slots__ = ("c", "p0g0", "p1g1", "ns", "with_rates", "tau", "case_i", "case_ii", "case_iii",
                 "primary_outage", "first_fail", "last_fail", "shared_fail", "first_rate",
                 "last_rate", "x11_rate", "x12_rate", "shared_rate")

    def __init__(self, c: DerivedConstants, p0g0: Any, p1g1: Any, with_rates: bool, ns: Any) -> None:
        self.c, self.p0g0, self.p1g1, self.ns, self.with_rates = c, p0g0, p1g1, ns, with_rates
        admitted = p0g0 > c.eps0  # tau > 0
        self.tau = tau = ns.maximum(p0g0 / c.eps0 - 1.0, 0.0)
        self.case_i = admitted & (p1g1 <= tau)
        self.case_ii = admitted & (p1g1 > tau)
        self.case_iii = p0g0 <= c.eps0
        self.primary_outage = p0g0 < c.eps0

        noise_x0 = p0g0 + 1.0
        self.first_fail = p1g1 < c.eps1 * noise_x0  # U1 decoded before x0, x0 as noise
        self.last_fail = p1g1 < c.eps1              # U1 decoded after x0, interference-free
        # cases I and III: the same operation for every admission-based scheme
        self.shared_fail = (self.case_i & self.last_fail) | (self.case_iii & self.first_fail)
        if with_rates:
            self.first_rate = ns.log2(1.0 + p1g1 / noise_x0)
            self.last_rate = ns.log2(1.0 + p1g1)
            # RS case II: x11 decoded before x0, x12 after it at SINR tau
            self.x11_rate = ns.log2(1.0 + (p1g1 - tau) / (p0g0 + tau + 1.0))
            self.x12_rate = ns.log2(1.0 + tau)
            self.shared_rate = ns.where(self.case_i, self.last_rate, self.first_rate)

    def scheme(self, scheme: SchemeId) -> _SchemeRule | None:
        """One scheme's secondary outage and rates; None for OMA_PRIMARY, unknown schemes raise."""
        c, p0g0, p1g1, ns, rates = self.c, self.p0g0, self.p1g1, self.ns, self.with_rates
        if scheme is SchemeId.OMA_PRIMARY:
            return None
        if scheme is SchemeId.CSI_SIC:
            # dynamic ordering by received power, no admission rule
            u1_first = p1g1 >= p0g0
            x0_need = c.eps0 * (p1g1 + 1.0)
            outage = (u1_first & self.first_fail) | ((p1g1 < p0g0) & ((p0g0 < x0_need) | self.last_fail))
            # U1 decoded second earns nothing unless x0 was decoded first
            rate = (ns.where(u1_first, self.first_rate, self.last_rate * (p0g0 >= x0_need))
                    if rates else None)
            return _SchemeRule(outage, rate, None)
        if scheme is SchemeId.RS:
            need = (1.0 + c.eps0) * (1.0 + c.eps1) - (p0g0 + 1.0)
            fail_ii = p1g1 < need
            if rates:
                rate_ii = self.x11_rate + self.x12_rate
                achieved_ii = rate_ii * (p1g1 >= need)  # silent blocks earn nothing
        elif scheme is SchemeId.QOS_SIC:
            fail_ii = self.first_fail
            if rates:
                rate_ii = achieved_ii = self.first_rate
        elif scheme is SchemeId.NH_SIC:
            fail_ii = self.first_fail & (self.tau < c.eps1)
            if rates:
                rate_ii = achieved_ii = ns.maximum(self.first_rate, self.x12_rate)
        else:
            raise UnknownSchemeError(f"unknown scheme {scheme!r}")
        outage = self.shared_fail | (self.case_ii & fail_ii)
        if not rates:
            return _SchemeRule(outage, None, None)
        return _SchemeRule(outage, ns.where(self.case_ii, achieved_ii, self.shared_rate), rate_ii)

    def case_label(self) -> CaseLabel:
        """Case of a single realization (floats only)."""
        if self.case_ii:
            return CaseLabel.II
        return CaseLabel.I if self.case_i else CaseLabel.III


def _scalar_rule(params: SystemParams, chan: ChannelRealization, with_rates: bool) -> _Rule:
    return _Rule(derive_constants(params), params.p0 * chan.g0, params.p1 * chan.g1,
                 with_rates, _SCALAR)


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
    rule = _scalar_rule(params, chan, True)
    case = rule.case_label()
    rs = rule.scheme(SchemeId.RS)
    if case is CaseLabel.II:
        return RsDecision(case, 1.0 - rule.tau / (params.p1 * chan.g1), rule.tau,
                          r11=rule.x11_rate, r12=rule.x12_rate, r1_total=rs.case_ii_rate,
                          transmits=not rs.outage)
    if case is CaseLabel.III:
        return RsDecision(case, 1.0, rule.tau, r11=rs.rate, r12=0.0, r1_total=rs.rate, transmits=True)
    return RsDecision(case, 0.0, rule.tau, r11=0.0, r12=rs.rate, r1_total=rs.rate, transmits=True)


def benchmark_rate_qos_sic(params: SystemParams, chan: ChannelRealization) -> float:
    """Case-II rate of the QoS-ordered baseline: U1 decoded first, U0's signal as noise."""
    return _scalar_rule(params, chan, True).scheme(SchemeId.QOS_SIC).case_ii_rate


def benchmark_rate_nh_sic(params: SystemParams, chan: ChannelRealization) -> float:
    """Case-II rate of the hybrid baseline: better of decode-first and power-backoff."""
    return _scalar_rule(params, chan, True).scheme(SchemeId.NH_SIC).case_ii_rate


def evaluate_outcome(scheme: SchemeId, params: SystemParams, chan: ChannelRealization) -> TransmissionOutcome:
    """Decode one realization under the given scheme and report rates and outages.

    Primary outage is the orthogonal-access condition g0 < eta0 for every
    scheme; that is the admission contract the secondary schemes preserve.
    """
    # OMA_PRIMARY reads only primary_outage, so its rule skips the rates
    rule = _scalar_rule(params, chan, scheme is not SchemeId.OMA_PRIMARY)
    own = rule.scheme(scheme)
    if own is None:
        return TransmissionOutcome(scheme=scheme, primary_outage=rule.primary_outage)
    return TransmissionOutcome(scheme=scheme, primary_outage=rule.primary_outage,
                               secondary_rate=own.rate, secondary_outage=own.outage,
                               case_label=rule.case_label())

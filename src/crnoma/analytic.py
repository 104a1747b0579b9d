"""Closed-form outage probabilities, their high-SNR limits, and throughput.

Gains are i.i.d. exponential(1), so every probability reduces to integrals of
exp(-y) times exponentials in y over a g0 interval. The shared building block
is the strip integral

    J(nu; lo, hi) = integral_lo^hi exp(-(1 + nu) y) dy
                  = (exp(-(1+nu) lo) - exp(-(1+nu) hi)) / (1 + nu),

which has a removable singularity at nu = -1 (value hi - lo). Exponents are
combined before exponentiation and each term picks an evaluation branch
(series, expm1 product, or two-exponential difference) by the size and sign
of width*(1+nu), so the 1e-6-and-below probabilities at high SNR survive
cancellation and nothing overflows in the p1 << p0 regimes.

Every closed form is assembled from five terms, each written once:

    admission strip    exp(1/p1) * J(1/(p1*eta0); eta0, hi)
    first-clear strip  exp(-eta1) * J(p0*eta1; eta0, hi)
    RS crossing strip  exp(-(eps0+eps1+eps0*eps1)/p1) * J(-p0/p1; eta0, hi)
    case-III clear     exp(-eta1) * (1 - exp(-eta0*k)) / k,  k = p0*eta1 + 1
    strip end          eta0*(1+eps1)

and one function, ``_case_ii_raw``, picks each scheme's case-II strips.

Probabilities are clamped to [0, 1] only after checking the raw value lies in
[-1e-9, 1 + 1e-9]; a worse violation raises instead of hiding a broken formula.
Where the admission probability underflows (eta0 above ~708), the conditional
outage drops the factor exp(-eta0) that it shares with every case-II term.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ParameterError, ProbabilityRangeError, UnknownSchemeError
from .params import DerivedConstants, SystemParams, derive_constants
from .strategy import SchemeId

_RANGE_SLACK = 1e-9
# below this, width*(1+nu) is treated by series instead of the generic quotient
_SERIES_CUTOFF = 1e-6


def _as_probability(raw: float, what: str) -> float:
    if not math.isfinite(raw) or raw < -_RANGE_SLACK or raw > 1.0 + _RANGE_SLACK:
        raise ProbabilityRangeError(f"{what} evaluated to {raw!r}, outside [0, 1]")
    return min(1.0, max(0.0, raw))


def _scaled_strip(log_scale: float, nu: float, lo: float, hi: float | None) -> float:
    """exp(log_scale) * J(nu; lo, hi); hi=None means an upper limit of infinity."""
    t = 1.0 + nu
    if hi is None:
        if t <= 0.0:
            raise ParameterError(f"strip integral diverges for nu={nu!r} with infinite upper limit")
        return math.exp(log_scale - lo * t) / t
    width = hi - lo
    if width <= 0.0:
        return 0.0
    x = width * t
    if abs(x) < _SERIES_CUTOFF:
        # removable singularity at t = 0: J = width * (1 - x/2 + x^2/6 - ...)
        series = width * (1.0 - x / 2.0 + x * x / 6.0 - x * x * x / 24.0)
        return math.exp(log_scale - lo * t) * series
    if x < -0.5:
        # nu well below -1: the expm1 factor would overflow, but the two
        # endpoint exponents are each <= 0 and far apart, so no cancellation
        return (math.exp(log_scale - lo * t) - math.exp(log_scale - hi * t)) / t
    return math.exp(log_scale - lo * t) * (-math.expm1(-x)) / t


def _strip_end(c: DerivedConstants) -> float:
    """eta0*(1+eps1): where the RS and NH-SIC case-II g1 intervals close."""
    return c.eta0 * (1.0 + c.eps1)


def _admission_strip(params: SystemParams, c: DerivedConstants, hi: float | None,
                     shift: float = 0.0) -> float:
    """exp(1/p1) * J(1/(p1*eta0); eta0, hi): admitted with p1*g1 above tau, every scheme."""
    return _scaled_strip(1.0 / params.p1 + shift, 1.0 / (params.p1 * c.eta0), c.eta0, hi)


def _first_clear_strip(params: SystemParams, c: DerivedConstants, hi: float | None,
                       shift: float = 0.0) -> float:
    """exp(-eta1) * J(p0*eta1; eta0, hi): U1 clears eps1 decoded before x0."""
    return _scaled_strip(-c.eta1 + shift, params.p0 * c.eta1, c.eta0, hi)


def _rs_crossing_strip(params: SystemParams, c: DerivedConstants, hi: float,
                       shift: float = 0.0) -> float:
    """exp(-(eps0+eps1+eps0*eps1)/p1) * J(-p0/p1; eta0, hi), the strip RS's case-II rate clears."""
    crossing = c.eps0 + c.eps1 + c.eps0 * c.eps1
    return _scaled_strip(-crossing / params.p1 + shift, -params.p0 / params.p1, c.eta0, hi)


def _case_iii_clear(params: SystemParams, c: DerivedConstants) -> float:
    """exp(-eta1) * (1 - exp(-eta0*k)) / k with k = p0*eta1 + 1: case III without outage."""
    k = params.p0 * c.eta1 + 1.0
    return math.exp(-c.eta1) * (-math.expm1(-c.eta0 * k)) / k


def _case_ii_raw(scheme: SchemeId, params: SystemParams, c: DerivedConstants,
                 shift: float = 0.0) -> float:
    """Unclamped case-II outage of one scheme times exp(shift), shift added to each strip's log-scale.

    RS: admission - crossing strip. NH-SIC: admission - first-clear strip.
    QoS-SIC: as NH-SIC, to eta0*(1+eps1)/(1 - eps0*eps1), or to infinity once eps0*eps1 >= 1.
    """
    hi: float | None = _strip_end(c)
    if scheme is SchemeId.RS:
        return _admission_strip(params, c, hi, shift) - _rs_crossing_strip(params, c, hi, shift)
    if scheme is SchemeId.QOS_SIC:
        product = c.eps0 * c.eps1
        hi = hi / (1.0 - product) if product < 1.0 else None
    elif scheme is not SchemeId.NH_SIC:
        raise UnknownSchemeError(f"no closed-form case-II outage for {scheme}")
    return _admission_strip(params, c, hi, shift) - _first_clear_strip(params, c, hi, shift)


def case_ii_outage(scheme: SchemeId, params: SystemParams) -> float:
    """P{case II, secondary outage} of RS, NH-SIC or QoS-SIC."""
    return _as_probability(_case_ii_raw(scheme, params, derive_constants(params)),
                           f"case_ii_outage[{scheme.value}]")


def rs_case_ii_outage(params: SystemParams) -> float:
    """P{tau > 0, p1*g1 > tau, case-II RS rate < target}.

    exp(1/p1) * J(1/(p1*eta0)) - exp(-(eps0+eps1+eps0*eps1)/p1) * J(-p0/p1),
    both strips over [eta0, eta0*(1+eps1)].
    """
    return case_ii_outage(SchemeId.RS, params)


def rs_case_i_outage(params: SystemParams) -> float:
    """P{tau > 0, p1*g1 <= tau, log2(1 + p1*g1) < target}."""
    c = derive_constants(params)
    hi = _strip_end(c)
    raw = math.exp(-c.eta0) - _admission_strip(params, c, hi) - math.exp(-hi - c.eta1)
    return _as_probability(raw, "rs_case_i_outage")


def rs_case_iii_outage(params: SystemParams) -> float:
    """P{tau = 0, log2(1 + p1*g1/(p0*g0 + 1)) < target}."""
    c = derive_constants(params)
    raw = 1.0 - math.exp(-c.eta0) - _case_iii_clear(params, c)
    return _as_probability(raw, "rs_case_iii_outage")


def rs_total_outage(params: SystemParams) -> float:
    """Secondary outage probability of the RS scheme, evaluated in one expression.

    1 - exp(-eta0*(1+eps1) - eta1)
      - exp(-(eps0+eps1+eps0*eps1)/p1) * J(-p0/p1)
      - exp(-eta1) * (1 - exp(-eta0*(p0*eta1 + 1))) / (p0*eta1 + 1)

    The three per-case terms sum to this identically; tests pin the identity.
    """
    c = derive_constants(params)
    hi = _strip_end(c)
    raw = 1.0 - math.exp(-hi - c.eta1) - _rs_crossing_strip(params, c, hi) - _case_iii_clear(params, c)
    return _as_probability(raw, "rs_total_outage")


@dataclass(frozen=True)
class HighSnrApprox:
    """First-order outage approximation plus the second-order case terms."""

    headline: float     # total outage ~ eta1
    case_i: float       # ~ eta1
    case_ii: float      # ~ eps0*eps1*(1+eps0)*(1+eps1) / p1^2
    case_iii: float     # ~ eps0*eps1*(1+eps0) / p1^2


def rs_high_snr(params: SystemParams) -> HighSnrApprox:
    """High-SNR behavior of the RS outage: headline eta1, diversity order 1."""
    c = derive_constants(params)
    p1_sq = params.p1 * params.p1
    return HighSnrApprox(
        headline=c.eta1,
        case_i=c.eta1,
        case_ii=c.eps0 * c.eps1 * (1.0 + c.eps0) * (1.0 + c.eps1) / p1_sq,
        case_iii=c.eps0 * c.eps1 * (1.0 + c.eps0) / p1_sq,
    )


def qos_sic_case_ii_outage(params: SystemParams) -> float:
    """Case-II outage of the QoS-SIC baseline.

    The outage strip is eta0 < g0 < eta0*(1+eps1)/(1 - eps0*eps1) while
    eps0*eps1 < 1; for eps0*eps1 >= 1 the g1 interval is nonempty for every
    admitted g0 and the strip extends to infinity, which is what pins the
    outage floor. Both branches are the exact finite-SNR integrals and meet
    continuously at eps0*eps1 = 1.
    """
    return case_ii_outage(SchemeId.QOS_SIC, params)


def qos_sic_outage_floor(params: SystemParams) -> float:
    """Transmit-SNR-independent limit of the QoS-SIC case-II outage.

    p0*p1*(eps0*eps1 - 1) / ((p0*eps1 + p1)*(p0 + eps0*p1)) for
    eps0*eps1 >= 1 (a fixed-ratio power scaling leaves it unchanged), and 0
    otherwise: below the product-1 boundary the outage keeps decaying.
    """
    c = derive_constants(params)
    product = c.eps0 * c.eps1
    if product < 1.0:
        return 0.0
    raw = (params.p0 * params.p1 * (product - 1.0)
           / ((params.p0 * c.eps1 + params.p1) * (params.p0 + c.eps0 * params.p1)))
    return _as_probability(raw, "qos_sic_outage_floor")


def nh_sic_case_ii_outage(params: SystemParams) -> float:
    """Case-II outage of the NH-SIC baseline.

    exp(1/p1) * J(1/(p1*eta0)) - exp(-eta1) * J(p0*eta1), strips over
    [eta0, eta0*(1+eps1)].
    """
    return case_ii_outage(SchemeId.NH_SIC, params)


def case_ii_outage_gap(params: SystemParams) -> float:
    """How much case-II outage RS saves over NH-SIC; nonnegative, vanishes at high SNR.

    exp(-(eps0+eps1+eps0*eps1)/p1) * J(-p0/p1) - exp(-eta1) * J(p0*eta1).
    Equals nh_sic_case_ii_outage - rs_case_ii_outage identically.
    """
    c = derive_constants(params)
    hi = _strip_end(c)
    raw = _rs_crossing_strip(params, c, hi) - _first_clear_strip(params, c, hi)
    return _as_probability(raw, "case_ii_outage_gap")


def admission_probability(params: SystemParams) -> float:
    """P{tau > 0 and p1*g1 > tau} = p1*eta0*exp(-eta0) / (1 + p1*eta0)."""
    c = derive_constants(params)
    k = params.p1 * c.eta0
    raw = k * math.exp(-c.eta0) / (1.0 + k)
    return _as_probability(raw, "admission_probability")


def primary_outage_probability(params: SystemParams) -> float:
    """P{g0 < eta0} = 1 - exp(-eta0), identical under every scheme."""
    c = derive_constants(params)
    return _as_probability(-math.expm1(-c.eta0), "primary_outage_probability")


def conditional_case_ii_outage(scheme: SchemeId, params: SystemParams) -> float:
    """Case-II outage conditioned on the case-II event itself.

    Below the smallest normal float (0 included), the admission probability
    k*exp(-eta0)/(1 + k), k = p1*eta0, is replaced by k/(1 + k) and the case-II
    strips are shifted by eta0 in log-scale: the same ratio, without the underflow.
    """
    denom = admission_probability(params)
    if denom >= sys.float_info.min:
        return _as_probability(case_ii_outage(scheme, params) / denom, "conditional_case_ii_outage")
    c = derive_constants(params)
    k = params.p1 * c.eta0
    raw = _case_ii_raw(scheme, params, c, shift=c.eta0) / (k / (1.0 + k))
    return _as_probability(raw, "conditional_case_ii_outage")


def total_outage(scheme: SchemeId, params: SystemParams) -> float:
    """Secondary outage probability of a scheme with a closed form (RS, NH-SIC, QoS-SIC)."""
    if scheme is SchemeId.RS:
        return rs_total_outage(params)
    if scheme in (SchemeId.NH_SIC, SchemeId.QOS_SIC):
        raw = rs_case_i_outage(params) + case_ii_outage(scheme, params) + rs_case_iii_outage(params)
        return _as_probability(raw, f"total_outage[{scheme.value}]")
    raise UnknownSchemeError(f"no closed-form total outage for {scheme}")


def total_outage_high_snr(scheme: SchemeId, params: SystemParams) -> float:
    """Headline high-SNR total outage: eta1, plus the QoS-SIC floor where it exists.

    This is an asymptote, not a probability, and is returned unchecked for
    every scheme, as ``rs_high_snr`` does: at low SNR it exceeds 1 (eta1 is
    18.92 at p1 = -20 dB, r1 = 0.25), where the approximation does not apply.
    """
    c = derive_constants(params)
    if scheme in (SchemeId.RS, SchemeId.NH_SIC):
        return c.eta1
    if scheme is SchemeId.QOS_SIC:
        return c.eta1 + qos_sic_outage_floor(params)
    raise UnknownSchemeError(f"no high-SNR approximation for {scheme}")


def delay_limited_throughput(scheme: SchemeId, params: SystemParams) -> float:
    """Target rate times success probability at that fixed rate, in BPCU."""
    return params.r1_hat * (1.0 - total_outage(scheme, params))


@dataclass(frozen=True)
class AnalyticReport:
    """Per-case and total secondary outage of one scheme, with the high-SNR headline."""

    scheme: SchemeId
    pout_case_i: float
    pout_case_ii: float
    pout_case_iii: float
    pout_total: float
    pout_total_hi_snr: float


def analytic_report(scheme: SchemeId, params: SystemParams) -> AnalyticReport:
    """All closed-form outage terms of one scheme in a single pass."""
    return AnalyticReport(
        scheme=scheme,
        pout_case_i=rs_case_i_outage(params),
        pout_case_ii=case_ii_outage(scheme, params),
        pout_case_iii=rs_case_iii_outage(params),
        pout_total=total_outage(scheme, params),
        pout_total_hi_snr=total_outage_high_snr(scheme, params),
    )

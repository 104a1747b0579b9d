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

The closed forms share one record (``_Point``) of the terms of the last
``SystemParams`` object they were called with, tested with ``is``. It computes
the terms that cannot fail up front: exp(-eta0), exp(-eta0*(1+eps1) - eta1),
the case-III clear term and QoS-SIC's strip end. The five strips (admission
and first-clear to either strip end, and RS crossing) are evaluated on first
use and kept, and so are the clamped case-I and case-III outages; a term that
raises is not kept, so it raises the same error again. analytic_report,
conditional_case_ii_outage and delay_limited_throughput of RS, NH-SIC and
QoS-SIC at one point evaluate 5 strips instead of 23, and the three schemes'
reports share one case-I and one case-III float object. Only the last point
is kept, so a second pass over a grid computes every point again.

Probabilities are clamped to [0, 1] only after checking the raw value lies in
[-1e-9, 1 + 1e-9]; a worse violation raises instead of hiding a broken formula.
A strip term (or the QoS-SIC floor) that divides by an underflowed zero or
overflows math.exp, as at p0 = 1e300 with p1 = 1e-300, raises ParameterError.
Where the admission probability underflows (eta0 above ~708), the conditional
outage drops the factor exp(-eta0) that it shares with every case-II term.

``analytic_report`` refuses a scheme without closed forms before it evaluates
anything; otherwise it returns the same values, and raises the same errors,
as the standalone forms. Its result is a frozen, slotted dataclass.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import ParameterError, ProbabilityRangeError, UnknownSchemeError
from .params import SystemParams, _slot_init
from .strategy import _NH_SIC, _QOS_SIC, _RS, SchemeId

# the schemes with closed forms; CSI-SIC is simulation-only
_CLOSED_FORM_SCHEMES = (_RS, _NH_SIC, _QOS_SIC)
_RANGE_SLACK = 1e-9
# below this, width*(1+nu) is treated by series instead of the generic quotient
_SERIES_CUTOFF = 1e-6


def _token(scheme: SchemeId) -> object:
    """The scheme's CLI token, such as csi-sic; a value that is not a SchemeId as it is."""
    return getattr(scheme, "value", scheme)


def _as_probability(raw: float, what: str, scheme: SchemeId | None = None) -> float:
    """raw checked and clamped to [0, 1]; what, with scheme's token in brackets, names it in an error.

    Nearly every value lies strictly inside (0, 1) and is returned after one
    comparison; the label is formatted only when the check raises. -0.0
    returns +0.0.
    """
    if 0.0 < raw < 1.0:
        return raw
    if not math.isfinite(raw) or raw < -_RANGE_SLACK or raw > 1.0 + _RANGE_SLACK:
        label = what if scheme is None else f"{what}[{scheme.value}]"
        raise ProbabilityRangeError(f"{label} evaluated to {raw!r}, outside [0, 1]")
    return min(1.0, max(0.0, raw))


def _in_float_range(term):
    """term, with a float overflow or a zero divisor inside it raised as one ParameterError.

    Accepted powers can leave the float range: at p0 = 1e300, p1 = 1e-300,
    p1*eta0 underflows to 0 in the admission strip, and at other corners an
    exponent overflows math.exp.
    """
    @functools.wraps(term)
    def checked(*args):
        try:
            return term(*args)
        except ArithmeticError as exc:
            raise ParameterError(f"closed forms leave the float range at these powers and rates "
                                 f"({exc} in {term.__name__})") from None
    return checked


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


@_in_float_range
def _admission_strip(params: SystemParams, hi: float | None, shift: float = 0.0) -> float:
    """exp(1/p1) * J(1/(p1*eta0); eta0, hi): admitted with p1*g1 above tau, every scheme."""
    return _scaled_strip(1.0 / params.p1 + shift, 1.0 / (params.p1 * params.eta0), params.eta0, hi)


@_in_float_range
def _first_clear_strip(params: SystemParams, hi: float | None, shift: float = 0.0) -> float:
    """exp(-eta1) * J(p0*eta1; eta0, hi): U1 clears eps1 decoded before x0."""
    return _scaled_strip(-params.eta1 + shift, params.p0 * params.eta1, params.eta0, hi)


@_in_float_range
def _rs_crossing_strip(params: SystemParams, hi: float, shift: float = 0.0) -> float:
    """exp(-(eps0+eps1+eps0*eps1)/p1) * J(-p0/p1; eta0, hi), the strip RS's case-II rate clears."""
    crossing = params.eps0 + params.eps1 + params.eps0 * params.eps1
    return _scaled_strip(-crossing / params.p1 + shift, -params.p0 / params.p1, params.eta0, hi)


class _Point:
    """The terms of one parameter point: four computed up front, five strips on first use.

    hi = eta0*(1+eps1) is the strip end; shift is added to each strip's
    log-scale. Every exp argument set here is <= 0, the expm1 argument is <= 0
    or NaN, k >= 1 and 1 - eps0*eps1 > 0 where it divides, and params holds
    its thresholds, so _Point(params) never raises. The clamped case-I and
    case-III outages are kept too, on first use; they ignore shift, so they are
    read on unshifted records only. A term that raises keeps nothing.
    """

    __slots__ = ("params", "hi", "shift", "exp_eta0", "clear_end", "case_iii", "qos_hi",
                 "_admission", "_first_clear", "_crossing", "_qos_admission", "_qos_first_clear",
                 "_pout_i", "_pout_iii")

    def __init__(self, params: SystemParams, shift: float = 0.0) -> None:
        self.params, self.shift = params, shift
        self.hi = params.eta0 * (1.0 + params.eps1)
        self.exp_eta0 = math.exp(-params.eta0)  # P{g0 > eta0}
        self.clear_end = math.exp(-self.hi - params.eta1)  # g0 past the strip end, U1 clearing eps1 alone
        k = params.p0 * params.eta1 + 1.0
        self.case_iii = math.exp(-params.eta1) * (-math.expm1(-params.eta0 * k)) / k  # case III, no outage
        # QoS-SIC's strip end: hi/(1 - eps0*eps1), or infinity (None) once eps0*eps1 >= 1
        product = params.eps0 * params.eps1
        self.qos_hi = self.hi / (1.0 - product) if product < 1.0 else None
        self._admission = self._first_clear = self._crossing = None
        self._qos_admission = self._qos_first_clear = None
        self._pout_i = self._pout_iii = None

    def admission(self) -> float:
        if self._admission is None:
            self._admission = _admission_strip(self.params, self.hi, self.shift)
        return self._admission

    def first_clear(self) -> float:
        if self._first_clear is None:
            self._first_clear = _first_clear_strip(self.params, self.hi, self.shift)
        return self._first_clear

    def crossing(self) -> float:
        if self._crossing is None:
            self._crossing = _rs_crossing_strip(self.params, self.hi, self.shift)
        return self._crossing

    def qos_admission(self) -> float:
        if self._qos_admission is None:
            self._qos_admission = _admission_strip(self.params, self.qos_hi, self.shift)
        return self._qos_admission

    def qos_first_clear(self) -> float:
        if self._qos_first_clear is None:
            self._qos_first_clear = _first_clear_strip(self.params, self.qos_hi, self.shift)
        return self._qos_first_clear

    def pout_case_i(self) -> float:
        if self._pout_i is None:
            self._pout_i = _as_probability(self.exp_eta0 - self.admission() - self.clear_end,
                                           "rs_case_i_outage")
        return self._pout_i

    def pout_case_iii(self) -> float:
        if self._pout_iii is None:
            self._pout_iii = _as_probability(1.0 - self.exp_eta0 - self.case_iii, "rs_case_iii_outage")
        return self._pout_iii


_last_point: _Point | None = None


def _point(params: SystemParams) -> _Point:
    """The record of params, kept while the same params object (tested with is) comes back.

    Only the last point is kept, and the record holds its params, so that
    object's id cannot be reused while it is kept.
    """
    global _last_point
    point = _last_point
    if point is None or point.params is not params:
        point = _last_point = _Point(params)
    return point


def _require_case_ii(scheme: SchemeId) -> None:
    """Raise UnknownSchemeError for a scheme without a closed-form case-II outage."""
    if scheme not in _CLOSED_FORM_SCHEMES:
        raise UnknownSchemeError(f"no closed-form case-II outage for {_token(scheme)}")


def _case_ii_raw(scheme: SchemeId, point: _Point) -> float:
    """Unclamped case-II outage of one scheme times exp(point.shift).

    RS: admission - crossing strip. NH-SIC: admission - first-clear strip.
    QoS-SIC: as NH-SIC, to eta0*(1+eps1)/(1 - eps0*eps1), or to infinity once eps0*eps1 >= 1.
    """
    if scheme is _RS:
        return point.admission() - point.crossing()
    if scheme is _QOS_SIC:
        return point.qos_admission() - point.qos_first_clear()
    _require_case_ii(scheme)
    return point.admission() - point.first_clear()


def case_ii_outage(scheme: SchemeId, params: SystemParams) -> float:
    """P{case II, secondary outage} of RS, NH-SIC or QoS-SIC."""
    return _as_probability(_case_ii_raw(scheme, _point(params)), "case_ii_outage", scheme)


def rs_case_ii_outage(params: SystemParams) -> float:
    """P{tau > 0, p1*g1 > tau, case-II RS rate < target}.

    exp(1/p1) * J(1/(p1*eta0)) - exp(-(eps0+eps1+eps0*eps1)/p1) * J(-p0/p1),
    both strips over [eta0, eta0*(1+eps1)].
    """
    return case_ii_outage(SchemeId.RS, params)


def rs_case_i_outage(params: SystemParams) -> float:
    """P{tau > 0, p1*g1 <= tau, log2(1 + p1*g1) < target}."""
    return _point(params).pout_case_i()


def rs_case_iii_outage(params: SystemParams) -> float:
    """P{tau = 0, log2(1 + p1*g1/(p0*g0 + 1)) < target}."""
    return _point(params).pout_case_iii()


def rs_total_outage(params: SystemParams) -> float:
    """Secondary outage probability of the RS scheme, evaluated in one expression.

    1 - exp(-eta0*(1+eps1) - eta1)
      - exp(-(eps0+eps1+eps0*eps1)/p1) * J(-p0/p1)
      - exp(-eta1) * (1 - exp(-eta0*(p0*eta1 + 1))) / (p0*eta1 + 1)

    The three per-case terms sum to this identically; tests pin the identity.
    """
    point = _point(params)
    return _as_probability(1.0 - point.clear_end - point.crossing() - point.case_iii, "rs_total_outage")


def qos_sic_case_ii_outage(params: SystemParams) -> float:
    """Case-II outage of the QoS-SIC baseline.

    The outage strip is eta0 < g0 < eta0*(1+eps1)/(1 - eps0*eps1) while
    eps0*eps1 < 1; for eps0*eps1 >= 1 the g1 interval is nonempty for every
    admitted g0 and the strip extends to infinity, which is what pins the
    outage floor. Both branches are the exact finite-SNR integrals and meet
    continuously at eps0*eps1 = 1.
    """
    return case_ii_outage(SchemeId.QOS_SIC, params)


@_in_float_range
def qos_sic_outage_floor(params: SystemParams) -> float:
    """Transmit-SNR-independent limit of the QoS-SIC case-II outage.

    p0*p1*(eps0*eps1 - 1) / ((p0*eps1 + p1)*(p0 + eps0*p1)) for
    eps0*eps1 >= 1 (a fixed-ratio power scaling leaves it unchanged), and 0
    otherwise: below the product-1 boundary the outage keeps decaying.
    """
    product = params.eps0 * params.eps1
    if product < 1.0:
        return 0.0
    raw = (params.p0 * params.p1 * (product - 1.0)
           / ((params.p0 * params.eps1 + params.p1) * (params.p0 + params.eps0 * params.p1)))
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
    point = _point(params)
    return _as_probability(point.crossing() - point.first_clear(), "case_ii_outage_gap")


def admission_probability(params: SystemParams) -> float:
    """P{tau > 0 and p1*g1 > tau} = p1*eta0*exp(-eta0) / (1 + p1*eta0)."""
    point = _point(params)
    k = params.p1 * params.eta0
    raw = k * point.exp_eta0 / (1.0 + k)
    return _as_probability(raw, "admission_probability")


def primary_outage_probability(params: SystemParams) -> float:
    """P{g0 < eta0} = 1 - exp(-eta0), identical under every scheme."""
    return _as_probability(-math.expm1(-params.eta0), "primary_outage_probability")


def conditional_case_ii_outage(scheme: SchemeId, params: SystemParams) -> float:
    """Case-II outage conditioned on the case-II event itself.

    Below the smallest normal float (0 included), the admission probability
    k*exp(-eta0)/(1 + k), k = p1*eta0, is replaced by k/(1 + k) and the case-II
    strips are shifted by eta0 in log-scale: the same ratio, without the underflow.
    """
    denom = admission_probability(params)
    if denom >= sys.float_info.min:
        return _as_probability(case_ii_outage(scheme, params) / denom, "conditional_case_ii_outage")
    k = params.p1 * params.eta0
    raw = _case_ii_raw(scheme, _Point(params, shift=params.eta0)) / (k / (1.0 + k))
    return _as_probability(raw, "conditional_case_ii_outage")


def total_outage(scheme: SchemeId, params: SystemParams) -> float:
    """Secondary outage probability of a scheme with a closed form (RS, NH-SIC, QoS-SIC)."""
    if scheme is _RS:
        return rs_total_outage(params)
    if scheme is _NH_SIC or scheme is _QOS_SIC:
        raw = rs_case_i_outage(params) + case_ii_outage(scheme, params) + rs_case_iii_outage(params)
        return _as_probability(raw, "total_outage", scheme)
    raise UnknownSchemeError(f"no closed-form total outage for {_token(scheme)}")


def total_outage_high_snr(scheme: SchemeId, params: SystemParams) -> float:
    """Headline high-SNR total outage: eta1, plus the QoS-SIC floor where it exists.

    This is the paper's one high-SNR claim: the RS total outage tends to
    eta1, diversity order 1. It is an asymptote, not a probability, and is
    returned unchecked for every scheme: at low SNR it exceeds 1 (eta1 is
    18.92 at p1 = -20 dB, r1 = 0.25), where the approximation does not apply.
    """
    if scheme is _RS or scheme is _NH_SIC:
        return params.eta1
    if scheme is _QOS_SIC:
        return params.eta1 + qos_sic_outage_floor(params)
    raise UnknownSchemeError(f"no high-SNR approximation for {_token(scheme)}")


def delay_limited_throughput(scheme: SchemeId, params: SystemParams) -> float:
    """Target rate times success probability at that fixed rate, in BPCU."""
    return params.r1_hat * (1.0 - total_outage(scheme, params))


@_slot_init
@dataclass(frozen=True, slots=True)
class AnalyticReport:
    """Per-case and total secondary outage of one scheme, with the high-SNR headline."""

    scheme: SchemeId
    pout_case_i: float
    pout_case_ii: float
    pout_case_iii: float
    pout_total: float
    pout_total_hi_snr: float


def analytic_report(scheme: SchemeId, params: SystemParams) -> AnalyticReport:
    """All closed-form outage terms of one scheme in a single pass.

    A scheme without closed forms raises UnknownSchemeError before any term
    is evaluated. Each case term is evaluated once. The NH-SIC and QoS-SIC
    total is total_outage's own sum of those three values, so every field,
    and every error raised, is the standalone form's.
    """
    _require_case_ii(scheme)
    case_i = rs_case_i_outage(params)
    case_ii = case_ii_outage(scheme, params)
    case_iii = rs_case_iii_outage(params)
    total = (rs_total_outage(params) if scheme is _RS
             else _as_probability(case_i + case_ii + case_iii, "total_outage", scheme))
    return AnalyticReport(scheme, case_i, case_ii, case_iii, total,
                          total_outage_high_snr(scheme, params))

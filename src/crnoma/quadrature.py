"""Independent numerical evaluation of the RS case-II outage probability.

The case-II outage event is a g1 interval whose endpoints are affine in g0,
integrated against the joint exponential density. The inner g1 integral is
analytic (a difference of two exponentials); the outer g0 integral runs over
[eta0, eta0*(1+eps1)]. The upper limit is the point where the g1 interval
closes; the wider "positive upper bound" limit eta0*(1+eps1) + eps1/p0 would
integrate a signed tail that does not belong to the event.

The outer integral is computed by QUADPACK's QAG scheme (Piessens,
de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*, Springer 1983): the
21-point Gauss-Kronrod rule QK21, with its embedded 10-point Gauss rule as the
error estimate, and globally adaptive bisection of the interval with the
largest error until the summed estimate meets the tolerance: an absolute
or relative error of 1e-12 (``_ABS_TOL``, ``_REL_TOL``), reached within 200
subintervals (``_MAX_SUBDIVISIONS``) or the call raises. The integrand is
an entire function on a finite interval, so QAGS's epsilon-algorithm
extrapolation, which targets endpoint singularities, would buy nothing here.

This module is the cross-check for the closed form in :mod:`crnoma.analytic`
and deliberately shares no code with it.
"""

from __future__ import annotations

import heapq
import math
import sys
from operator import mul

from .errors import QuadratureError
from .params import SystemParams

_PROBABILITY_SLACK = 1e-9

# QK21 nodes on [-1, 1] and weights: QUADPACK's values, as tabulated in SciPy's
# scipy/integrate/_quad_vec.py (BSD-3-Clause). The Gauss nodes are the odd
# positions _XK[1::2], with weights _WG.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_XK = _XK + (0.0,) + tuple(-x for x in reversed(_XK))
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WK = _WK + (0.149445554002916905664936468389821,) + tuple(reversed(_WK))
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_WG = _WG + tuple(reversed(_WG))

_EPS = sys.float_info.epsilon
_ROUNDOFF_FLOOR_MIN = sys.float_info.min / (50.0 * _EPS)


_ABS_TOL = 1e-12
_REL_TOL = 1e-12
_MAX_SUBDIVISIONS = 200


def _qk21(f, a: float, b: float) -> tuple[float, float]:
    """QUADPACK's QK21 on [a, b]: the Kronrod estimate and its error estimate.

    f maps a list of abscissae to the list of integrand values, so the 21
    evaluations run in one comprehension instead of 21 calls.
    """
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = f([centre + half * x for x in _XK])
    resk = sum(map(mul, _WK, fv))
    mean = 0.5 * resk
    # with no negative value, the sum of |f| takes the same steps as the sum of f
    resabs = abs(half) * (resk if min(fv) >= 0.0 else sum(map(mul, _WK, map(abs, fv))))
    resasc = abs(half) * sum(map(mul, _WK, [abs(v - mean) for v in fv]))
    err = abs((resk - sum(map(mul, _WG, fv[1::2]))) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _ROUNDOFF_FLOOR_MIN:
        err = max(err, 50.0 * _EPS * resabs)
    return resk * half, err


def _qag(f, a: float, b: float) -> float:
    """Globally adaptive QK21: bisect the largest-error interval until the sum meets the tolerance."""
    value, err = _qk21(f, a, b)
    heap = [(-err, a, b, value)]  # max-heap on the error estimate
    total_err = err
    while total_err > max(_ABS_TOL, _REL_TOL * abs(value)):
        if len(heap) >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"case-II quadrature did not converge on [{a!r}, {b!r}]: error estimate "
                f"{total_err!r} after {len(heap)} subintervals")
        neg_err, lo, hi, part = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, left_err = _qk21(f, lo, mid)
        right, right_err = _qk21(f, mid, hi)
        heapq.heappush(heap, (-left_err, lo, mid, left))
        heapq.heappush(heap, (-right_err, mid, hi, right))
        value += left + right - part
        total_err += left_err + right_err + neg_err
    return math.fsum(entry[3] for entry in heap)


def _outer_integrand(params: SystemParams):
    # P{lower < g1 < upper} * exp(-y) with lower = (p0*y/eps0 - 1)/p1 and
    # upper = (crossing - p0*y)/p1. Both exponents, -lower - y and -upper - y,
    # are affine in y; combine them before exponentiation.
    p0, p1, eps0, eps1 = params.p0, params.p1, params.eps0, params.eps1
    crossing = (1.0 + eps0) * (1.0 + eps1) - 1.0
    a0, a1 = 1.0 / p1, -(p0 / (eps0 * p1) + 1.0)
    b0, b1 = -crossing / p1, p0 / p1 - 1.0
    exp = math.exp

    def integrand(ys: list[float]) -> list[float]:
        return [exp(a0 + a1 * y) - exp(b0 + b1 * y) for y in ys]

    return integrand


def case_ii_outage_quadrature(params: SystemParams) -> float:
    """RS case-II outage probability by adaptive quadrature of the g0 integral."""
    lo = params.eta0
    hi = params.eta0 * (1.0 + params.eps1)
    if hi <= lo:
        return 0.0
    value = _qag(_outer_integrand(params), lo, hi)
    if not math.isfinite(value) or value < -_PROBABILITY_SLACK or value > 1.0 + _PROBABILITY_SLACK:
        raise QuadratureError(f"case-II quadrature produced a non-probability: {value!r}")
    return min(1.0, max(0.0, value))

"""Independent numerical evaluation of the RS case-II outage probability.

The case-II outage event is a g1 interval whose endpoints are affine in g0,
integrated against the joint exponential density. The inner g1 integral is
analytic (a difference of two exponentials); the outer g0 integral runs over
[eta0, eta0*(1+eps1)] and is handled by adaptive Gauss-Kronrod quadrature.
The upper limit is the point where the g1 interval closes; the wider
"positive upper bound" limit eta0*(1+eps1) + eps1/p0 would integrate a signed
tail that does not belong to the event.

This module is the cross-check for the closed form in :mod:`crnoma.analytic`
and deliberately shares no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, QuadratureError
from .params import SystemParams, derive_constants

_PROBABILITY_SLACK = 1e-9
_quad = None  # scipy.integrate.quad, bound on first use: importing crnoma skips scipy


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance contract for the adaptive rule; the rule itself is not part of it."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ParameterError("quadrature tolerances must be positive")
        if not isinstance(self.max_subdivisions, int) or self.max_subdivisions < 1:
            raise ParameterError("max_subdivisions must be a positive integer")


def _outer_integrand(params: SystemParams, eps0: float, eps1: float):
    p0, p1 = params.p0, params.p1
    crossing = (1.0 + eps0) * (1.0 + eps1) - 1.0

    def integrand(y: float) -> float:
        # P{lower < g1 < upper} * exp(-y), exponents combined before exponentiation
        lower = (p0 * y / eps0 - 1.0) / p1
        upper = (crossing - p0 * y) / p1
        return math.exp(-lower - y) - math.exp(-upper - y)

    return integrand


def case_ii_outage_quadrature(params: SystemParams, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """RS case-II outage probability by adaptive quadrature of the g0 integral."""
    global _quad
    if _quad is None:
        from scipy.integrate import quad as _quad

    c = derive_constants(params)
    lo = c.eta0
    hi = c.eta0 * (1.0 + c.eps1)
    if hi <= lo:
        return 0.0
    value, abserr, info, *tail = _quad(
        _outer_integrand(params, c.eps0, c.eps1), lo, hi,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=spec.max_subdivisions,
        full_output=1,
    )
    if tail:  # quadpack appended a warning message: tolerance not certified
        raise QuadratureError(
            f"case-II quadrature did not converge on [{lo!r}, {hi!r}]: {tail[0].strip()}"
        )
    if not math.isfinite(value) or value < -_PROBABILITY_SLACK or value > 1.0 + _PROBABILITY_SLACK:
        raise QuadratureError(f"case-II quadrature produced a non-probability: {value!r}")
    return min(1.0, max(0.0, value))

"""System parameters, derived constants, and channel-gain containers.

Powers are linear transmit SNRs (noise power normalized to 1); target rates
are in bits per channel use (BPCU). The dB -> linear helper exists for the
CLI boundary only; the library API is linear throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def _require_positive_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Transmit powers and target rates of the primary (0) and secondary (1) users.

    p0, p1   : linear transmit SNRs, > 0
    r0_hat   : primary target rate, BPCU, > 0
    r1_hat   : secondary target rate, BPCU, > 0
    """

    p0: float
    p1: float
    r0_hat: float
    r1_hat: float

    def __post_init__(self) -> None:
        for name in ("p0", "p1", "r0_hat", "r1_hat"):
            object.__setattr__(self, name, _require_positive_finite(name, getattr(self, name)))

    @cached_property
    def _constants(self) -> DerivedConstants:
        # stored in the instance __dict__ on first success; a raising
        # derivation stores nothing and raises again on the next call
        return _derive_constants(self)


@dataclass(frozen=True)
class DerivedConstants:
    """SINR thresholds eps_i = 2^r_i - 1 and normalized thresholds eta_i = eps_i / p_i."""

    eps0: float
    eps1: float
    eta0: float
    eta1: float


def derive_constants(params: SystemParams) -> DerivedConstants:
    """Map target rates and powers to (eps0, eps1, eta0, eta1).

    eps_i = 2^r_i - 1 is the SINR a rate-r_i codeword needs; eta_i = eps_i / p_i
    is the corresponding channel-gain threshold. The constants are derived once
    per SystemParams instance, on first use, and the same object is returned
    on every later call.
    """
    return params._constants


def _derive_constants(params: SystemParams) -> DerivedConstants:
    try:
        eps0 = 2.0 ** params.r0_hat - 1.0
        eps1 = 2.0 ** params.r1_hat - 1.0
    except OverflowError as exc:
        raise ParameterError(f"target rate too large: {exc}") from None
    for name, value in (("eps0", eps0), ("eps1", eps1)):
        if not math.isfinite(value) or value <= 0.0:
            raise ParameterError(f"derived constant {name} is not positive finite: {value!r}")
    return DerivedConstants(eps0=eps0, eps1=eps1, eta0=eps0 / params.p0, eta1=eps1 / params.p1)


@dataclass(frozen=True)
class ChannelRealization:
    """One Rayleigh-fading draw: squared channel magnitudes of both users."""

    g0: float
    g1: float

    def __post_init__(self) -> None:
        for name in ("g0", "g1"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

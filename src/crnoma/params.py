"""System parameters, with their SINR thresholds, and channel-gain containers.

Powers are linear transmit SNRs (noise power normalized to 1); target rates
are in bits per channel use (BPCU). The dB -> linear helper exists for the
CLI boundary only; the library API is linear throughout.

The types are frozen dataclasses. ChannelRealization has __slots__ and no
__dict__; SystemParams keeps a __dict__, which holds the thresholds it
computes when it is built. ``_slot_init`` gives every frozen, slotted value
type of the package a faster ``__init__``.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from types import MemberDescriptorType

from .errors import ParameterError


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def _as_float(name: str, value: float) -> float:
    """value as a float; a non-number, a bool (JSON true) or text such as '10' raises ParameterError."""
    if isinstance(value, (bool, str, bytes, bytearray)):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None


def _as_count(name: str, value: int, low: int, high: int | None = None) -> int:
    """value as a plain int in [low, high) (high a power of two), or >= low without high.

    The one check of every count: a numpy integer is converted, and a bool (JSON true),
    a float, a string or any other non-integer raises ParameterError.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        count = int(value)
        if count >= low and (high is None or count < high):
            return count
    span = f"of at least {low}" if high is None else f"in [{low}, 2^{high.bit_length() - 1})"
    raise ParameterError(f"{name} must be an integer {span}, got {value!r}")


def _slot_init(cls: type) -> type:
    """Give a frozen, slotted dataclass an __init__ that stores each field through its slot.

    The dataclass's own __init__ stores each field with object.__setattr__,
    since the class's __setattr__ refuses; this one calls each field's slot
    descriptor (cls.<field>.__set__) instead, in a straight-line function
    built as dataclasses builds its own. TransmissionOutcome(...) takes
    ~330 ns instead of ~560 ns (CPython 3.11). The parameter names, defaults
    and annotations, and the __post_init__ call, are the dataclass's; so are
    replace, ==, hash, repr, pickling and the FrozenInstanceError on
    assignment, which this leaves alone. A class whose __init__ is not one
    positional-or-keyword parameter per slotted field, with plain defaults,
    raises TypeError.
    """
    closure, params, body = {}, [], []
    for f in fields(cls):
        slot = cls.__dict__.get(f.name)
        if not isinstance(slot, MemberDescriptorType):
            raise TypeError(f"{cls.__name__}.{f.name} is not a slot")
        closure[f"_set_{f.name}"] = slot.__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            closure[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"  _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    source = (f"def _make({', '.join(closure)}):\n def __init__(self, {', '.join(params)}):\n"
              + "\n".join(body) + "\n return __init__")
    namespace: dict = {}
    exec(source, {"__name__": cls.__module__}, namespace)
    init = namespace["_make"](**closure)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)
    if inspect.signature(init) != inspect.signature(cls.__init__):
        raise TypeError(f"{cls.__name__}.__init__ is not one parameter per field")
    cls.__init__ = init
    return cls


def _require_positive_finite(name: str, value: float) -> float:
    value = _as_float(name, value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Transmit powers and target rates of the primary (0) and secondary (1) users.

    p0, p1   : linear transmit SNRs, > 0
    r0_hat   : primary target rate, BPCU, > 0
    r1_hat   : secondary target rate, BPCU, > 0

    Built with four read-only attributes: the SINR thresholds
    eps_i = 2^r_i - 1 that a rate-r_i codeword needs, and the channel-gain
    thresholds eta_i = eps_i / p_i. A rate whose threshold is unusable is
    refused here.
    """

    p0: float
    p1: float
    r0_hat: float
    r1_hat: float

    def __post_init__(self) -> None:
        for name in ("p0", "p1", "r0_hat", "r1_hat"):
            object.__setattr__(self, name, _require_positive_finite(name, getattr(self, name)))
        eps0 = _sinr_threshold("r0_hat", self.r0_hat)
        eps1 = _sinr_threshold("r1_hat", self.r1_hat)
        # attributes, not fields: ==, hash and repr see the four fields only. Set one by one,
        # since reading self.__dict__ would make every attribute read a dict lookup
        for name, value in zip(("eps0", "eps1", "eta0", "eta1"),
                               (eps0, eps1, eps0 / self.p0, eps1 / self.p1)):
            object.__setattr__(self, name, value)


def _sinr_threshold(name: str, rate: float) -> float:
    """2^rate - 1; a rate whose threshold overflows or rounds to 0 raises ParameterError naming it."""
    try:
        eps = 2.0 ** rate - 1.0
    except OverflowError:
        raise ParameterError(f"target rate too large: {name} = {rate!r}") from None
    if eps <= 0.0:
        raise ParameterError(f"target rate too small: {name} = {rate!r} rounds 2^{name} - 1 to {eps!r}")
    return eps


@_slot_init
@dataclass(frozen=True, slots=True)
class ChannelRealization:
    """One Rayleigh-fading draw: squared channel magnitudes of both users."""

    g0: float
    g1: float

    def __post_init__(self) -> None:
        for name in ("g0", "g1"):
            value = _as_float(name, getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

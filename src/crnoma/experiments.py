"""Sweep definitions, figure presets, and tabular CSV/JSON persistence.

A sweep walks one axis (secondary transmit SNR in dB, or the secondary target
rate) and evaluates a grid of scheme x metric cells with the analytic
expressions, the Monte Carlo estimator, or both. On the SNR axis the primary
power follows the secondary one, p0 = ratio * p1, where ratio is a key of
fixed that only this axis reads. The named presets are the standard
comparison layouts for this system (outage vs SNR at p0 = p1 and at
p0 = p1/10, conditional outage vs SNR and vs target rate, throughput vs SNR)
at desk scale; grids and sample counts are configurable.

A SweepSpec checks every one of its points when it is built, so a bad config
fails once, before any cell runs; run_sweep records only the failures that
depend on the numerics or the draws.

Output rows are ordered deterministically (axis-major, then scheme, metric,
engine in the order requested) and floats are serialized with shortest
round-trip precision, so a fixed seed yields byte-identical files regardless
of the parallelism degree underneath.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from . import analytic
from .channel import SamplerConfig
from .errors import ParameterError, UnknownSchemeError
from .estimator import (_SECONDARY_SCHEMES, Metric, _tally_products, _worker_count,
                        estimate_from_tally, simulate_tally)
from .params import (SystemParams, _as_count, _as_float, _require_positive_finite, _slot_init,
                     db_to_linear)
from .strategy import SchemeId

AXES = ("P1_DB", "TARGET_RATE_R1")
ENGINES = ("ANALYTIC", "MONTE_CARLO", "BOTH")
# the `fixed` keys each axis reads in params_at
_FIXED_KEYS = {"P1_DB": ("r0", "r1", "ratio"), "TARGET_RATE_R1": ("r0", "p0_db", "p1_db")}


@dataclass(frozen=True)
class SweepSpec:
    """One experiment axis with everything needed to reproduce it.

    However it is built, a spec converts each field once: axis_values to floats,
    schemes and metrics (or their tokens, such as "rs") to SchemeId and Metric, and
    counts to ints. So a spec built directly equals the one from_dict builds from the
    same JSON. A bad value, a repeated scheme or metric, or a bad point raises ParameterError.
    """

    axis: str
    axis_values: tuple[float, ...]
    fixed: dict
    schemes: tuple[SchemeId, ...]
    metrics: tuple[Metric, ...]
    engine: str = "BOTH"
    n_samples: int = 1_000_000
    seed: int = 2024
    stream_count: int = 16

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ParameterError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.engine not in ENGINES:
            raise ParameterError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if not isinstance(self.fixed, dict):
            raise ParameterError(f"fixed must be a mapping, got {self.fixed!r}")
        for name, items in (("axis_values", self.axis_values), ("schemes", self.schemes),
                            ("metrics", self.metrics)):
            if isinstance(items, str):  # iterated, "05" would read as the axis values 0 and 5
                raise ParameterError(f"{name} must be a list, not the string {items!r}")
        try:
            converted = dict(axis_values=tuple(_as_float("axis_values", v) for v in self.axis_values),
                             schemes=tuple(map(SchemeId, self.schemes)),
                             metrics=tuple(map(Metric, self.metrics)))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"bad sweep config: {exc}") from None
        n_samples = _as_count("n_samples", self.n_samples, 1)
        sampler = SamplerConfig(seed=self.seed, stream_count=self.stream_count)
        # fixed is a copy, so later edits to the caller's dict cannot undo the checks below
        converted.update(fixed=dict(self.fixed), n_samples=n_samples, seed=sampler.seed,
                         stream_count=sampler.stream_count)
        for name, value in converted.items():
            object.__setattr__(self, name, value)
        missing = [k for k in _FIXED_KEYS[self.axis] if k not in self.fixed]
        if missing:
            raise ParameterError(f"fixed is missing {missing} for axis {self.axis}")
        unread = sorted(set(self.fixed) - set(_FIXED_KEYS[self.axis]))
        if unread:
            raise ParameterError(f"fixed has keys {unread} that axis {self.axis} does not read")
        if not self.axis_values or any(b <= a for a, b in zip(self.axis_values, self.axis_values[1:])):
            raise ParameterError("axis_values must be nonempty and strictly increasing")
        for name, items in (("schemes", self.schemes), ("metrics", self.metrics)):
            if not items:
                raise ParameterError("schemes and metrics must be nonempty")
            repeats = list(dict.fromkeys(x.value for x in items if items.count(x) > 1))
            if repeats:
                raise ParameterError(f"{name} lists {repeats} more than once")
        # the only check of the points themselves: run_sweep trusts every one
        for value in self.axis_values:
            try:
                self.params_at(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"axis value {value!r} is not a valid point: {exc}") from None

    def params_at(self, axis_value: float) -> SystemParams:
        if self.axis == "P1_DB":
            p1 = db_to_linear(axis_value)
            ratio = _require_positive_finite("ratio", self.fixed["ratio"])
            return SystemParams(p0=ratio * p1, p1=p1,
                                r0_hat=self.fixed["r0"], r1_hat=self.fixed["r1"])
        p0 = db_to_linear(_as_float("p0_db", self.fixed["p0_db"]))
        p1 = db_to_linear(_as_float("p1_db", self.fixed["p1_db"]))
        return SystemParams(p0=p0, p1=p1, r0_hat=self.fixed["r0"], r1_hat=axis_value)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["axis_values"] = list(self.axis_values)
        d["schemes"] = [s.value for s in self.schemes]
        d["metrics"] = [m.value for m in self.metrics]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        required = {f.name: f.default is MISSING for f in fields(cls)}
        unknown = sorted(set(d) - set(required))
        if unknown:
            raise ParameterError(f"unknown sweep config keys {unknown}")
        missing = [k for k, needed in required.items() if needed and k not in d]
        if missing:
            raise ParameterError(f"sweep config is missing keys {missing}")
        return cls(**d)


def save_spec(spec: SweepSpec, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(spec.to_dict(), indent=2) + "\n")
    return path


def load_spec(path: str | Path) -> SweepSpec:
    try:
        d = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParameterError(f"cannot read sweep config: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParameterError(f"sweep config {path} is not JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ParameterError(f"sweep config {path} must be a JSON object")
    return SweepSpec.from_dict(d)


@_slot_init
@dataclass(frozen=True, slots=True)
class SweepRow:
    axis_value: float
    scheme: SchemeId
    metric: Metric
    engine: str
    value: float
    std_error: float | None = None


@_slot_init
@dataclass(frozen=True, slots=True)
class CellFailure:
    axis_value: float
    scheme: SchemeId
    metric: Metric
    engine: str
    message: str


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)


def _analytic_value(scheme: SchemeId, metric: Metric, params: SystemParams) -> float:
    if metric is Metric.PRIMARY_OUTAGE:
        return analytic.primary_outage_probability(params)
    if metric is Metric.ADMISSION:
        return analytic.admission_probability(params)
    if scheme not in analytic._CLOSED_FORM_SCHEMES:
        raise UnknownSchemeError(f"{scheme.value} has no closed form")
    if metric is Metric.OUTAGE_TOTAL:
        return analytic.total_outage(scheme, params)
    if metric is Metric.OUTAGE_CASE_I:
        return analytic.rs_case_i_outage(params)
    if metric is Metric.OUTAGE_CASE_II:
        return analytic.case_ii_outage(scheme, params)
    if metric is Metric.OUTAGE_CASE_III:
        return analytic.rs_case_iii_outage(params)
    if metric is Metric.OUTAGE_CASE_II_CONDITIONAL:
        return analytic.conditional_case_ii_outage(scheme, params)
    if metric is Metric.THROUGHPUT_DELAY_LIMITED:
        return analytic.delay_limited_throughput(scheme, params)
    raise UnknownSchemeError(f"no analytic expression for metric {metric.value}")


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate every requested cell; failed cells are recorded, not fatal.

    With engine BOTH, analytic rows are emitted only for cells that have a
    closed form (CSI-SIC and the ergodic throughput are simulation-only);
    requesting engine ANALYTIC for such a cell records a failure instead.
    A bad worker count (argument or CRNOMA_WORKERS) is not a cell failure:
    whatever the engine, it raises ParameterError before any cell runs. Nor
    is a bad point: the spec refused it when it was built.
    """
    result = SweepResult(spec=spec)
    want_analytic = spec.engine in ("ANALYTIC", "BOTH")
    want_mc = spec.engine in ("MONTE_CARLO", "BOTH")
    sampler = SamplerConfig(seed=spec.seed, stream_count=spec.stream_count)
    workers = _worker_count(workers)

    cells = [(scheme, metric) for scheme in spec.schemes for metric in spec.metrics]
    with_counts, with_rates = _tally_products(spec.metrics)

    def fail(engine: str, exc: Exception, failed: list[tuple[SchemeId, Metric]]) -> None:
        result.failures.extend(CellFailure(axis_value, scheme, metric, engine, str(exc))
                               for scheme, metric in failed)

    for axis_value in spec.axis_values:
        params = spec.params_at(axis_value)  # valid: the spec checked every point
        if want_analytic:
            for scheme, metric in cells:
                try:
                    value = _analytic_value(scheme, metric, params)
                except Exception as exc:
                    # under BOTH, a cell without a closed form is simulation-only
                    if spec.engine == "ANALYTIC" or not isinstance(exc, UnknownSchemeError):
                        fail("ANALYTIC", exc, [(scheme, metric)])
                    continue
                result.rows.append(SweepRow(axis_value, scheme, metric, "ANALYTIC", value))

        if want_mc:
            try:
                tally = simulate_tally(params, sampler, spec.n_samples, spec.schemes,
                                       with_rates=with_rates, workers=workers,
                                       with_counts=with_counts)
            except Exception as exc:
                fail("MONTE_CARLO", exc, cells)
                continue
            for scheme, metric in cells:
                try:
                    est = estimate_from_tally(scheme, metric, params, tally)
                except Exception as exc:
                    fail("MONTE_CARLO", exc, [(scheme, metric)])
                    continue
                result.rows.append(SweepRow(axis_value, est.scheme, est.metric,
                                            "MONTE_CARLO", est.mean, est.std_error))
    return result


_COLUMNS = ("axis_value", "scheme", "metric", "engine", "value", "std_error")


def _row_record(row: SweepRow) -> dict:
    return {
        "axis_value": row.axis_value,
        "scheme": row.scheme.value,
        "metric": row.metric.value,
        "engine": row.engine,
        "value": row.value,
        "std_error": row.std_error,
    }


def render(result: SweepResult, fmt: str) -> str:
    """Serialize result rows to CSV or JSON text with round-trip-exact floats."""
    if not result.rows:
        raise ValueError("refusing to emit an empty sweep result")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for row in result.rows:
            rec = _row_record(row)
            writer.writerow([
                repr(rec["axis_value"]), rec["scheme"], rec["metric"], rec["engine"],
                repr(rec["value"]), "" if rec["std_error"] is None else repr(rec["std_error"]),
            ])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([_row_record(r) for r in result.rows], indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def emit(result: SweepResult, fmt: str, path: str | Path) -> Path:
    """Write the rendered result to path; nothing is created on error."""
    text = render(result, fmt)  # raises before the file exists
    path = Path(path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"could not write sweep result to {path}: {exc}") from exc
    return path


def parse_csv(text: str) -> list[dict]:
    """Inverse of render(..., 'csv'): floats recovered exactly."""
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for rec in reader:
        out.append({
            "axis_value": float(rec["axis_value"]),
            "scheme": rec["scheme"],
            "metric": rec["metric"],
            "engine": rec["engine"],
            "value": float(rec["value"]),
            "std_error": None if rec["std_error"] == "" else float(rec["std_error"]),
        })
    return out


# Figure presets, one entry of SweepSpec fields per figure; every preset sweeps
# _SECONDARY_SCHEMES. The outage and conditional-outage presets use target rates
# with eps0*eps1 > 1 so the QoS-SIC/CSI-SIC outage floors are visible; the
# throughput preset keeps the 1 BPCU default, and the target-rate preset pins
# r0 = 1, p0 = 15 dB, p1 = 20 dB. The conditional sweep fig2a starts at 10 dB:
# with p0 = p1/10, the case-II event is too rare below that for a desk-scale
# conditional estimate.
_PRESETS = {
    "fig1a": dict(axis="P1_DB", axis_values=range(0, 41, 2),
                  fixed={"r0": 1.5, "r1": 1.5, "ratio": 1.0}, metrics=(Metric.OUTAGE_TOTAL,)),
    "fig1b": dict(axis="P1_DB", axis_values=range(0, 41, 2),
                  fixed={"r0": 1.5, "r1": 1.5, "ratio": 0.1}, metrics=(Metric.OUTAGE_TOTAL,)),
    "fig2a": dict(axis="P1_DB", axis_values=range(10, 41, 2),
                  fixed={"r0": 1.5, "r1": 1.5, "ratio": 0.1},
                  metrics=(Metric.OUTAGE_CASE_II_CONDITIONAL,)),
    "fig2b": dict(axis="TARGET_RATE_R1", axis_values=[round(0.2 * k, 10) for k in range(1, 21)],
                  fixed={"r0": 1.0, "p0_db": 15.0, "p1_db": 20.0},
                  metrics=(Metric.OUTAGE_CASE_II_CONDITIONAL,)),
    "fig3": dict(axis="P1_DB", axis_values=range(0, 41, 2),
                 fixed={"r0": 1.0, "r1": 1.0, "ratio": 0.1},
                 metrics=(Metric.THROUGHPUT_DELAY_LIMITED,)),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def figure_preset(name: str, n_samples: int | None = None, seed: int | None = None) -> SweepSpec:
    """A ready-to-run SweepSpec for one of the named figure layouts, built and checked once.

    n_samples and seed, where given, replace the SweepSpec defaults.
    """
    try:
        preset = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}") from None
    overrides = {key: value for key, value in (("n_samples", n_samples), ("seed", seed))
                 if value is not None}
    return SweepSpec(**preset, schemes=_SECONDARY_SCHEMES, **overrides)

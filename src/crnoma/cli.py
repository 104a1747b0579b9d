"""Command-line surface: per-realization rates, outage evaluation, sweeps, presets.

Powers enter in dB here and are converted once; everything below the CLI is
linear. The number of Monte Carlo worker processes can be pinned with the
CRNOMA_WORKERS environment variable; it never changes numerical results, only
wall time and how the memory is spread over the processes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analytic
from .channel import SamplerConfig
from .errors import ParameterError, ProbabilityRangeError, QuadratureError, UnknownSchemeError
from .estimator import Metric, estimate_batch
from .experiments import PRESET_NAMES, figure_preset, load_spec, emit, render, run_sweep
from .params import ChannelRealization, SystemParams, _as_count, db_to_linear
from .quadrature import case_ii_outage_quadrature
from .strategy import (SchemeId, benchmark_rate_nh_sic, benchmark_rate_qos_sic,
                       evaluate_outcome, rs_decide)

_SCHEME_TOKENS = tuple(sorted(s.value for s in SchemeId))


def _count(text: str) -> int:
    try:
        value = float(text)  # accepts 1e6
        return _as_count("samples", int(value) if value.is_integer() else value, 1)
    except ValueError as exc:  # ParameterError is one
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_params_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p0-db", type=float, required=True, help="primary transmit SNR [dB]")
    p.add_argument("--p1-db", type=float, required=True, help="secondary transmit SNR [dB]")
    p.add_argument("--r0", type=float, required=True, help="primary target rate [BPCU]")
    p.add_argument("--r1", type=float, required=True, help="secondary target rate [BPCU]")


def _linear(flag: str, value_db: float) -> float:
    try:
        return db_to_linear(value_db)
    except OverflowError:
        raise ParameterError(f"{flag} {value_db!r} is too large: its linear power overflows") from None


def _params_from(args: argparse.Namespace) -> SystemParams:
    return SystemParams(p0=_linear("--p0-db", args.p0_db), p1=_linear("--p1-db", args.p1_db),
                        r0_hat=args.r0, r1_hat=args.r1)


def _cmd_rate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    chan = ChannelRealization(g0=args.g0, g1=args.g1)
    decision = rs_decide(params, chan)
    print(f"case={decision.case_label.value} tau={decision.tau!r} alpha={decision.alpha!r}")
    print(f"rs_rate_x11={decision.r11!r} rs_rate_x12={decision.r12!r} "
          f"rs_rate_total={decision.r1_total!r} rs_transmits={decision.transmits}")
    print(f"qos_sic_rate={benchmark_rate_qos_sic(params, chan)!r}")
    print(f"nh_sic_rate={benchmark_rate_nh_sic(params, chan)!r}")
    if args.scheme is not None:
        scheme = SchemeId(args.scheme)
        outcome = evaluate_outcome(scheme, params, chan)
        print(f"scheme={scheme.value} secondary_rate={outcome.secondary_rate!r} "
              f"secondary_outage={outcome.secondary_outage} primary_outage={outcome.primary_outage}")
    return 0


def _cmd_outage(args: argparse.Namespace) -> int:
    params = _params_from(args)
    sampler = SamplerConfig(seed=args.seed)  # checks the seed before any output
    scheme = SchemeId(args.scheme)
    status = 0
    if args.engine in ("analytic", "both"):
        if scheme is SchemeId.OMA_PRIMARY:
            print(f"analytic scheme=oma primary_outage={analytic.primary_outage_probability(params)!r}")
        else:
            try:
                report = analytic.analytic_report(scheme, params)
            except UnknownSchemeError as exc:
                print(f"analytic: unavailable ({exc})", file=sys.stderr)
                status = 1
            else:
                print(f"analytic scheme={scheme.value} "
                      f"pout_case_i={report.pout_case_i!r} pout_case_ii={report.pout_case_ii!r} "
                      f"pout_case_iii={report.pout_case_iii!r} pout_total={report.pout_total!r} "
                      f"pout_total_hi_snr={report.pout_total_hi_snr!r}")
                if scheme is SchemeId.RS:
                    print(f"quadrature pout_case_ii={case_ii_outage_quadrature(params)!r}")
    if args.engine in ("sim", "both"):
        metrics = ([Metric.PRIMARY_OUTAGE] if scheme is SchemeId.OMA_PRIMARY else
                   [Metric.OUTAGE_TOTAL, Metric.OUTAGE_CASE_I, Metric.OUTAGE_CASE_II,
                    Metric.OUTAGE_CASE_III])
        for est in estimate_batch([scheme], params, metrics, args.samples, sampler):
            print(f"sim scheme={scheme.value} metric={est.metric.value} mean={est.mean!r} "
                  f"std_error={est.std_error!r} ci95=[{est.ci95_low!r}, {est.ci95_high!r}] "
                  f"n={est.n_samples}")
    return status


def _run_and_emit(spec, fmt: str, out: str | None) -> int:
    """Run the sweep, emit its rows and report its failed cells; 1 if any cell failed.

    An --out whose directory does not exist is refused before any cell runs.
    """
    if out is not None and not Path(out).parent.is_dir():
        raise ParameterError(f"cannot write --out {out}: {Path(out).parent} is not a directory")
    result = run_sweep(spec)
    if not result.rows:
        print("no successful cells; nothing to emit", file=sys.stderr)
    elif out is None:
        sys.stdout.write(render(result, fmt))
    else:
        emit(result, fmt, out)
    for failure in result.failures:
        print(f"FAILED cell axis={failure.axis_value} scheme={failure.scheme.value} "
              f"metric={failure.metric.value} engine={failure.engine}: {failure.message}",
              file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_and_emit(load_spec(args.config), args.format, args.out)


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = figure_preset(args.name, n_samples=args.samples, seed=args.seed)
    return _run_and_emit(spec, "csv", args.out)


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return run_selftest(samples=args.samples, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crnoma",
                                     description="Uplink CR-NOMA rate splitting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="per-realization case, power split, and rates")
    _add_params_args(p_rate)
    p_rate.add_argument("--g0", type=float, required=True, help="primary channel gain")
    p_rate.add_argument("--g1", type=float, required=True, help="secondary channel gain")
    p_rate.add_argument("--scheme", choices=_SCHEME_TOKENS, default=None)
    p_rate.set_defaults(func=_cmd_rate)

    p_out = sub.add_parser("outage", help="closed-form and/or simulated outage probabilities")
    _add_params_args(p_out)
    p_out.add_argument("--engine", choices=("analytic", "sim", "both"), default="both")
    p_out.add_argument("--scheme", choices=_SCHEME_TOKENS, default="rs")
    p_out.add_argument("--samples", type=_count, default=1_000_000)
    p_out.add_argument("--seed", type=int, default=2024)
    p_out.set_defaults(func=_cmd_outage)

    p_sweep = sub.add_parser("sweep", help="run a sweep described by a JSON config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="run a named figure preset and emit its CSV")
    p_fig.add_argument("name", choices=PRESET_NAMES)
    p_fig.add_argument("--samples", type=_count, default=None)
    p_fig.add_argument("--seed", type=int, default=None)
    p_fig.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p_fig.set_defaults(func=_cmd_figure)

    p_self = sub.add_parser("selftest", help="identity and oracle-agreement checks")
    p_self.add_argument("--samples", type=_count, default=1_000_000)
    p_self.add_argument("--seed", type=int, default=2024)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ProbabilityRangeError, QuadratureError, OSError) as exc:
        # an OSError is emit's: --out could not be written
        print(f"crnoma: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

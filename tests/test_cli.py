import json
import math
import re
import subprocess
import sys

import pytest

from crnoma import ParameterError, cli
from crnoma.cli import main
from crnoma.selftest import run_selftest

from conftest import src_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text: str) -> dict:
    out = {}
    for match in re.finditer(r"(\w+)=(\S+)", text):
        out[match.group(1)] = match.group(2)
    return out


# linear p1 = 20 as dB, full precision
P1_20_DB = 10.0 * math.log10(20.0)


class TestRate:
    def test_worked_scenario_one(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--p0-db", "0", "--p1-db", "10",
                               "--g0", "10", "--g1", "10", "--r0", "2", "--r1", "4")
        assert code == 0
        kv = parse_kv(out)
        assert kv["case"] == "II"
        assert float(kv["rs_rate_total"]) == pytest.approx(4.794, abs=1e-3)
        assert float(kv["qos_sic_rate"]) == pytest.approx(3.335, abs=1e-3)
        assert float(kv["nh_sic_rate"]) == pytest.approx(3.335, abs=1e-3)

    def test_worked_scenario_two(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--p0-db", "10", "--p1-db", repr(P1_20_DB),
                               "--g0", "10", "--g1", "10", "--r0", "2", "--r1", "4")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["rs_rate_total"]) == pytest.approx(6.233, abs=1e-3)
        assert float(kv["qos_sic_rate"]) == pytest.approx(1.575, abs=1e-3)
        assert float(kv["nh_sic_rate"]) == pytest.approx(5.059, abs=1e-3)

    def test_case_i_baselines_print_the_rate_they_achieve(self, capsys):
        # tau = 999 >= p1*g1 = 10: case I, where both baselines send at U1's capacity
        # log2(1 + p1*g1), not at their case-II rates (0.0143 and 9.97)
        argv = ("rate", "--p0-db", "30", "--p1-db", "10", "--r0", "1", "--r1", "1", "--g0", "1", "--g1", "1")
        code, out, _ = run_cli(capsys, *argv)
        kv = parse_kv(out)
        assert code == 0 and kv["case"] == "I"
        for scheme in ("qos-sic", "nh-sic"):
            _, line, _ = run_cli(capsys, *argv, "--scheme", scheme)
            printed = kv[f"{scheme.replace('-', '_')}_rate"]
            assert printed == parse_kv(line)["secondary_rate"] == repr(math.log2(11.0))

    def test_scheme_outcome_line(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--p0-db", "0", "--p1-db", "10",
                               "--g0", "10", "--g1", "10", "--r0", "2", "--r1", "4",
                               "--scheme", "rs")
        kv = parse_kv(out)
        assert kv["secondary_outage"] == "False"


class TestOutage:
    def test_analytic_report_lines(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--engine", "analytic", "--scheme", "rs",
                               "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["pout_total"]) == pytest.approx(0.10309035857298948, abs=1e-12)
        assert "quadrature" in out

    def test_sim_engine(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--engine", "sim", "--scheme", "csi-sic",
                               "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1",
                               "--samples", "2e4", "--seed", "5")
        assert code == 0
        assert "metric=outage-total" in out

    def test_csi_analytic_unavailable(self, capsys):
        code, out, err = run_cli(capsys, "outage", "--engine", "analytic", "--scheme", "csi-sic",
                                 "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1")
        assert code == 1
        assert "unavailable" in err

    def test_unavailable_names_the_scheme_token(self, capsys):
        code, out, err = run_cli(capsys, "outage", "--engine", "analytic", "--scheme", "csi-sic",
                                 "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1")
        assert code == 1 and out == ""
        assert err == "analytic: unavailable (no closed-form case-II outage for csi-sic)\n"

    def test_csi_report_unavailable_where_rs_terms_fail(self, capsys):
        # rs_case_i_outage is nan here; the scheme check comes first, and the simulation still runs
        code, out, err = run_cli(capsys, "outage", "--engine", "both", "--scheme", "csi-sic",
                                 "--p0-db", "-3000", "--p1-db", "-3000", "--r0", "50", "--r1", "1e-6",
                                 "--samples", "1000")
        assert code == 1
        assert err == "analytic: unavailable (no closed-form case-II outage for csi-sic)\n"
        assert out.count("\n") == 4 and all(line.startswith("sim scheme=csi-sic ")
                                             for line in out.splitlines())

    def test_oma_sim_reports_primary(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--engine", "sim", "--scheme", "oma",
                               "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1",
                               "--samples", "1e4")
        assert code == 0
        assert "metric=primary-outage" in out

    def test_oma_analytic_reports_primary(self, capsys):
        code, out, _ = run_cli(capsys, "outage", "--engine", "analytic", "--scheme", "oma",
                               "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["primary_outage"]) == pytest.approx(1.0 - math.exp(-0.1), abs=1e-12)


class TestBoundaryErrors:
    SIM = ("outage", "--engine", "sim", "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1")

    def test_bad_worker_count_is_one_stderr_line(self, capsys, monkeypatch):
        monkeypatch.setenv("CRNOMA_WORKERS", "abc")
        code, _, err = run_cli(capsys, *self.SIM, "--samples", "1e3")
        assert code == 2
        assert err.count("\n") == 1 and "CRNOMA_WORKERS" in err

    @pytest.mark.parametrize("samples", ["0", "-3", "abc", "inf", "2000.9"])
    def test_bad_sample_count_rejected_by_parser(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main([*self.SIM, "--samples", samples])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--samples" in err and "Traceback" not in err

    @staticmethod
    def assert_one_error_line(code, out, err):
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("crnoma: error: ")
        assert "Traceback" not in err and "FAILED cell" not in err
        assert out == ""

    @pytest.mark.parametrize("argv, flag", [
        (("rate", "--p0-db", "4000", "--p1-db", "10", "--r0", "1", "--r1", "1",
          "--g0", "1", "--g1", "1"), "--p0-db"),
        (("outage", "--engine", "analytic", "--p0-db", "10", "--p1-db", "4000",
          "--r0", "1", "--r1", "1"), "--p1-db"),
        (("outage", "--engine", "sim", "--p0-db", "1e308", "--p1-db", "10",
          "--r0", "1", "--r1", "1", "--samples", "1e3"), "--p0-db"),
    ], ids=["rate-p0", "outage-p1", "outage-sim-p0"])
    def test_overflowing_db_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        self.assert_one_error_line(code, out, err)
        assert err.startswith(f"crnoma: error: {flag} ") and "too large" in err

    @pytest.mark.parametrize("argv, needle", [
        (("outage", "--engine", "analytic", "--p0-db", "3000", "--p1-db", "-3000",
          "--r0", "1", "--r1", "1"), "closed forms leave the float range"),
        (("outage", "--engine", "analytic", "--p0-db", "-300", "--p1-db", "-1000",
          "--r0", "1e-6", "--r1", "1e-6", "--scheme", "qos-sic"), "closed forms leave the float range"),
        (("rate", "--p0-db", "3000", "--p1-db", "3000", "--g0", "1e300", "--g1", "1e300",
          "--r0", "1", "--r1", "1"), "received SNRs p0*g0 = inf and p1*g1 = inf must be finite"),
        (("rate", "--p0-db", "3000", "--p1-db", "3000", "--g0", "1e8", "--g1", "1e8",
          "--r0", "1e-6", "--r1", "1", "--scheme", "rs"),
         "interference budget p0*g0/eps0 - 1 must be finite, got p0*g0 = 1e+308 over eps0 = "),
    ], ids=["outage-zero-divisor", "outage-exp-overflow", "rate-infinite-snr", "rate-infinite-budget"])
    def test_out_of_float_range_is_one_error_line(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        self.assert_one_error_line(code, out, err)
        assert needle in err

    @pytest.mark.parametrize("argv, printed, error", [
        (("outage", "--engine", "analytic", "--p0-db", "-3000", "--p1-db", "-3000",
          "--r0", "50", "--r1", "1e-6"), 0, "rs_case_i_outage evaluated to nan, outside [0, 1]"),
        (("outage", "--engine", "analytic", "--p0-db", "-3000", "--p1-db", "-2400",
          "--r0", "1e-6", "--r1", "50"), 1, "case-II quadrature produced a non-probability: nan"),
    ], ids=["probability-range", "quadrature"])
    def test_closed_form_failure_is_one_error_line(self, capsys, argv, printed, error):
        # the quadrature runs after the closed-form report has been printed
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and err == f"crnoma: error: {error}\n"
        assert out.count("\n") == printed and out.startswith("analytic scheme=rs " if printed else "")

    @pytest.mark.parametrize("r1, error", [
        ("2000", "target rate too large: r1_hat = 2000.0"),
        ("1e-300", "target rate too small: r1_hat = 1e-300 rounds 2^r1_hat - 1 to 0.0"),
    ], ids=["too-large", "too-small"])
    def test_rate_derivation_error_names_the_rate(self, capsys, r1, error):
        code, out, err = run_cli(capsys, "outage", "--engine", "analytic", "--p0-db", "10",
                                 "--p1-db", "10", "--r0", "1", "--r1", r1)
        self.assert_one_error_line(code, out, err)
        assert err == f"crnoma: error: {error}\n"

    @pytest.mark.parametrize("argv", [
        ("outage", "--engine", "both", "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1",
         "--samples", "1e3", "--seed", "-1"),
        ("outage", "--engine", "analytic", "--p0-db", "10", "--p1-db", "10", "--r0", "1",
         "--r1", "1", "--seed", "-1"),
        ("outage", "--engine", "sim", "--p0-db", "10", "--p1-db", "10", "--r0", "1", "--r1", "1",
         "--samples", "1e3", "--seed", str(2**64)),
        ("selftest", "--samples", "1e3", "--seed", "-1"),
        ("selftest", "--samples", "1e3", "--seed", str(2**64)),
    ], ids=["outage-both", "outage-analytic", "outage-sim-2^64", "selftest", "selftest-2^64"])
    def test_bad_seed_is_refused_before_any_output(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        self.assert_one_error_line(code, out, err)
        assert err.startswith("crnoma: error: seed must be an integer in [0, 2^64)")

    def test_bad_worker_count_fails_sweep_once(self, capsys, monkeypatch):
        monkeypatch.setenv("CRNOMA_WORKERS", "abc")
        code, out, err = run_cli(capsys, "figure", "fig1a", "--samples", "1000")
        self.assert_one_error_line(code, out, err)
        assert "CRNOMA_WORKERS" in err

    @pytest.mark.parametrize("command", [
        SIM + ("--samples", "1e3"),
        ("figure", "fig1a", "--samples", "1000"),
    ], ids=["outage", "figure"])
    # text that int() reads is shown as the integer, other text as itself
    @pytest.mark.parametrize("workers, shown", [("0", "0"), ("-2", "-2"), ("2.5", "'2.5'")],
                             ids=["0", "-2", "2.5"])
    def test_worker_count_not_positive_integer(self, capsys, monkeypatch, command, workers, shown):
        monkeypatch.setenv("CRNOMA_WORKERS", workers)
        code, out, err = run_cli(capsys, *command)
        self.assert_one_error_line(code, out, err)
        assert err == f"crnoma: error: CRNOMA_WORKERS must be an integer of at least 1, got {shown}\n"

    @pytest.mark.parametrize("change, needle", [
        ({"bogus": 1}, "bogus"),
        ({"axis": "SNR"}, "axis"),
        ({"coupling": "DOUBLE"}, "coupling"),
        ({"engine": "GPU"}, "engine"),
        ({"fixed": {"r1": 1.0}}, "'r0'"),
        ({"axis": "TARGET_RATE_R1", "fixed": {"r0": 1.0}}, "'p0_db', 'p1_db'"),
        ({"n_samples": 0}, "n_samples"),
        ({"n_samples": 1000.5}, "n_samples"),
        ({"n_samples": 1000.0}, "n_samples"),
        ({"n_samples": "100"}, "n_samples"),
        ({"stream_count": 0}, "stream_count"),
        ({"seed": 1.5}, "seed"),
        ({"fixed": {"r0": 1.0, "r1": 1.0, "ratio": "big"}}, "ratio"),
        ({"n_samples": True}, "n_samples"),
        ({"stream_count": True}, "stream_count"),
        ({"seed": True}, "seed"),
        ({"fixed": {"r0": 1.0, "r1": 1.0, "ratio": True}}, "ratio"),
        ({"fixed": {"r0": -1.0, "r1": 1.0, "ratio": 1.0}}, "r0_hat must be positive"),
        ({"fixed": {"r0": "x", "r1": 1.0, "ratio": 1.0}}, "r0_hat must be a number"),
        ({"fixed": {"r0": 1.0, "r1": 1.0, "ratio": 1.0, "p0_db": 10.0}},
         "['p0_db'] that axis P1_DB does not read"),
        ({"axis_values": [float("nan")]}, "axis value nan"),
        ({"axis_values": [10.0, 3100.0]}, "axis value 3100.0"),
        ({"coupling": "EQUAL"}, "unknown sweep config keys ['coupling']"),
        ({"fixed": {"r0": True, "r1": 1.0, "ratio": 1.0}}, "r0_hat must be a number, got True"),
        ({"axis_values": [True]}, "axis_values must be a number, got True"),
        ({"axis": "TARGET_RATE_R1", "fixed": {"r0": 1.0, "p0_db": True, "p1_db": 20.0}},
         "p0_db must be a number, got True"),
        ({"ratio": 1.0}, "unknown sweep config keys ['ratio']"),
        ({"axis": "TARGET_RATE_R1", "fixed": {"r0": 1.0, "p0_db": 10.0, "p1_db": 10.0, "ratio": 0.25}},
         "fixed has keys ['ratio'] that axis TARGET_RATE_R1 does not read"),
        ({"fixed": {"r0": 1.0, "r1": 1.0}}, "fixed is missing ['ratio'] for axis P1_DB"),
        ({"schemes": ["rs", "rs"]}, "schemes lists ['rs'] more than once"),
        ({"fixed": {"r0": "1.5", "r1": 1.0, "ratio": 1.0}}, "r0_hat must be a number, got '1.5'"),
        ({"axis_values": ["10"]}, "axis_values must be a number, got '10'"),
        ({"axis_values": "05"}, "axis_values must be a list, not the string '05'"),
        ({"schemes": "rs"}, "schemes must be a list, not the string 'rs'"),
        ({"metrics": "outage-total"}, "metrics must be a list, not the string 'outage-total'"),
    ])
    def test_bad_sweep_config_is_one_stderr_line(self, capsys, tmp_path, change, needle):
        config = {
            "axis": "P1_DB", "axis_values": [10.0], "fixed": {"r0": 1.0, "r1": 1.0, "ratio": 1.0},
            "schemes": ["rs"], "metrics": ["outage-total"], "n_samples": 1000,
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({**config, **change}))
        self.assert_sweep_refused(capsys, tmp_path, cfg, needle)

    def assert_sweep_refused(self, capsys, tmp_path, cfg, needle):
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        self.assert_one_error_line(code, out, err)
        assert needle in err
        assert not out_path.exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_sweep_config_not_a_json_object(self, capsys, tmp_path, text):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(text)
        self.assert_sweep_refused(capsys, tmp_path, cfg, "sweep.json")

    def test_missing_sweep_config(self, capsys, tmp_path):
        self.assert_sweep_refused(capsys, tmp_path, tmp_path / "absent.json", "absent.json")

    @pytest.mark.parametrize("command", ["figure", "sweep"])
    def test_missing_out_directory_is_refused_before_the_sweep(self, capsys, monkeypatch, tmp_path,
                                                               command):
        swept = []
        monkeypatch.setattr(cli, "run_sweep", swept.append)
        if command == "figure":
            argv = ("figure", "fig1a", "--samples", "1000")
        else:
            argv = ("sweep", "--config", str(self.one_point_config(tmp_path)))
        out_path = tmp_path / "absent" / "x.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        self.assert_one_error_line(code, out, err)
        assert err == (f"crnoma: error: cannot write --out {out_path}: "
                       f"{out_path.parent} is not a directory\n")
        assert swept == []

    def test_out_naming_a_directory_is_one_error_line(self, capsys, tmp_path):
        cfg = self.one_point_config(tmp_path)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path))
        self.assert_one_error_line(code, out, err)
        assert err.startswith(f"crnoma: error: could not write sweep result to {tmp_path}: ")

    @staticmethod
    def one_point_config(tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "axis": "P1_DB", "axis_values": [10.0], "fixed": {"r0": 1.0, "r1": 1.0, "ratio": 1.0},
            "schemes": ["rs"], "metrics": ["outage-total"], "engine": "ANALYTIC",
        }))
        return cfg


class TestFigureAndSweep:
    def test_figure_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(capsys, "figure", "fig1a", "--samples", "5000",
                             "--seed", "3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "axis_value,scheme,metric,engine,value,std_error"
        assert len(lines) == 1 + 21 * 7

    def test_figure_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig3", "--samples", "2000", "--seed", "3")
        assert code == 0
        assert out.startswith("axis_value,")

    def test_sweep_from_config(self, capsys, tmp_path):
        config = {
            "axis": "P1_DB", "axis_values": [10.0, 12.0], "fixed": {"r0": 1.0, "r1": 1.0, "ratio": 1.0},
            "schemes": ["rs", "nh-sic"], "metrics": ["outage-total"],
            "engine": "BOTH",
            "n_samples": 5000, "seed": 4, "stream_count": 8,
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out_path = tmp_path / "sweep.out.json"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_path),
                             "--format", "json")
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 2 * 2 * 2
        assert {r["engine"] for r in rows} == {"ANALYTIC", "MONTE_CARLO"}

    def test_sweep_exit_code_on_failed_cells(self, capsys, tmp_path):
        config = {
            "axis": "P1_DB", "axis_values": [10.0], "fixed": {"r0": 1.0, "r1": 1.0, "ratio": 1.0},
            "schemes": ["csi-sic"], "metrics": ["outage-total"], "engine": "ANALYTIC",
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "FAILED cell" in err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--samples", "2e5")
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_too_few_draws_fail_the_monte_carlo_check(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--samples", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("PASS identity: ")
        assert lines[1].startswith("PASS oracle: quadrature vs closed form: ")
        assert lines[2] == ("FAIL oracle: Monte Carlo vs closed form: rs outage-case-iii at "
                            "p0=15 dB, p1=20 dB, r0=1, r1=2 needs --samples 14639 or more for 20 "
                            "expected events, not 1")
        assert len(lines) == 3

    @pytest.mark.parametrize("samples", [0, True, 1.5], ids=repr)
    def test_bad_sample_count_is_refused_before_any_check(self, capsys, samples):
        message = f"samples must be an integer of at least 1, got {samples!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            run_selftest(samples=samples)
        assert capsys.readouterr().out == ""

    def test_the_draws_it_names_are_enough(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--samples", "14639")
        assert code == 0 and out.count("PASS") == 3
        code, out, _ = run_cli(capsys, "selftest", "--samples", "14638")
        assert code == 1 and "needs --samples 14639 or more" in out


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "crnoma", "--help"], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: crnoma")


@pytest.mark.parametrize("argv", [
    ("selftest", "--samples", "2e5"),
    ("outage", "--engine", "both", "--scheme", "rs", "--p0-db", "10", "--p1-db", "10",
     "--r0", "1", "--r1", "1", "--samples", "1e5"),
])
def test_cli_runs_with_scipy_blocked(argv):
    # None in sys.modules makes every scipy import raise ImportError
    code = ("import runpy, sys; sys.modules['scipy'] = None; "
            f"sys.argv = ['crnoma', *{list(argv)!r}]; "
            "runpy.run_module('crnoma', run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

import json
import math
import re

import pytest

from crnoma.cli import main


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

    @pytest.mark.parametrize("samples", ["0", "-3", "abc", "inf"])
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

    def test_bad_worker_count_fails_sweep_once(self, capsys, monkeypatch):
        monkeypatch.setenv("CRNOMA_WORKERS", "abc")
        code, out, err = run_cli(capsys, "figure", "fig1a", "--samples", "1000")
        self.assert_one_error_line(code, out, err)
        assert "CRNOMA_WORKERS" in err

    @pytest.mark.parametrize("change, needle", [
        ({"bogus": 1}, "bogus"),
        ({"axis": "SNR"}, "axis"),
        ({"coupling": "DOUBLE"}, "coupling"),
        ({"engine": "GPU"}, "engine"),
        ({"fixed": {"r1": 1.0}}, "'r0'"),
        ({"axis": "TARGET_RATE_R1", "fixed": {"r0": 1.0}}, "'p0_db', 'p1_db'"),
        ({"n_samples": 0}, "n_samples"),
        ({"n_samples": 1000.5}, "n_samples"),
        ({"stream_count": 0}, "stream_count"),
        ({"seed": 1.5}, "seed"),
        ({"ratio": "big"}, "ratio"),
    ])
    def test_bad_sweep_config_is_one_stderr_line(self, capsys, tmp_path, change, needle):
        config = {
            "axis": "P1_DB", "axis_values": [10.0], "fixed": {"r0": 1.0, "r1": 1.0},
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
            "axis": "P1_DB", "axis_values": [10.0, 12.0], "fixed": {"r0": 1.0, "r1": 1.0},
            "schemes": ["rs", "nh-sic"], "metrics": ["outage-total"],
            "engine": "BOTH", "coupling": "EQUAL", "ratio": 1.0,
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
            "axis": "P1_DB", "axis_values": [10.0], "fixed": {"r0": 1.0, "r1": 1.0},
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

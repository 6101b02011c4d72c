"""End-to-end tests of the command line interface.

Everything runs through main(argv) in-process: exit codes are the contract
(0 success, 2 usage problems, 3 validity/calibration/format failures).
"""

import csv
import json
import math
import warnings

import pytest

from spectral_cusum.cli import main


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def simulate_degenerate(tmp_path, horizon=6):
    stream = tmp_path / "stream.ndjson"
    code = main(
        [
            "simulate",
            "--sizes", "2,1",
            "--sigma", "0",
            "--tau", "0",
            "--horizon", str(horizon),
            "--out", str(stream),
        ]
    )
    assert code == 0
    return stream


class TestSimulate:
    def test_writes_one_line_per_snapshot(self, tmp_path):
        stream = simulate_degenerate(tmp_path)
        lines = stream.read_text().splitlines()
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["t"] == 1 and first["n"] == 3

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        args = ["simulate", "--sizes", "3,2", "--horizon", "4", "--seed", "11"]
        one, two = tmp_path / "one.ndjson", tmp_path / "two.ndjson"
        assert main(args + ["--out", str(one)]) == 0
        assert main(args + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_background_nodes_via_the_nodes_flag(self, tmp_path):
        out = tmp_path / "s.ndjson"
        code = main(
            ["simulate", "--sizes", "2,1", "--nodes", "5", "--horizon", "2", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text().splitlines()[0])["n"] == 5

    def test_missing_required_flag_is_a_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--sizes", "2,1"]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_bad_flag_value_is_a_usage_error(self):
        assert main(["simulate", "--sizes", "2,x", "--horizon", "3"]) == 2


class TestDetect:
    def test_reproduces_the_deterministic_alarm(self, tmp_path, capsys):
        stream = simulate_degenerate(tmp_path)
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "detect", str(stream),
                "--method", "exact",
                "--sizes", "2,1",
                "--b", "12",
                "--out", str(trace),
            ]
        )
        assert code == 0
        assert "alarm at t=3" in capsys.readouterr().err
        rows = read_csv_rows(trace)
        assert rows[0] == ["t", "statistic", "alarmed"]
        assert rows[1:] == [
            ["1", "5.0", "0"],
            ["2", "10.0", "0"],
            ["3", "15.0", "1"],
        ]

    def test_spectral_alarm_arrives_after_the_lag(self, tmp_path, capsys):
        stream = simulate_degenerate(tmp_path)
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "detect", str(stream),
                "--method", "spectral",
                "--m", "2",
                "--window", "2",
                "--d", "1",
                "--b", "3.5",
                "--out", str(trace),
            ]
        )
        assert code == 0
        assert "alarm at t=4" in capsys.readouterr().err
        rows = read_csv_rows(trace)
        assert [r[0] for r in rows[1:]] == ["3", "4"]

    def test_no_alarm_is_reported_on_stderr(self, tmp_path, capsys):
        stream = simulate_degenerate(tmp_path)
        code = main(
            [
                "detect", str(stream),
                "--method", "exact",
                "--sizes", "2,1",
                "--b", "1000",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 0
        assert "no alarm in 6 snapshots" in capsys.readouterr().err

    def test_missing_input_file_is_a_usage_error(self, tmp_path):
        code = main(
            [
                "detect", str(tmp_path / "absent.ndjson"),
                "--method", "exact",
                "--sizes", "2,1",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2

    def test_corrupt_stream_is_a_format_error(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"t": 1, "n": 2, "tri"\n')
        code = main(
            [
                "detect", str(bad),
                "--method", "exact",
                "--sizes", "2,1",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "method_flags",
        [["--method", "exact", "--sizes", "2,1"], ["--method", "spectral", "--m", "2", "--window", "2"]],
    )
    def test_non_finite_weight_is_a_format_error(self, tmp_path, capsys, method_flags):
        stream = simulate_degenerate(tmp_path, horizon=8)
        lines = stream.read_text().splitlines()
        first = json.loads(lines[0])
        first["tri"][0] = math.nan
        stream.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        code = main(["detect", str(stream), *method_flags, "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method_flags",
        [["--method", "exact", "--sizes", "2"], ["--method", "spectral", "--m", "2", "--window", "2"]],
    )
    def test_overflowing_finite_weights_are_a_validity_error(self, tmp_path, capsys, method_flags):
        """The overflow is reported once, as the error, with no numpy
        RuntimeWarning printed ahead of it."""
        stream = tmp_path / "huge.ndjson"
        stream.write_text(
            "".join(json.dumps({"t": t, "n": 2, "tri": [1e308] * 3}) + "\n" for t in range(1, 9))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["detect", str(stream), *method_flags, "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_non_increasing_time_is_a_format_error(self, tmp_path, capsys):
        stream = simulate_degenerate(tmp_path)
        lines = stream.read_text().splitlines()
        stream.write_text("\n".join(lines[:3] + [lines[2]] + lines[3:]) + "\n")
        code = main(
            ["detect", str(stream), "--method", "exact", "--sizes", "2,1", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 3
        assert '"t" must increase' in capsys.readouterr().err

    def test_exact_method_without_sizes_is_a_usage_error(self, tmp_path, capsys):
        stream = simulate_degenerate(tmp_path)
        code = main(
            ["detect", str(stream), "--method", "exact", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 2
        assert "sizes" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizes = 2,1\nsigma = 0\ntau = 0\nhorizon = 4\n")
        out = tmp_path / "s.ndjson"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_command_line_overrides_the_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizes = 2,1\nhorizon = 4\n")
        out = tmp_path / "s.ndjson"
        code = main(
            ["simulate", "--config", str(cfg), "--horizon", "9", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 9

    def test_unknown_config_keys_are_usage_errors(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizes = 2,1\nhorizon = 4\nwibble = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "wibble" in capsys.readouterr().err


class TestTheory:
    def test_report_round_trips_as_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "theory",
                "--sizes", "12,6",
                "--sigma", "0.25",
                "--gamma", "1000",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["lambda"] == [12.0, 6.0]
        assert report["C"] == pytest.approx(24.0, rel=1e-9)
        assert report["w_star"] == pytest.approx(2.6410, rel=1e-4)
        assert report["validity"]["w_star"]["ok"] is True

    def test_degenerate_sizes_exit_with_the_validity_code(self, tmp_path):
        code = main(
            ["theory", "--sizes", "10,10,15", "--gamma", "100", "--out", str(tmp_path / "r.json")]
        )
        assert code == 3

    def test_stdout_is_the_default_sink(self, capsys):
        assert main(["theory", "--sizes", "12,6", "--gamma", "1000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sizes"] == [12, 6]

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_window_below_one_is_a_usage_error(self, window, capsys):
        args = ["theory", "--sizes", "12,6", "--sigma", "0.25", "--gamma", "1000"]
        assert main(args + ["--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "window length must be at least 1" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", ["sigma", "gamma"])
    def test_non_finite_sigma_or_gamma_is_a_usage_error(self, name, value, capsys):
        """At the parent --gamma nan exited 0 writing NaN, which is not JSON,
        and --sigma nan exited 2 with round's message about integers."""
        opts = {"sigma": "0.25", "gamma": "1000", name: value}
        args = ["theory", "--sizes", "12,6", "--sigma", opts["sigma"], "--gamma", opts["gamma"]]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name} must be finite" in captured.err


class TestCalibrateAndBench:
    def test_calibrate_writes_a_threshold_report(self, tmp_path):
        out = tmp_path / "cal.json"
        code = main(
            [
                "calibrate",
                "--target", "15",
                "--sizes", "2,1",
                "--method", "exact",
                "--reps", "400",
                "--rel-tol", "0.3",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["target_gamma"] == 15.0
        assert report["method"] == "exact"
        assert 0.5 <= report["b"] <= 8.0

    def test_calibrate_with_an_impossible_cap_exits_three(self, tmp_path):
        code = main(
            [
                "calibrate",
                "--target", "50",
                "--cap", "60",
                "--sizes", "2,1",
                "--method", "exact",
                "--reps", "100",
                "--out", str(tmp_path / "cal.json"),
            ]
        )
        assert code == 3

    def test_bench_emits_an_ordered_oc_table(self, tmp_path):
        out = tmp_path / "oc.csv"
        code = main(
            [
                "bench",
                "--gammas", "12,30",
                "--sizes", "2,1",
                "--method", "exact",
                "--reps", "300",
                "--rel-tol", "0.3",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert rows[0] == ["gamma", "b", "edd", "se"]
        assert len(rows) == 3
        assert float(rows[1][1]) < float(rows[2][1])

    def test_non_integer_reps_name_the_int_type(self, tmp_path, capsys):
        code = main(
            [
                "calibrate",
                "--target", "15",
                "--sizes", "2,1",
                "--method", "exact",
                "--reps", "x",
                "--out", str(tmp_path / "cal.json"),
            ]
        )
        assert code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_bench_rejects_unsorted_gammas(self, tmp_path):
        code = main(
            [
                "bench",
                "--gammas", "30,12",
                "--sizes", "2,1",
                "--method", "exact",
                "--out", str(tmp_path / "oc.csv"),
            ]
        )
        assert code == 2


class TestXcorr:
    def test_sensor_csv_becomes_a_correlation_stream(self, tmp_path):
        sensors = tmp_path / "sensors.csv"
        rows = ["a,b,c"]
        for i in range(12):
            rows.append(f"{math.sin(i)},{math.cos(i)},{i * 0.5}")
        sensors.write_text("\n".join(rows) + "\n")
        out = tmp_path / "stream.ndjson"
        code = main(["xcorr", str(sensors), "--segment", "4", "--out", str(out)])
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [rec["t"] for rec in lines] == [1, 2, 3]
        assert all(rec["n"] == 3 for rec in lines)

    def test_non_finite_sample_is_a_format_error(self, tmp_path, capsys):
        sensors = tmp_path / "sensors.csv"
        sensors.write_text("a,b\n1,2\n3,nan\n5,6\n7,9\n")
        out = tmp_path / "stream.ndjson"
        assert main(["xcorr", str(sensors), "--segment", "2", "--out", str(out)]) == 3
        assert "line 3: non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_segment_is_a_usage_error(self, tmp_path):
        sensors = tmp_path / "sensors.csv"
        sensors.write_text("a,b\n1,2\n3,4\n")
        assert main(["xcorr", str(sensors), "--segment", "1", "--out", "x"]) == 2


class TestParser:
    def test_unknown_subcommand_is_a_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_is_a_usage_error(self):
        assert main(["simulate", "--sizes", "2,1", "--horizon", "3", "--what", "2"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

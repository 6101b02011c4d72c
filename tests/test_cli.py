"""End-to-end tests of the command line interface.

Everything runs through main(argv) in-process: exit codes are the contract
(0 success, 2 usage problems, 3 validity/calibration/format failures).
"""

import contextlib
import csv
import io
import json
import math
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cusum import (
    CONVENTIONS,
    EXACT,
    METHODS,
    DetectorConfig,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    iter_stream,
    read_stream,
    run_detector,
    write_stream,
)
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


    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_a_usage_error(self, tmp_path, capsys, sigma):
        """--sigma nan used to exit 0 and write NaN weights that read_stream
        refuses."""
        out = tmp_path / "s.ndjson"
        args = ["simulate", "--sizes", "2", "--nodes", "3", "--sigma", sigma, "--horizon", "2"]
        assert main(args + ["--out", str(out)]) == 2
        assert "sigma must be finite" in capsys.readouterr().err
        assert not out.exists()


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

    def test_infinite_threshold_is_a_usage_error(self, tmp_path, capsys):
        """b = inf can never be reached, so the run could not alarm."""
        stream = simulate_degenerate(tmp_path)
        args = ["detect", str(stream), "--method", "exact", "--sizes", "2,1", "--b", "inf"]
        assert main(args + ["--out", str(tmp_path / "t.csv")]) == 2
        assert "error: --b must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "n,bad,message",
        [
            (1, '{"t":1,"n":1,"tri":[[1.0]]}', '"tri" must be a flat list'),
            (2, '{"t":1,"n":2,"full":[[1,2],[3,4],[5,6],[7,8]]}', '"full" must be a flat list'),
            (2, '{"t":1,"n":2,"tri":[[1],[2],[3]]}', '"tri" must be a flat list'),
            (1, '{"t":1,"t":2,"n":1,"tri":[1.0]}', "duplicate key 't'"),
            (1, '{"t":1,"n":1,"tri":[true]}', '"tri" must hold JSON numbers only'),
            (1, '{"t":1,"n":1,"tri":["1.5"]}', '"tri" must hold JSON numbers only'),
            (2, '{"t":1,"n":2,"full":[0,false,0,1.5]}', '"full" must hold JSON numbers only'),
            (2, '{"t":1,"n":2,"full":[0,"0",0,1e0]}', '"full" must hold JSON numbers only'),
            (2, '{"tri":[0.5,-1,null],"n":2,"t":1}', '"tri" must hold JSON numbers only'),
        ],
        ids=[
            "nested-tri", "nested-full", "column-tri", "duplicate-key",
            "true-tri", "string-tri", "false-full", "string-full", "null-tri-keys-last",
        ],
    )
    def test_malformed_weight_lines_are_format_errors_with_their_line(
        self, tmp_path, capsys, n, bad, message
    ):
        """A nested list used to be accepted or to exit 2 with numpy's bare
        reshape or broadcast message, a repeated key silently kept its last
        value, and np.array(..., dtype=float) read true as 1.0, "1.5" as 1.5
        and null as NaN."""
        stream = tmp_path / "bad.ndjson"
        good = json.dumps({"t": 0, "n": n, "tri": [0.0] * (n * (n + 1) // 2)})
        stream.write_text(good + "\n" + bad + "\n")
        code = main(
            [
                "detect", str(stream),
                "--method", "exact",
                "--sizes", str(n),
                "--b", "1000",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"line 2: {message}" in err

    def test_non_increasing_time_is_a_format_error(self, tmp_path, capsys):
        """b = 1000 keeps the run from alarming before the repeated line,
        which detect reads only on its way to an alarm or the end."""
        stream = simulate_degenerate(tmp_path)
        lines = stream.read_text().splitlines()
        stream.write_text("\n".join(lines[:3] + [lines[2]] + lines[3:]) + "\n")
        code = main(
            [
                "detect", str(stream),
                "--method", "exact",
                "--sizes", "2,1",
                "--b", "1000",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3
        assert '"t" must increase' in capsys.readouterr().err

    def test_lines_after_the_alarm_are_not_read(self, tmp_path, capsys):
        """The alarm lands at t=3 (as in test_reproduces_the_deterministic_alarm);
        a malformed line after it is never parsed, so the run succeeds."""
        stream = simulate_degenerate(tmp_path)
        with open(stream, "a") as fh:
            fh.write('{"t": 7, "n": 3, "tri"\n')
        trace = tmp_path / "trace.csv"
        code = main(
            ["detect", str(stream), "--method", "exact", "--sizes", "2,1", "--b", "12", "--out", str(trace)]
        )
        assert code == 0
        assert "alarm at t=3" in capsys.readouterr().err
        assert [r[0] for r in read_csv_rows(trace)[1:]] == ["1", "2", "3"]

    def test_node_count_mismatch_names_both_counts(self, tmp_path, capsys):
        """A stream of 5 nodes against an indicator built from --sizes 2,1
        (3 rows) is a usage error that points at --sizes and --nodes, not
        numpy's bare "shapes not aligned"."""
        stream = tmp_path / "five.ndjson"
        args = ["simulate", "--sizes", "2,1", "--nodes", "5", "--horizon", "3"]
        assert main(args + ["--out", str(stream)]) == 0
        code = main(
            ["detect", str(stream), "--method", "exact", "--sizes", "2,1", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "n=5 nodes" in err and "3 rows" in err
        assert "--sizes" in err and "--nodes" in err
        assert "not aligned" not in err

    def test_exact_method_without_sizes_is_a_usage_error(self, tmp_path, capsys):
        stream = simulate_degenerate(tmp_path)
        code = main(
            ["detect", str(stream), "--method", "exact", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 2
        assert "sizes" in capsys.readouterr().err


class TestStreamingDetect:
    """detect reads its stream lazily: the same trace as a run over the
    whole file read into a list, in memory that does not grow with the file."""

    @given(
        method=st.sampled_from(METHODS),
        convention=st.sampled_from(CONVENTIONS),
        sizes=st.sampled_from([(2, 1), (3, 2)]),
        extra=st.integers(0, 2),
        horizon=st.integers(1, 16),
        tau=st.integers(0, 16),
        w=st.integers(1, 4),
        b=st.sampled_from([0.5, 3.0, 1000.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_streamed_and_listed_input_give_the_same_run(
        self, tmp_path_factory, method, convention, sizes, extra, horizon, tau, w, b, seed
    ):
        n = sum(sizes) + extra
        path = tmp_path_factory.mktemp("stream") / "s.ndjson"
        scenario = StreamScenario(
            assignment=assignment_from_sizes(sizes, n=n),
            sigma=1.0,
            tau=tau,
            horizon=horizon,
            seed=seed,
            convention=convention,
        )
        write_stream(iter_stream(scenario), path)
        if method == EXACT:
            flags = ["--sizes", ",".join(map(str, sizes)), "--nodes", str(n)]
            config = DetectorConfig(
                method=EXACT, b=b, A=build_indicator(assignment_from_sizes(sizes, n=n))
            )
        else:
            flags = ["--m", "2", "--window", str(w)]
            config = DetectorConfig(method=method, b=b, m=2, w=w)
        trace = path.with_suffix(".csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["detect", str(path), "--method", method, *flags, "--b", repr(b),
                         "--out", str(trace)])
        assert code == 0

        snapshots = read_stream(path)
        want = run_detector(snapshots, config)
        rows = read_csv_rows(trace)[1:]
        assert [(int(t) - config.lag, float(s)) for t, s, _ in rows] == want.trajectory
        assert [int(a) for _, _, a in rows] == [int(s >= b) for _, s in want.trajectory]
        if want.stop_time is None:
            assert err.getvalue() == f"no alarm in {len(snapshots)} snapshots\n"
        else:
            assert err.getvalue() == f"alarm at t={want.stop_time}\n"

    def test_peak_memory_does_not_grow_with_the_stream(self, tmp_path):
        """Ten times the snapshots (n = 40, no alarm) must not raise the
        traced peak by a tenth of what holding the extra 540 snapshots
        would take: detect keeps its w-snapshot window, not the file."""
        n, window = 40, 5
        peaks = {}
        for horizon in (60, 600):
            stream = tmp_path / f"s{horizon}.ndjson"
            args = ["simulate", "--sizes", "20,10", "--nodes", str(n), "--horizon", str(horizon)]
            assert main(args + ["--out", str(stream)]) == 0
            argv = ["detect", str(stream), "--method", "spectral", "--m", "2",
                    "--window", str(window), "--b", "1e9", "--out", str(tmp_path / "t.csv")]
            err = io.StringIO()
            tracemalloc.start()
            try:
                with contextlib.redirect_stderr(err):
                    assert main(argv) == 0
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert err.getvalue() == f"no alarm in {horizon} snapshots\n"
        held = (600 - 60) * n * n * 8
        assert peaks[600] - peaks[60] < held / 10, peaks


class TestSeedFlag:
    """Only the subcommands that draw random numbers take --seed."""

    @pytest.mark.parametrize(
        "args",
        [
            ["detect", "stream.ndjson", "--method", "spectral", "--m", "1", "--window", "2"],
            ["theory", "--sizes", "12,6", "--gamma", "100"],
            ["xcorr", "sensors.csv", "--segment", "4"],
        ],
        ids=["detect", "theory", "xcorr"],
    )
    def test_commands_that_draw_nothing_reject_it(self, args, capsys):
        assert main(args + ["--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--sizes", "2,1", "--horizon", "3"],
            ["calibrate", "--target", "10", "--reps", "50", "--rel-tol", "0.4"],
            ["bench", "--gammas", "10", "--reps", "50", "--rel-tol", "0.4"],
        ],
        ids=["simulate", "calibrate", "bench"],
    )
    def test_commands_that_draw_accept_it(self, args, tmp_path):
        if args[0] != "simulate":
            args = args + ["--sizes", "2,1", "--method", "exact"]
        assert main(args + ["--seed", "1", "--out", str(tmp_path / "out")]) == 0


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

    def test_calibrate_with_a_nan_sigma_is_a_usage_error(self, tmp_path, capsys):
        """It used to exit 3 with "no threshold reaches the target run length"."""
        out = tmp_path / "cal.json"
        args = ["calibrate", "--target", "20", "--sizes", "2,1", "--sigma", "nan"]
        code = main(args + ["--method", "exact", "--reps", "20", "--out", str(out)])
        assert code == 2
        assert "sigma must be finite" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["calibrate", "--target", "inf"], "--target"),
            (["calibrate", "--target", "nan"], "--target"),
            (["bench", "--gammas", "50,inf"], "--gammas"),
            (["bench", "--gammas", "50,nan"], "--gammas"),
        ],
    )
    def test_non_finite_target_is_a_usage_error(self, args, flag, tmp_path, capsys):
        args = args + ["--sizes", "2,1", "--method", "exact", "--reps", "50"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert f"error: {flag} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

"""End-to-end tests of the command line interface.

Everything runs through main(argv) in-process: exit codes are the contract
(0 success, 2 usage problems, 3 validity/calibration/format failures).
"""

import contextlib
import csv
import io
import json
import math
import re
import tracemalloc
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_cusum import (
    CONVENTIONS,
    EXACT,
    METHODS,
    TOP1,
    DetectorConfig,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    iter_stream,
    parse_config,
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

    def test_a_sigma_whose_draws_overflow_is_a_usage_error(self, tmp_path, capsys):
        """sigma = 1e308 used to overflow in the draws, warn, write two lines
        and stop at t=3; it is refused before any draw."""
        out = tmp_path / "s.ndjson"
        args = ["simulate", "--sizes", "2,1", "--nodes", "4", "--sigma", "1e308", "--tau", "2",
                "--horizon", "6", "--seed", "3", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        assert "error: sigma must be finite, nonnegative and at most" in capsys.readouterr().err
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


class TestUnreadDetectorFlags:
    """A flag the chosen method never reads exits 2 and is named, instead of
    a run of some other detector than the one asked for."""

    @staticmethod
    def simulate_planted(tmp_path):
        stream = tmp_path / "planted.ndjson"
        args = ["simulate", "--sizes", "4,2", "--nodes", "8", "--tau", "3", "--horizon", "12"]
        assert main(args + ["--out", str(stream)]) == 0
        return stream

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--method", "top1", "--window", "2", "--m", "3"], "--m 3"),
            (["--method", "exact", "--sizes", "4,2", "--nodes", "8", "--m", "2"], "--m"),
            (["--method", "exact", "--sizes", "4,2", "--nodes", "8", "--window", "3"], "--window"),
            (["--method", "exact", "--sizes", "4,2", "--nodes", "8", "--d", "1"], "--d"),
            (["--method", "spectral", "--m", "2", "--window", "2", "--sizes", "9,9"], "--sizes"),
            (["--method", "spectral", "--m", "2", "--window", "2", "--nodes", "8"], "--nodes"),
            (["--method", "top1", "--window", "2", "--sizes", "4,2"], "--sizes"),
        ],
        ids=["top1-m", "exact-m", "exact-window", "exact-d", "spectral-sizes", "spectral-nodes", "top1-sizes"],
    )
    def test_detect_names_the_flag_and_exits_two(self, tmp_path, capsys, flags, named):
        stream = self.simulate_planted(tmp_path)
        trace = tmp_path / "t.csv"
        assert main(["detect", str(stream), *flags, "--out", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not trace.exists()

    def test_a_config_file_flag_is_refused_too(self, tmp_path, capsys):
        stream = self.simulate_planted(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = exact\nsizes = 4,2\nnodes = 8\nwindow = 3\n")
        assert main(["detect", str(stream), "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        assert "--window" in capsys.readouterr().err

    def test_top1_at_m_one_is_top1_without_m(self, tmp_path):
        stream = self.simulate_planted(tmp_path)
        traces = []
        for extra in ([], ["--m", "1"]):
            trace = tmp_path / f"t{len(extra)}.csv"
            argv = ["detect", str(stream), "--method", "top1", "--window", "2", "--b", "2"]
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + extra + ["--out", str(trace)]) == 0
            traces.append(trace.read_text())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("flag,value", [("--m", "2"), ("--window", "3"), ("--d", "1")])
    def test_calibrate_refuses_windowed_flags_for_the_exact_method(self, tmp_path, capsys, flag, value):
        args = ["calibrate", "--target", "10", "--sizes", "2,1", "--method", "exact", "--reps", "20"]
        assert main(args + [flag, value, "--out", str(tmp_path / "cal.json")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "cal.json").exists()

    def test_calibrate_reads_sizes_and_nodes_for_every_method(self, tmp_path):
        """There they describe the simulated scenario, not the detector."""
        out = tmp_path / "cal.json"
        args = ["calibrate", "--target", "10", "--sizes", "2,1", "--nodes", "4", "--method", "top1"]
        args += ["--window", "2", "--reps", "40", "--rel-tol", "0.4", "--out", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text())["method"] == "top1"


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
            # top1 is spectral at m = 1 and refuses any other --m
            flags = ["--window", str(w)] if method == TOP1 else ["--m", "2", "--window", str(w)]
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

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize(
        "args",
        [["calibrate", "--target", "10"], ["bench", "--gammas", "10,20"]],
        ids=["calibrate", "bench"],
    )
    def test_fewer_than_one_worker_is_a_usage_error(self, tmp_path, capsys, args, workers):
        out = tmp_path / "out"
        args = args + ["--sizes", "2,1", "--method", "exact", "--reps", "20"]
        assert main(args + ["--workers", workers, "--out", str(out)]) == 2
        assert f"error: workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

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


def small_stream_bytes():
    """Five n = 4 snapshots, sizes (2, 1), change at 2, as simulate writes them."""
    sc = StreamScenario(assignment=assignment_from_sizes((2, 1), n=4), sigma=1.0, tau=2, horizon=5, seed=1)
    buf = io.StringIO()
    write_stream(iter_stream(sc), buf)
    return buf.getvalue().encode()


SMALL_CSV = b"a,b,c\n0.5,1,2\n1.5,-1,0\n2,3,1e-3\n4,0.25,-2\n"
DETECT_CONFIG = b"method = spectral\nm = 1\nwindow = 2\nb = 5\n"
THEORY_CONFIG = b"sizes = 2,1\nsigma = 1\ngamma = 50\n"
# tokens a byte-level mutation rarely builds by itself
TOKENS = [b"1e308", b"-1e308", b"NaN", b"Infinity", b"-0", b"\n", b"\r\n", b"\xff", b'"', b",", b"[", b"]", b"="]


@st.composite
def mutations(draw, base):
    """base after one to four edits: insert bytes or a token, delete a run,
    replace a byte, or copy a slice of the input elsewhere."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "token", "delete", "replace", "copy"]))
        if kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "token":
            data[at:at] = draw(st.sampled_from(TOKENS))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        elif kind == "replace":
            data[at : at + 1] = draw(st.binary(min_size=1, max_size=1))
        else:
            start = draw(st.integers(0, len(data)))
            data[at:at] = data[start : start + draw(st.integers(1, 32))]
    return bytes(data)


def raw_inputs(base):
    return st.one_of(mutations(base), st.binary(max_size=200))


def run_main(argv):
    """(exit code, stderr) of main(argv); stdout and xcorr's warning about a
    zero-variance channel are dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "segment .* zero-variance", UserWarning)
            code = main(argv)
    return code, err.getvalue()


class TestCliFuzz:
    """Raw bytes run through main as a stream, a sensor CSV or a config file
    end in a documented exit code, never in an exception out of main."""

    @given(data=raw_inputs(small_stream_bytes()))
    @settings(max_examples=60, deadline=None)
    def test_detect_exits_zero_or_three(self, tmp_path_factory, data):
        """Exact may also exit 2, but only to say the stream's node count
        is not the indicator's."""
        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / "s.ndjson"
        path.write_bytes(data)
        common = [str(path), "--b", "5", "--out", str(tmp / "trace.csv")]
        for flags in (["--method", "spectral", "--m", "1", "--window", "2"],
                      ["--method", "top1", "--window", "2"]):
            assert run_main(["detect", *common, *flags])[0] in (0, 3)
        code, err = run_main(["detect", *common, "--method", "exact", "--sizes", "2,1", "--nodes", "4"])
        assert code in (0, 3) or (code == 2 and "must match the stream" in err)

    @given(data=raw_inputs(SMALL_CSV))
    @settings(max_examples=60, deadline=None)
    def test_xcorr_exits_zero_or_three(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "sensors.csv").write_bytes(data)
        argv = ["xcorr", str(tmp / "sensors.csv"), "--segment", "2", "--out", str(tmp / "s.ndjson")]
        assert run_main(argv)[0] in (0, 3)

    @given(data=st.one_of(raw_inputs(DETECT_CONFIG), raw_inputs(THEORY_CONFIG)))
    @settings(max_examples=80, deadline=None)
    def test_config_files_exit_zero_two_or_three(self, tmp_path_factory, data):
        """Each config runs in a fresh directory. One that names out, which
        would write where it says, is skipped, and so is one whose sizes
        and nodes, digit runs added up, exceed 200: nothing bounds n, and
        `theory` builds a label per node and the exact detector an n x n
        AA^T, so a few fuzzed digits could ask for gigabytes."""
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "run.cfg").write_bytes(data)
        (tmp / "s.ndjson").write_bytes(small_stream_bytes())
        try:
            values = parse_config(tmp / "run.cfg")
        except ValueError:
            values = {}
        nodes = values.get("sizes", "") + "," + values.get("nodes", "")
        assume("out" not in values)
        assume(sum(map(int, re.findall(r"\d+", nodes.replace("_", "")))) <= 200)
        with contextlib.chdir(tmp):
            for argv in (["detect", "s.ndjson"], ["theory"]):
                assert run_main([*argv, "--config", "run.cfg"])[0] in (0, 2, 3)

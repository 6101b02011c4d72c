"""Tests for stream serialization, trace/report writers, sensor correlation
streams, and config parsing."""

import io
import json
import math

import numpy as np
import pytest

from spectral_cusum import (
    EXACT,
    IID_FULL,
    DetectorConfig,
    GraphSnapshot,
    MultichannelSeries,
    OcPoint,
    StreamFormatError,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    make_stream,
    parse_config,
    read_sensor_csv,
    read_stream,
    run_detector,
    write_oc,
    write_report,
    write_stream,
    write_trace,
    xcorr_stream,
)


def scenario(**kw):
    base = dict(assignment=assignment_from_sizes((2, 1)), sigma=1.0, tau=1, horizon=3, seed=5)
    base.update(kw)
    return StreamScenario(**base)


class TestStreamRoundTrip:
    @pytest.mark.parametrize("convention", ["symmetric", IID_FULL])
    def test_round_trip_is_bit_exact(self, tmp_path, convention):
        path = tmp_path / "stream.ndjson"
        snaps = make_stream(scenario(convention=convention))
        assert write_stream(snaps, path) == 3
        back = read_stream(path)
        assert [s.t for s in back] == [s.t for s in snaps]
        for a, b in zip(snaps, back):
            assert a.n == b.n
            assert np.array_equal(a.weights, b.weights)

    def test_symmetric_streams_use_the_triangular_layout(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        write_stream(make_stream(scenario()), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert "tri" in first and "full" not in first
        assert len(first["tri"]) == 6

    def test_asymmetric_streams_use_the_full_layout(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        write_stream(make_stream(scenario(convention=IID_FULL)), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert "full" in first and "tri" not in first
        assert len(first["full"]) == 9

    def test_file_objects_work_too(self):
        buf = io.StringIO()
        snaps = make_stream(scenario())
        write_stream(snaps, buf)
        buf.seek(0)
        back = read_stream(buf)
        assert len(back) == 3
        assert not buf.closed

    def test_empty_file_reads_as_an_empty_stream(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert read_stream(path) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        write_stream(make_stream(scenario()), path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert len(read_stream(path)) == 3


class TestStreamErrors:
    def write_and_truncate(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        write_stream(make_stream(scenario()), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_line_reports_its_number(self, tmp_path):
        path = self.write_and_truncate(tmp_path)
        with pytest.raises(StreamFormatError, match="line 3"):
            read_stream(path)

    def test_wrong_entry_count_is_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"t": 1, "n": 3, "tri": [1.0, 2.0]}\n')
        with pytest.raises(StreamFormatError, match="line 1"):
            read_stream(path)

    def test_unknown_keys_are_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"t": 1, "n": 1, "tri": [0.0], "frame": 2}\n')
        with pytest.raises(StreamFormatError):
            read_stream(path)

    def test_both_layouts_at_once_are_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"t": 1, "n": 1, "tri": [0.0], "full": [0.0]}\n')
        with pytest.raises(StreamFormatError):
            read_stream(path)

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e999", "10**400"],
    )
    def test_non_finite_weights_are_rejected(self, tmp_path, literal):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            '{"t": 1, "n": 2, "tri": [0.0, 0.0, 0.0]}\n'
            f'{{"t": 2, "n": 2, "tri": [0.0, {literal}, 0.0]}}\n'
        )
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream(path)

    @pytest.mark.parametrize("t2", [1, 0])
    def test_time_indices_must_increase(self, tmp_path, t2):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            '{"t": 1, "n": 1, "tri": [0.0]}\n'
            f'{{"t": {t2}, "n": 1, "tri": [0.0]}}\n'
        )
        with pytest.raises(StreamFormatError, match='line 2: "t" must increase'):
            read_stream(path)


class TestTraceAndReports:
    def run_exact(self):
        snaps = make_stream(scenario(sigma=0.0, tau=0, horizon=5))
        cfg = DetectorConfig(method=EXACT, b=12.0, A=build_indicator(assignment_from_sizes((2, 1))))
        return run_detector(snaps, cfg)

    def test_trace_rows_carry_wall_clock_times(self):
        buf = io.StringIO()
        assert write_trace(self.run_exact(), buf) == 3
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,statistic,alarmed"
        assert lines[1] == "1,5.0,0"
        assert lines[3] == "3,15.0,1"

    def test_windowed_trace_shifts_by_the_lag(self):
        snaps = make_stream(scenario(sigma=0.0, tau=0, horizon=6))
        cfg = DetectorConfig(method="spectral", b=3.5, m=2, w=2, d=1.0)
        buf = io.StringIO()
        write_trace(run_detector(snaps, cfg), buf)
        rows = buf.getvalue().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["3", "4"]
        assert rows[-1].endswith(",1")

    def test_oc_table_format(self):
        buf = io.StringIO()
        rows = [OcPoint(gamma=50.0, b=4.5, edd=3.25, se=0.125)]
        assert write_oc(rows, buf) == 1
        assert buf.getvalue().splitlines() == [
            "gamma,b,edd,se",
            "50.0,4.5,3.25,0.125",
        ]

    def test_report_json_converts_numpy_scalars(self):
        buf = io.StringIO()
        write_report({"b": np.float64(1.5), "n": np.int64(3), "v": np.arange(2)}, buf)
        data = json.loads(buf.getvalue())
        assert data == {"b": 1.5, "n": 3, "v": [0, 1]}


class TestSensorSeries:
    def test_reads_header_and_rows(self, tmp_path):
        path = tmp_path / "sensors.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        series = read_sensor_csv(path, segment=2)
        assert series.names == ("a", "b", "c")
        assert series.samples == 2 and series.channels == 3

    def test_rejects_single_channel_and_empty_files(self, tmp_path):
        solo = tmp_path / "one.csv"
        solo.write_text("a\n1\n")
        with pytest.raises(StreamFormatError):
            read_sensor_csv(solo, segment=2)
        empty = tmp_path / "none.csv"
        empty.write_text("")
        with pytest.raises(StreamFormatError, match="empty"):
            read_sensor_csv(empty, segment=2)

    def test_reports_ragged_and_non_numeric_rows(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1,2\n3\n")
        with pytest.raises(StreamFormatError, match="line 3"):
            read_sensor_csv(ragged, segment=2)
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("a,b\n1,x\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_sensor_csv(alpha, segment=2)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_rejects_non_finite_samples(self, tmp_path, bad):
        path = tmp_path / "sensors.csv"
        path.write_text(f"a,b\n1,2\n3,{bad}\n5,6\n")
        with pytest.raises(StreamFormatError, match="line 3: non-finite"):
            read_sensor_csv(path, segment=2)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            MultichannelSeries(names=("a",), values=np.zeros((4, 1)), segment=2)
        with pytest.raises(ValueError):
            MultichannelSeries(names=("a", "b"), values=np.zeros((4, 2)), segment=1)
        with pytest.raises(ValueError):
            MultichannelSeries(names=("a", "b"), values=np.zeros((4, 3)), segment=2)


class TestXcorrStream:
    def series(self, values, segment):
        values = np.asarray(values, dtype=float)
        names = tuple(f"ch{i}" for i in range(values.shape[1]))
        return MultichannelSeries(names=names, values=values, segment=segment)

    def test_identical_channels_correlate_to_one(self):
        x = np.linspace(0.0, 1.0, 8)
        snaps = xcorr_stream(self.series(np.column_stack([x, x]), segment=8))
        assert len(snaps) == 1
        np.testing.assert_allclose(snaps[0].weights, np.ones((2, 2)), atol=1e-12)

    def test_negated_channels_correlate_to_minus_one(self):
        x = np.array([0.0, 1.0, 0.5, 2.0])
        snaps = xcorr_stream(self.series(np.column_stack([x, -x]), segment=4))
        np.testing.assert_allclose(
            snaps[0].weights, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12
        )

    def test_zero_variance_channel_warns_and_zeroes_out(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        flat = np.ones(4)
        with pytest.warns(UserWarning, match="zero-variance"):
            snaps = xcorr_stream(self.series(np.column_stack([x, flat]), segment=4))
        np.testing.assert_array_equal(snaps[0].weights, [[1.0, 0.0], [0.0, 0.0]])

    def test_segmentation_drops_the_tail(self):
        rng = np.random.default_rng(0)
        snaps = xcorr_stream(self.series(rng.standard_normal((23, 3)), segment=5))
        assert [s.t for s in snaps] == [1, 2, 3, 4]

    def test_output_is_bit_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(1)
        snaps = xcorr_stream(self.series(rng.standard_normal((40, 4)), segment=10))
        for s in snaps:
            assert np.array_equal(s.weights, s.weights.T)
            np.testing.assert_array_equal(np.diag(s.weights), np.ones(4))

    def test_independent_noise_has_small_correlations(self):
        """With 500-sample segments, independent channels should produce
        off-diagonal correlations below 0.2 in nearly every entry (the
        standard error is about 0.045)."""
        rng = np.random.default_rng(2)
        snaps = xcorr_stream(self.series(rng.standard_normal((20000, 6)), segment=500))
        off = []
        for s in snaps:
            iu = np.triu_indices(6, k=1)
            off.extend(np.abs(s.weights[iu]))
        off = np.array(off)
        assert (off <= 0.2).mean() >= 0.95

    def test_round_trips_through_the_stream_format(self, tmp_path):
        rng = np.random.default_rng(3)
        snaps = xcorr_stream(self.series(rng.standard_normal((12, 3)), segment=4))
        path = tmp_path / "xcorr.ndjson"
        write_stream(snaps, path)
        back = read_stream(path)
        for a, b in zip(snaps, back):
            assert np.array_equal(a.weights, b.weights)


class TestParseConfig:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nsizes = 12,6\n\nsigma = 1.0\nmethod=spectral\n")
        assert parse_config(path) == {
            "sizes": "12,6",
            "sigma": "1.0",
            "method": "spectral",
        }

    def test_values_keep_embedded_equals_signs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("note = a=b\n")
        assert parse_config(path) == {"note": "a=b"}

    def test_rejects_lines_without_a_separator(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sizes 12,6\n")
        with pytest.raises(StreamFormatError, match="line 1"):
            parse_config(path)

    def test_rejects_empty_keys_and_duplicates(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("= 3\n")
        with pytest.raises(StreamFormatError):
            parse_config(path)
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(StreamFormatError, match="duplicate"):
            parse_config(path)

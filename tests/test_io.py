"""Tests for stream serialization, trace/report writers, sensor correlation
streams, and config parsing."""

import contextlib
import io
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_cusum.io as stream_io
from spectral_cusum import (
    EXACT,
    IID_FULL,
    DetectorConfig,
    GraphSnapshot,
    OcPoint,
    StreamFormatError,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    iter_stream,
    iter_stream_file,
    parse_config,
    read_stream,
    run_detector,
    write_oc,
    write_report,
    write_stream,
    write_trace,
    xcorr_stream,
)
from spectral_cusum.cli import main


def scenario(**kw):
    base = dict(assignment=assignment_from_sizes((2, 1)), sigma=1.0, tau=1, horizon=3, seed=5)
    base.update(kw)
    return StreamScenario(**base)


class TestStreamRoundTrip:
    @pytest.mark.parametrize("convention", ["symmetric", IID_FULL])
    def test_round_trip_is_bit_exact(self, tmp_path, convention):
        path = tmp_path / "stream.ndjson"
        snaps = list(iter_stream(scenario(convention=convention)))
        assert write_stream(snaps, path) == 3
        back = read_stream(path)
        assert [s.t for s in back] == [s.t for s in snaps]
        for a, b in zip(snaps, back):
            assert a.n == b.n
            assert np.array_equal(a.weights, b.weights)

    def test_node_count_is_the_size_of_the_weights(self):
        """n is derived from the weights, so no snapshot can claim n = 3
        while holding a 2 x 2 matrix and send write_stream into
        np.triu_indices(3)."""
        with pytest.raises(TypeError):
            GraphSnapshot(t=1, n=3, weights=np.eye(2))
        fh = io.StringIO()
        assert write_stream([GraphSnapshot(t=1, weights=np.eye(2))], fh) == 1
        assert json.loads(fh.getvalue()) == {"t": 1, "n": 2, "tri": [1.0, 0.0, 1.0]}

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2), ()])
    def test_weights_must_be_a_square_matrix(self, shape):
        """A (2, 3) snapshot would be written as a "full" line of six numbers
        for n = 2, which the reader refuses; it is refused when built."""
        with pytest.raises(ValueError, match="square 2-D array"):
            GraphSnapshot(t=1, weights=np.zeros(shape))

    def test_symmetric_streams_use_the_triangular_layout(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        write_stream(list(iter_stream(scenario())), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert "tri" in first and "full" not in first
        assert len(first["tri"]) == 6

    def test_asymmetric_streams_use_the_full_layout(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        write_stream(list(iter_stream(scenario(convention=IID_FULL))), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert "full" in first and "tri" not in first
        assert len(first["full"]) == 9

    def test_file_objects_work_too(self):
        buf = io.StringIO()
        snaps = list(iter_stream(scenario()))
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
        write_stream(list(iter_stream(scenario())), path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert len(read_stream(path)) == 3


class TestLazyReader:
    def test_reads_a_line_only_when_its_snapshot_is_asked_for(self, tmp_path):
        """Snapshots before a malformed line come out first; the error is
        raised only when the consumer asks for the snapshot on that line."""
        path = tmp_path / "stream.ndjson"
        write_stream(list(iter_stream(scenario())), path)
        with open(path, "a") as fh:
            fh.write('{"t": 4, "n": 3, "tri"\n')
        snapshots = iter_stream_file(path)
        assert [next(snapshots).t for _ in range(3)] == [1, 2, 3]
        with pytest.raises(StreamFormatError, match="line 4"):
            next(snapshots)

    def test_closing_early_closes_the_file(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        write_stream(list(iter_stream(scenario())), path)
        snapshots = iter_stream_file(path)
        next(snapshots)
        fh = snapshots.gi_frame.f_locals["fh"]
        snapshots.close()
        assert fh.closed

    def test_a_callers_file_stays_open(self):
        buf = io.StringIO()
        write_stream(list(iter_stream(scenario())), buf)
        buf.seek(0)
        snapshots = iter_stream_file(buf)
        next(snapshots)
        snapshots.close()
        assert not buf.closed


class TestStreamErrors:
    def write_and_truncate(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        write_stream(list(iter_stream(scenario())), path)
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1]", "expected a JSON object"),
            ('{"t": "1", "n": 1, "tri": [0.0]}', '"t" must be an integer'),
            ('{"t": true, "n": 1, "tri": [0.0]}', '"t" must be an integer'),
            ('{"t": 1.5, "n": 1, "tri": [0.0]}', '"t" must be an integer'),
            ('{"t": 2, "n": 0, "tri": []}', '"n" must be a positive integer'),
            ('{"t": 2, "n": true, "tri": [0.0]}', '"n" must be a positive integer'),
        ],
        ids=["array", "t-string", "t-bool", "t-float", "n-zero", "n-bool"],
    )
    @pytest.mark.parametrize("reader", ["default", "json-only"])
    def test_a_line_with_the_wrong_shape_names_its_file_and_line(self, tmp_path, line, message, reader):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"t":1,"n":1,"tri":[0.5]}\n' + line + "\n")
        with json_only() if reader == "json-only" else contextlib.nullcontext():
            with pytest.raises(StreamFormatError) as err:
                read_stream(path)
        assert str(err.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize("t2", [1, 0])
    def test_time_indices_must_increase(self, tmp_path, t2):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            '{"t": 1, "n": 1, "tri": [0.0]}\n'
            f'{{"t": {t2}, "n": 1, "tri": [0.0]}}\n'
        )
        with pytest.raises(StreamFormatError, match='line 2: "t" must increase'):
            read_stream(path)

    @pytest.mark.parametrize(
        "weights",
        ["[true, 0, 0]", '["1.5", 0, 0]', "[0, false, 0]", "[0, 0, null]", '[0, 1, "a"]'],
        ids=["true", "numeric-string", "false", "null", "string"],
    )
    def test_weights_must_be_json_numbers(self, weights):
        text = '{"t": 1, "n": 2, "tri": [0, 0, 0]}\n' f'{{"n": 2, "tri": {weights}, "t": 2}}\n'
        with pytest.raises(StreamFormatError, match='line 2: "tri" must hold JSON numbers only'):
            read_stream(io.StringIO(text))

    def test_every_json_number_spelling_is_a_weight(self):
        """The cheap screen in front of the type check passes numbers in
        every JSON spelling, with the keys in any order, and a NaN still
        fails as non-finite rather than as a non-number."""
        text = (
            '{"n": 2, "full": [-0, 1E+2, 2.5e-3, -7], "t": 1}\n'
            '{"tri" : [ 1 , -2.50 , 3e0 ] , "t" : 2 , "n" : 2}\n'
        )
        one, two = read_stream(io.StringIO(text))
        assert one.weights.tolist() == [[0.0, 100.0], [0.0025, -7.0]]
        assert two.weights.tolist() == [[1.0, -2.5], [-2.5, 3.0]]
        with pytest.raises(StreamFormatError, match="line 1: .*non-finite"):
            read_stream(io.StringIO('{"t": 1, "n": 1, "full": [NaN]}\n'))


def detect_exit(path) -> tuple[int, str]:
    """Exit code and stderr of `detect` on a stream file."""
    err = io.StringIO()
    argv = ["detect", str(path), "--method", "spectral", "--m", "1", "--window", "1",
            "--b", "5.0", "--out", str(path.with_suffix(".csv"))]
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestMalformedFilesExitThree:
    """Lines json cannot take, and bytes that are not UTF-8, are format
    errors naming the file and line, not usage errors or tracebacks."""

    def test_an_integer_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "big.ndjson"
        path.write_text('{"t":1,"n":1,"tri":[' + "1" * 5000 + "]}\n")
        code, err = detect_exit(path)
        assert code == 3
        assert f"{path}: line 1: a number has more than {sys.get_int_max_str_digits()} digits" in err

    def test_a_weight_list_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.ndjson"
        path.write_text('{"t":1,"n":1,"tri":' + "[" * 100_000 + "]" * 100_000 + "}\n")
        code, err = detect_exit(path)
        assert code == 3
        assert f"{path}: line 1: invalid JSON (nested too deeply)" in err

    def test_a_byte_that_is_not_utf8_in_a_stream(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_bytes(b'{"t":1,"n":1,"tri":[0.5]}\n{"t":2,"n":1,"tri":[0.5\xff]}\n')
        code, err = detect_exit(path)
        assert code == 3
        assert f"{path}: line 2: invalid JSON" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"a,b\n1,2\n3,\xff\n", "line 3: non-numeric value"),
            (b"a,\xffb\n1,2\n3,4\n", "line 1: a channel name is not UTF-8 text"),
        ],
        ids=["row", "header"],
    )
    def test_a_byte_that_is_not_utf8_in_a_sensor_csv(self, tmp_path, text, message):
        path = tmp_path / "s.csv"
        path.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["xcorr", str(path), "--segment", "2", "--out", str(tmp_path / "o.ndjson")])
        assert code == 3
        assert f"{path}: {message}" in err.getvalue()

    def test_a_byte_that_is_not_utf8_in_a_config(self, tmp_path):
        stream = tmp_path / "s.ndjson"
        write_stream(list(iter_stream(scenario())), stream)
        config = tmp_path / "run.cfg"
        config.write_bytes(b"b = 5.0\n# caf\xe9\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["detect", str(stream), "--config", str(config), "--method", "spectral",
                         "--m", "1", "--window", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert f"{config}: line 2: not UTF-8 text" in err.getvalue()


def json_only():
    """Force every line through the json reader, the fast reader's twin."""
    return mock.patch.object(stream_io, "_EXTENDED", False)


def outcome(text: str):
    """What iter_stream_file makes of a text: the snapshots it yields, as
    (t, shape, weight bytes), and the message of the StreamFormatError that
    ends it, if one does."""
    snaps = []
    try:
        for snap in iter_stream_file(io.StringIO(text)):
            snaps.append((snap.t, snap.weights.shape, snap.weights.tobytes()))
    except StreamFormatError as err:
        return snaps, str(err)
    return snaps, None


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


needs_extended = pytest.mark.skipif(
    not stream_io._EXTENDED, reason="the canonical reader needs x87 extended precision"
)


@needs_extended
class TestCanonicalReader:
    """Lines in write_stream's exact layout are read without json: digits as
    integers, scaled in extended precision, bit for bit float(token)."""

    @pytest.mark.parametrize(
        "token",
        [
            "1.700356855955824309",
            "-0.0",
            "0.0",
            "1e-05",
            "5e-324",
            "2.2250738585072014e-308",
            "1.7976931348623157e+308",
            "1e+22",
            "0.00012345678901234567",
            "1.8446744073709551617",
            "12345678901234567890.5",
            "9007959353158310.0000",
            "0.1234567890123456789012345678",
            "0.0000000000000000000000000001",
            "-123456.5",
            "9007199254740993.0",
        ],
    )
    def test_each_token_reads_as_float_of_it(self, token):
        line = f'{{"t":1,"n":1,"tri":[{token}]}}\n'
        t, n, key, weights = stream_io._read_canonical(line)
        assert (t, n, key) == (1, 1, "tri")
        assert bits(weights[0]) == bits(float(token))
        (snap,) = read_stream(io.StringIO(line))
        assert bits(snap.weights[0, 0]) == bits(float(token))

    def test_a_float64_midpoint_is_read_by_float(self):
        """1700356855955824309 / 10**18 rounds in extended precision onto a
        float64 midpoint, and rounding that to float64 lands one ulp low."""
        once = np.longdouble(1700356855955824309) / np.longdouble(10**18)
        assert float(np.float64(once)) == 1.7003568559558242
        assert float("1.700356855955824309") == 1.7003568559558244
        (weight,) = stream_io._read_canonical('{"t":1,"n":1,"full":[1.700356855955824309]}')[3]
        assert weight == 1.7003568559558244

    def test_powers_of_ten_are_exact(self):
        assert [int(p) for p in stream_io._POW10] == [10**k for k in range(28)]

    def test_an_overflowing_exponent_is_a_non_finite_weight(self):
        text = '{"t":1,"n":2,"tri":[0.5,1e999,0.25]}\n'
        message = 'line 1: "tri" contains a non-finite weight'
        for reader in (contextlib.nullcontext(), json_only()):
            with reader, pytest.raises(StreamFormatError, match=message):
                read_stream(io.StringIO(text))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_up_to_64_exponent_tokens_are_read_by_float(self, extra):
        """64 tokens with an exponent, the first, a middle and the last among
        them, are read here; a 65th sends the line to json, which reads the
        same snapshot."""
        want = 12 * 13 // 2
        rng = np.random.default_rng(8)
        tokens = [repr(v) for v in rng.standard_normal(want).tolist()]
        spots = [0, want - 1, *range(want // 2 - 31, want // 2 + 31 + extra)]
        for i in spots:
            tokens[i] = f"{rng.integers(1, 10)}.{rng.integers(0, 10**6)}e{rng.integers(-300, 300):+d}"
        assert sum("e" in tok for tok in tokens) == 64 + extra
        line = f'{{"t":1,"n":12,"tri":[{",".join(tokens)}]}}\n'
        canonical = stream_io._read_canonical(line)
        if extra:
            assert canonical is None
        else:
            assert [bits(w) for w in canonical[3]] == [bits(float(tok)) for tok in tokens]
        with json_only():
            expected = outcome(line)
        assert outcome(line) == expected

    @pytest.mark.parametrize("turn", range(6))
    def test_a_line_of_slow_tokens_reads_as_float_of_each(self, turn):
        """Exponent, long and float64-midpoint tokens side by side, each in
        turn the first and the last token of the line."""
        tokens = ["1e-05", "12345678901234567890.5", "1.700356855955824309",
                  "-2.5E-300", "0.00012345678901234567", "-1.700356855955824309"]
        tokens = tokens[turn:] + tokens[:turn]
        line = f'{{"t":1,"n":3,"tri":[{",".join(tokens)}]}}\n'
        weights = stream_io._read_canonical(line)[3]
        assert [bits(w) for w in weights] == [bits(float(tok)) for tok in tokens]
        with json_only():
            expected = outcome(line)
        assert outcome(line) == expected

    @pytest.mark.parametrize("token, value", [("1", 1.0), ("-0", 0.0), ("7", 7.0)])
    def test_integer_tokens_take_the_json_path(self, token, value):
        line = f'{{"t":1,"n":1,"tri":[{token}]}}\n'
        assert stream_io._read_canonical(line) is None
        (snap,) = read_stream(io.StringIO(line))
        assert bits(snap.weights[0, 0]) == bits(value)

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":1,"n":2,"tri":[0.5, 1.0,0.5]}',
            '{"n":2,"t":1,"tri":[0.5,1.0,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,1.0]}',
            '{"t":1,"n":2,"tri":[0.5,01.0,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,+1.0,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,.5,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,5.,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,1.0.0,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,1-0.0,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,NaN,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,"1.0",0.5]}',
            '{"t":1,"n":2,"tri":[0.5,[1.0],0.5]}',
            '{"t":1,"n":2,"tri":[0.5,1e,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,1.0,0.5],"t":2}',
            ' {"t":1,"n":2,"tri":[0.5,1.0,0.5]}',
            '{"t":1,"n":2,"tri":[0.5,1.0,0.5]}x',
            '{"t":1,"n":1,"tri":[0.512',
            '{"t":1,"n":2,"tri":[0..5.5,1,]}',
        ],
    )
    def test_other_lines_go_to_json(self, line):
        assert stream_io._read_canonical(line) is None
        with json_only():
            expected = outcome(line)
        assert outcome(line) == expected

    @pytest.mark.parametrize("convention", ["symmetric", IID_FULL])
    @pytest.mark.parametrize("n", [1, 2, 20, 100])
    def test_written_streams_read_back_bit_for_bit(self, n, convention):
        sc = scenario(assignment=assignment_from_sizes((1,), n=n), convention=convention)
        snaps = list(iter_stream(sc))
        buf = io.StringIO()
        write_stream(snaps, buf)
        text = buf.getvalue()
        assert all(stream_io._read_canonical(line) for line in text.splitlines())
        for reader in (contextlib.nullcontext(), json_only()):
            with reader:
                back = read_stream(io.StringIO(text))
            assert [s.t for s in back] == [s.t for s in snaps]
            for a, b in zip(snaps, back):
                assert a.weights.tobytes() == b.weights.tobytes()


def json_tokens(weights) -> str:
    """The slow twin: json.dumps's text for the weights, without brackets."""
    return json.dumps(np.asarray(weights, dtype=float).tolist(), separators=(",", ":"))[1:-1]


def near_a_half(start: float, k: int) -> float:
    """The first float from start up whose value times 10**k lies within the
    writer's error bound of a half: the nearest 17-digit candidate is too
    close to call there."""
    x = start
    while abs((Fraction(x) * 10**k) % 1 - Fraction(1, 2)) > Fraction(1, 256):  # 2**-8
        x = math.nextafter(x, math.inf)
    return x


_FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-4, 1e16).flatmap(lambda x: st.sampled_from([x, -x])),  # formatted without repr()
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(math.isfinite),
)


@needs_extended
class TestFastWriter:
    """write_stream formats float64 weights without float.__repr__ and
    writes, byte for byte, what json.dumps writes."""

    @given(values=st.lists(_FINITE_FLOATS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_tokens_match_json(self, values):
        assert stream_io._weight_tokens(np.array(values)) == json_tokens(values)

    @pytest.mark.parametrize(
        "value",
        [
            0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 3, 1.0, 2.0, 0.5, 2.0**53, 2.0**-14,
            1e-4, np.nextafter(1e-4, 0), -1e-4, 1e16, np.nextafter(1e16, 0), -np.nextafter(1e16, 0),
            0.1, 0.3, 9.5, 10.0, 1e15, 1e-3, 0.01, 1e22, 1e300, 1.7976931348623157e308,
            123456789.0, 1234567890123456.0, 0.000123456789, 2.0 / 3.0, 1 / 3, np.pi * 1e15,
            1000000000000000.25, near_a_half(1.0, 16), near_a_half(0.3, 17), near_a_half(0.0002, 20),
            -near_a_half(7.0, 16),
        ],
    )
    def test_pinned_weights(self, value):
        x = np.array([value, -value, value, 0.75])
        assert stream_io._weight_tokens(x) == json_tokens(x)

    def test_every_power_of_two_in_the_fixed_range(self):
        """Powers of two have lopsided intervals and go to repr()."""
        x = 2.0 ** np.arange(-16, 56)
        assert stream_io._weight_tokens(np.concatenate([x, -x])) == json_tokens(np.concatenate([x, -x]))

    def test_half_gaps_are_exact(self):
        """Half of x's rounding interval, scaled like x, is exact in float64
        for every binary exponent of [1e-4, 1e16)."""
        for j, e in enumerate(stream_io._EXPONENTS):
            for over in (0, 1):
                i = 2 * j + over
                k = int(stream_io._DECADE_K[i])
                assert Fraction(stream_io._HALF_GAP[i]) == Fraction(2) ** (e - 53) * 10**k
                assert int(stream_io._DECADE_SCALE[i]) == 10**k

    @pytest.mark.parametrize("convention", ["symmetric", IID_FULL])
    @pytest.mark.parametrize("n", [1, 2, 20, 100])
    def test_written_lines_match_json(self, n, convention):
        sc = scenario(assignment=assignment_from_sizes((1,), n=n), convention=convention)
        snaps = list(iter_stream(sc))
        fast, slow = io.StringIO(), io.StringIO()
        write_stream(snaps, fast)
        with json_only():
            write_stream(snaps, slow)
        assert fast.getvalue() == slow.getvalue()

    def test_weights_past_one_chunk_and_scaled_widely(self):
        size = 3 * stream_io._WRITE_CHUNK + 5
        rng = np.random.default_rng(4)
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-7, 18, size)
        assert stream_io._weight_tokens(x) == json_tokens(x)

    @pytest.mark.parametrize("digits", [13, 14, 15, 16, 17])
    def test_reprs_of_13_to_17_digits_over_the_decades(self, digits):
        """A weight whose repr has 14 digits or fewer goes to repr(); 15 to 17
        are the writer's own. Each decade of the fixed range, with both signs."""
        rng = np.random.default_rng(digits)
        values = [
            float(f"{m}e{decade - digits + 1}")
            for decade in range(-4, 16)
            for m in rng.integers(10 ** (digits - 1), 10**digits, 60).tolist()
        ]
        values = [x for x in values if len(Decimal(repr(x)).normalize().as_tuple().digits) == digits]
        assert len(values) > 250
        x = np.array(values + [-v for v in values])
        assert stream_io._weight_tokens(x) == json_tokens(x)

    def test_other_dtypes_go_to_json(self):
        snap = GraphSnapshot(t=1, weights=np.array([[1, 2], [2, 3]]))
        buf = io.StringIO()
        write_stream([snap], buf)
        assert buf.getvalue() == '{"t":1,"n":2,"tri":[1,2,3]}\n'

    def test_simulated_lines_take_the_canonical_reader(self):
        """No line the writer makes from a simulated stream is left to json."""
        sc = scenario(assignment=assignment_from_sizes((30, 15), n=100), horizon=4)
        buf = io.StringIO()
        write_stream(iter_stream(sc), buf)
        buf.seek(0)
        with mock.patch.object(stream_io, "_read_json", side_effect=AssertionError("json reader")):
            assert len(read_stream(buf)) == 4


class TestNonFiniteWrites:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_weight_stops_before_its_line(self, bad):
        snaps = list(iter_stream(scenario()))
        weights = snaps[1].weights.copy()
        weights[0, 1] = bad
        buf = io.StringIO()
        with pytest.raises(ValueError, match="snapshot t=2: a stream file cannot hold a non-finite weight"):
            write_stream([snaps[0], GraphSnapshot(t=2, weights=weights), snaps[2]], buf)
        assert buf.getvalue().count("\n") == 1
        assert read_stream(io.StringIO(buf.getvalue()))[0].t == 1

    @pytest.mark.parametrize("dtype", [bool, complex])
    def test_a_weight_that_is_not_real_stops_before_its_line(self, dtype):
        """Booleans were written as true and false, which the reader refuses,
        and complex weights raised TypeError partway through the stream."""
        snaps = list(iter_stream(scenario()))
        buf = io.StringIO()
        message = f"snapshot t=2: a stream file holds real numbers, not {np.dtype(dtype)} weights"
        with pytest.raises(ValueError, match=message):
            write_stream([snaps[0], GraphSnapshot(t=2, weights=np.eye(3, dtype=dtype)), snaps[2]], buf)
        assert buf.getvalue().count("\n") == 1
        assert read_stream(io.StringIO(buf.getvalue()))[0].t == 1

_ODD_TOKENS = [
    "1", "-0", "7", "00.5", "01.5", "-00.1", "+1.5", ".5", "5.", "1.2.3", "--1.0", "1-.0",
    "-", "", "NaN", "Infinity", "-Infinity", "true", "false", "null", '"1.5"', "[1.0]", "[]",
    "1e5", "1E+5", "1.5e-7", "-2.5E-300", "1e999", "-1e999", "1e", "1e+", "0e0", "1.e5",
    "01e5", "-0.0e0", " 1.5", "1.5 ", "1.5\t", "1,5", "0x10", "1_0.5", "¹.5",
]

_PLAIN_TOKENS = st.builds(
    lambda sign, whole, frac: f"{sign}{whole}.{frac}",
    st.sampled_from(["", "-"]),
    st.one_of(st.just("0"), st.integers(1, 10**25).map(str)),
    st.text("0123456789", min_size=1, max_size=32),
)

_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _PLAIN_TOKENS,
    st.sampled_from(["-0.0", "0.0", "5e-324", "1e-05", "1.700356855955824309", "1e+22"]),
)


@st.composite
def stream_lines(draw, t: int):
    """One stream line: write_stream's layout, or that layout perturbed."""
    n = draw(st.integers(1, 3))
    key = draw(st.sampled_from(["tri", "full"]))
    count = n * (n + 1) // 2 if key == "tri" else n * n
    tokens = draw(st.lists(_TOKENS, min_size=count, max_size=count))
    fields = [f'"t":{t}', f'"n":{n}', f'"{key}":[{{}}]']
    kind = draw(st.sampled_from(
        ["canonical", "token", "count", "whitespace", "order", "duplicate", "extra", "truncate", "tail"]
    ))
    if kind == "token":
        tokens[draw(st.integers(0, count - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    elif kind == "count":
        if draw(st.booleans()) or count == 1:
            tokens.append(draw(_TOKENS))
        else:
            tokens.pop()
    elif kind == "order":
        fields = draw(st.permutations(fields))
    elif kind == "duplicate":
        fields.append(draw(st.sampled_from(fields)))
    elif kind == "extra":
        fields.append('"x":1')
    line = "{" + ",".join(fields).replace("{}", ",".join(tokens)) + "}"
    if kind == "whitespace":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([" ", "\t", "\r", "  "])) + line[at:]
    elif kind == "truncate":
        line = line[: draw(st.integers(0, len(line) - 1))]
    elif kind == "tail":
        line += draw(st.sampled_from([" ", "\t", "\r", " \t "]))
    return line + "\n"


@st.composite
def stream_texts(draw):
    times = draw(st.lists(st.integers(-2, 6), min_size=1, max_size=3))
    return "".join(draw(stream_lines(t)) for t in times)


class TestReaderFuzz:
    """Every line, canonical or not, reads as the json reader reads it."""

    @given(text=stream_texts())
    @settings(max_examples=400, deadline=None)
    def test_fast_reader_matches_the_json_reader(self, text):
        with json_only():
            expected = outcome(text)
        assert outcome(text) == expected

    @given(text=stream_texts())
    @settings(max_examples=100, deadline=None)
    def test_detect_exits_zero_or_three(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "s.ndjson"
        path.write_text(text)
        argv = ["detect", str(path), "--method", "spectral", "--m", "1", "--window", "1",
                "--b", "5.0", "--out", str(path.with_suffix(".csv"))]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 3)


class TestTraceAndReports:
    def run_exact(self):
        snaps = list(iter_stream(scenario(sigma=0.0, tau=0, horizon=5)))
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
        snaps = list(iter_stream(scenario(sigma=0.0, tau=0, horizon=6)))
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

    def test_report_bytes_for_numpy_values(self):
        """numpy scalars and arrays, at any depth and inside tuples, are
        written as the Python numbers and lists they hold; NaN and the
        infinities as json writes them."""
        report = {
            "int64": np.int64(-7),
            "float32": np.float32(0.1),
            "float64": np.float64(1) / 3,
            "longdouble": np.longdouble(2) / 3,
            "vector": np.arange(2),
            "matrix": np.array([[1.5, -0.0], [np.inf, 4.0]]),
            "pair": (np.int32(1), (2.5, np.float64(-1e300))),
            "nested": {"deeper": {"nan": np.float64("nan"), "list": [np.uint8(255), None, True]}},
            "nan": math.nan,
        }
        buf = io.StringIO()
        write_report(report, buf)
        assert buf.getvalue() == (
            '{\n  "int64": -7,\n  "float32": 0.10000000149011612,\n'
            '  "float64": 0.3333333333333333,\n  "longdouble": 0.6666666666666666,\n'
            '  "vector": [\n    0,\n    1\n  ],\n'
            '  "matrix": [\n    [\n      1.5,\n      -0.0\n    ],\n    [\n      Infinity,\n      4.0\n    ]\n  ],\n'
            '  "pair": [\n    1,\n    [\n      2.5,\n      -1e+300\n    ]\n  ],\n'
            '  "nested": {\n    "deeper": {\n      "nan": NaN,\n'
            '      "list": [\n        255,\n        null,\n        true\n      ]\n    }\n  },\n'
            '  "nan": NaN\n}\n'
        )

    @pytest.mark.parametrize("value", [object(), {1, 2}], ids=["object", "set"])
    def test_report_refuses_a_type_json_cannot_write(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_report({"x": [value]}, io.StringIO())

    def test_report_json_converts_numpy_scalars(self):
        buf = io.StringIO()
        write_report({"b": np.float64(1.5), "n": np.int64(3), "v": np.arange(2)}, buf)
        data = json.loads(buf.getvalue())
        assert data == {"b": 1.5, "n": 3, "v": [0, 1]}


def sensor_csv(values) -> io.StringIO:
    """A sensor CSV of a (samples, channels) array under the channel names
    ch0, ch1, ...; repr writes each sample so that it reads back exactly."""
    values = np.asarray(values, dtype=float)
    lines = [",".join(f"ch{i}" for i in range(values.shape[1]))]
    lines += [",".join(map(repr, row)) for row in values.tolist()]
    return io.StringIO("\n".join(lines) + "\n")


class TestSensorSeries:
    def test_reads_header_and_rows(self):
        snaps = xcorr_stream(io.StringIO("a,b,c\n1,2,3\n4,5,6\n"), segment=2)
        assert [s.t for s in snaps] == [1]
        assert snaps[0].n == 3
        np.testing.assert_allclose(snaps[0].weights, np.ones((3, 3)), atol=1e-12)

    def test_rejects_single_channel_and_empty_files(self):
        with pytest.raises(StreamFormatError, match="need at least two channels, got 1"):
            xcorr_stream(io.StringIO("a\n1\n"), segment=2)
        with pytest.raises(StreamFormatError, match="empty"):
            xcorr_stream(io.StringIO(""), segment=2)

    def test_reports_ragged_and_non_numeric_rows(self):
        with pytest.raises(StreamFormatError, match="line 3"):
            xcorr_stream(io.StringIO("a,b\n1,2\n3\n"), segment=2)
        with pytest.raises(StreamFormatError, match="line 2"):
            xcorr_stream(io.StringIO("a,b\n1,x\n"), segment=2)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(StreamFormatError, match="line 3: non-finite"):
            xcorr_stream(io.StringIO(f"a,b\n1,2\n3,{bad}\n5,6\n"), segment=2)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            xcorr_stream(sensor_csv(np.zeros((4, 1))), segment=2)
        with pytest.raises(ValueError, match="segment length must be at least 2"):
            xcorr_stream(sensor_csv(np.zeros((4, 2))), segment=1)


class TestXcorrStream:
    def test_identical_channels_correlate_to_one(self):
        x = np.linspace(0.0, 1.0, 8)
        snaps = xcorr_stream(sensor_csv(np.column_stack([x, x])), segment=8)
        assert len(snaps) == 1
        np.testing.assert_allclose(snaps[0].weights, np.ones((2, 2)), atol=1e-12)

    def test_negated_channels_correlate_to_minus_one(self):
        x = np.array([0.0, 1.0, 0.5, 2.0])
        snaps = xcorr_stream(sensor_csv(np.column_stack([x, -x])), segment=4)
        np.testing.assert_allclose(
            snaps[0].weights, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12
        )

    def test_zero_variance_channel_warns_and_zeroes_out(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        flat = np.ones(4)
        with pytest.warns(UserWarning, match="zero-variance"):
            snaps = xcorr_stream(sensor_csv(np.column_stack([x, flat])), segment=4)
        np.testing.assert_array_equal(snaps[0].weights, [[1.0, 0.0], [0.0, 0.0]])

    def test_segmentation_drops_the_tail(self):
        rng = np.random.default_rng(0)
        snaps = xcorr_stream(sensor_csv(rng.standard_normal((23, 3))), segment=5)
        assert [s.t for s in snaps] == [1, 2, 3, 4]

    def test_segment_is_a_whole_number(self):
        """An integral float runs as its int; a fraction or a bool is
        refused by name, after the file is read."""
        values = np.random.default_rng(4).standard_normal((9, 3))
        snaps = xcorr_stream(sensor_csv(values), segment=4.0)
        want = xcorr_stream(sensor_csv(values), segment=4)
        assert [s.t for s in snaps] == [s.t for s in want] == [1, 2]
        for a, b in zip(snaps, want):
            assert np.array_equal(a.weights, b.weights)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"segment must be an integer, got {bad!r}"):
                xcorr_stream(sensor_csv(values), segment=bad)
        with pytest.raises(StreamFormatError, match="line 2: non-numeric value"):
            xcorr_stream(io.StringIO("a,b\n1,x\n"), segment=2.5)

    def test_output_is_bit_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(1)
        snaps = xcorr_stream(sensor_csv(rng.standard_normal((40, 4))), segment=10)
        for s in snaps:
            assert np.array_equal(s.weights, s.weights.T)
            np.testing.assert_array_equal(np.diag(s.weights), np.ones(4))

    def test_independent_noise_has_small_correlations(self):
        """With 500-sample segments, independent channels should produce
        off-diagonal correlations below 0.2 in nearly every entry (the
        standard error is about 0.045)."""
        rng = np.random.default_rng(2)
        snaps = xcorr_stream(sensor_csv(rng.standard_normal((20000, 6))), segment=500)
        off = []
        for s in snaps:
            iu = np.triu_indices(6, k=1)
            off.extend(np.abs(s.weights[iu]))
        off = np.array(off)
        assert (off <= 0.2).mean() >= 0.95

    def test_overflowing_samples_are_refused(self, tmp_path):
        """Samples near 1e200 overflow a sum of squares: the correlation of
        segment 1 would be written as 0.0 although it is -1."""
        values = [[1e200, 1.0], [-1e200, 2.0], [3e200, 0.0], [0.0, 5.0]]
        with pytest.raises(StreamFormatError, match="segment 1: samples too large to correlate"):
            xcorr_stream(sensor_csv(values), segment=2)
        path = tmp_path / "big.csv"
        path.write_text("a,b\n1e200,1\n-1e200,2\n3e200,0\n0,5\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["xcorr", str(path), "--segment", "2", "--out", str(tmp_path / "o.ndjson")])
        assert code == 3
        assert "segment 1" in err.getvalue()

    def test_round_trips_through_the_stream_format(self, tmp_path):
        rng = np.random.default_rng(3)
        snaps = xcorr_stream(sensor_csv(rng.standard_normal((12, 3))), segment=4)
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

"""Stream serialization, trace and report emission, sensor-data ingestion,
and cross-correlation graph construction.

Stream files are NDJSON: one object per line with keys "t", "n", and either
"tri" (upper-triangle weights, row-major, diagonal included, for symmetric
snapshots) or "full" (all n*n weights, row-major). Floats are written with
their shortest round-trip representation, so read(write(s)) reproduces s
bit-exactly for finite values.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .detect import DetectionResult
from .graph_model import GraphSnapshot, _triu_cache


class StreamFormatError(ValueError):
    """A stream, sensor, or config file does not match the documented format."""


@contextmanager
def _opened(path_or_file, mode):
    """Yield a file object for a path or an open file; close only what was
    opened here, so a caller's file stays open."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, mode) as fh:
            yield fh


def _name_of(fh) -> str:
    return getattr(fh, "name", "<stream>")


def write_stream(stream, path_or_file) -> int:
    """Write snapshots as NDJSON; returns the number of snapshots written.

    Bit-symmetric snapshots are stored as their upper triangle, anything else
    as the full matrix; read_stream restores either form exactly.
    """
    with _opened(path_or_file, "w") as fh:
        count = 0
        for snap in stream:
            w = snap.weights
            if np.array_equal(w, w.T):
                iu = _triu_cache(snap.n)
                payload = {"t": snap.t, "n": snap.n, "tri": w[iu].tolist()}
            else:
                payload = {"t": snap.t, "n": snap.n, "full": w.ravel().tolist()}
            fh.write(json.dumps(payload, separators=(",", ":")))
            fh.write("\n")
            count += 1
        return count


_STREAM_KEYS = {"t", "n", "tri", "full"}


def _unique_keys(pairs):
    """Build a stream line's object, refusing a repeated key rather than
    letting its last value win."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        dup = next(k for k in obj if keys.count(k) > 1)
        raise StreamFormatError(f"duplicate key {dup!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def iter_stream_file(path_or_file) -> Iterator[GraphSnapshot]:
    """Yield the snapshots of an NDJSON stream one line at a time; an empty
    file is an empty stream.

    No key may repeat within a line, the weights must be a flat list of JSON
    numbers (never strings, booleans or null), every weight must be finite
    (NaN, Infinity and overflowing literals such as 1e999 are rejected) and
    "t" must increase strictly from line to line.
    A line is read and checked only when its snapshot is asked for, so a
    consumer that stops early leaves the rest of the file unread; a path is
    opened on the first request and closed at the end of the file or when
    the generator is closed.
    """
    with _opened(path_or_file, "r") as fh:
        name = _name_of(fh)
        prev = None
        for lineno, line in enumerate(fh, start=1):
            if not line or line.isspace():
                continue
            try:
                obj = _DECODER.decode(line)
            except json.JSONDecodeError as err:
                raise StreamFormatError(
                    f"{name}: line {lineno}: invalid JSON ({err.msg})"
                ) from None
            except StreamFormatError as err:
                raise StreamFormatError(f"{name}: line {lineno}: {err}") from None
            prev = _parse_snapshot(obj, line, name, lineno, prev)
            yield prev


def read_stream(path_or_file) -> list[GraphSnapshot]:
    """Read a whole NDJSON snapshot stream into a list, with the checks of
    iter_stream_file."""
    return list(iter_stream_file(path_or_file))


def _parse_snapshot(
    obj, line: str, name: str, lineno: int, prev: GraphSnapshot | None
) -> GraphSnapshot:
    def fail(msg: str):
        raise StreamFormatError(f"{name}: line {lineno}: {msg}")

    if not isinstance(obj, dict):
        fail("expected a JSON object")
    unknown = set(obj) - _STREAM_KEYS
    if unknown:
        fail(f"unknown key(s): {', '.join(sorted(unknown))}")
    t = obj.get("t")
    n = obj.get("n")
    if not isinstance(t, int) or isinstance(t, bool):
        fail('"t" must be an integer')
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        fail('"n" must be a positive integer')
    if prev is not None:
        if n != prev.n:
            fail(f"node count changed from {prev.n} to {n}")
        if t <= prev.t:
            fail(f'"t" must increase: {t} follows {prev.t}')
    has_tri = "tri" in obj
    has_full = "full" in obj
    if has_tri == has_full:
        fail('need exactly one of "tri" or "full"')
    key = "tri" if has_tri else "full"
    want = n * (n + 1) // 2 if has_tri else n * n
    vals = obj[key]
    if not isinstance(vals, list) or len(vals) != want:
        fail(f'"{key}" must be a list of {want} numbers for n={n}')
    # np.array(..., dtype=float) would take true as 1.0 and "1.5" as 1.5, so
    # only ints and floats pass. The keys are known and t and n are ints, so
    # the first "[" and the last "]" bound the weights' text. A string there
    # holds a quote, true and null a "u", false an "a"; no JSON number holds
    # any of the three, so a line without them skips the type check.
    lo, hi = line.index("["), line.rindex("]")
    screened = any(line.find(c, lo, hi) >= 0 for c in '"au')
    if screened and not set(map(type, vals)) <= {int, float}:
        fail(f'"{key}" must hold JSON numbers only, not strings, booleans or null')
    try:
        arr = np.array(vals, dtype=float)
    except (TypeError, ValueError, OverflowError):
        fail(f'"{key}" contains a non-numeric entry')
    if arr.ndim != 1:
        fail(f'"{key}" must be a flat list of numbers, not a nested one')
    if not np.isfinite(arr).all():
        fail(f'"{key}" contains a non-finite weight')
    if has_tri:
        w = np.zeros((n, n))
        iu = _triu_cache(n)
        w[iu] = arr
        w.T[iu] = arr
    else:
        w = arr.reshape(n, n)
    return GraphSnapshot(t=t, weights=w)


def write_trace(result: DetectionResult, path_or_file) -> int:
    """Emit a detection trace as CSV rows "t,statistic,alarmed".

    t is the wall-clock time at which the statistic became available (scored
    index plus window lag for the windowed methods); alarmed flags rows at or
    above the threshold.
    """
    lag = result.config.lag
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "statistic", "alarmed"])
        for scored, stat in result.trajectory:
            writer.writerow([scored + lag, repr(float(stat)), int(stat >= result.config.b)])
        return len(result.trajectory)


def write_oc(rows, path_or_file) -> int:
    """Emit an operating-characteristic table as CSV "gamma,b,edd,se"."""
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gamma", "b", "edd", "se"])
        count = 0
        for row in rows:
            writer.writerow(
                [repr(float(row.gamma)), repr(float(row.b)), repr(float(row.edd)), repr(float(row.se))]
            )
            count += 1
        return count


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def write_report(report: dict, path_or_file) -> None:
    """Emit a report dict as indented JSON."""
    with _opened(path_or_file, "w") as fh:
        json.dump(_jsonable(report), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class MultichannelSeries:
    """Equal-length samples from several sensors, plus the segment length
    used to chop them into per-snapshot correlation windows."""

    names: tuple[str, ...]
    values: np.ndarray
    segment: int

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(x) for x in self.names))
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if len(self.names) < 2:
            raise ValueError("need at least two channels")
        if values.ndim != 2 or values.shape[1] != len(self.names):
            raise ValueError(
                f"values must be (samples, {len(self.names)}), got {values.shape}"
            )
        if self.segment < 2:
            raise ValueError("segment length must be at least 2")

    @property
    def channels(self) -> int:
        return len(self.names)

    @property
    def samples(self) -> int:
        return self.values.shape[0]


def read_sensor_csv(path_or_file, segment: int) -> MultichannelSeries:
    """Read a sensor CSV: a header row of channel names, then one row of
    finite float samples per tick."""
    with _opened(path_or_file, "r") as fh:
        name = _name_of(fh)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StreamFormatError(f"{name}: empty file, expected a header row") from None
        names = [h.strip() for h in header]
        if len(names) < 2:
            raise StreamFormatError(f"{name}: need at least two channels, got {len(names)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise StreamFormatError(
                    f"{name}: line {lineno}: expected {len(names)} values, got {len(row)}"
                )
            try:
                vals = [float(x) for x in row]
            except ValueError:
                raise StreamFormatError(
                    f"{name}: line {lineno}: non-numeric value"
                ) from None
            if not all(map(math.isfinite, vals)):
                raise StreamFormatError(f"{name}: line {lineno}: non-finite value")
            rows.append(vals)
        values = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
        return MultichannelSeries(names=tuple(names), values=values, segment=segment)


def xcorr_stream(series: MultichannelSeries) -> list[GraphSnapshot]:
    """Turn a multichannel series into correlation-graph snapshots.

    Snapshot t holds the Pearson correlations of the channels over the t-th
    non-overlapping segment; trailing samples short of a full segment are
    dropped. A zero-variance channel would make its correlations undefined,
    so those entries (its whole row and column, diagonal included) are set to
    0 with a warning.
    """
    length = series.segment
    segments = series.samples // length
    snaps: list[GraphSnapshot] = []
    for s in range(segments):
        block = series.values[s * length : (s + 1) * length]
        centered = block - block.mean(axis=0)
        norms = np.sqrt((centered**2).sum(axis=0))
        flat = norms == 0.0
        if flat.any():
            bad = ", ".join(series.names[i] for i in np.nonzero(flat)[0])
            warnings.warn(
                f"segment {s + 1}: zero-variance channel(s) {bad}; correlations set to 0",
                stacklevel=2,
            )
        safe = np.where(flat, 1.0, norms)
        corr = (centered.T @ centered) / np.outer(safe, safe)
        corr[flat, :] = 0.0
        corr[:, flat] = 0.0
        idx = np.arange(series.channels)
        corr[idx, idx] = np.where(flat, 0.0, 1.0)
        corr = np.triu(corr) + np.triu(corr, 1).T
        snaps.append(GraphSnapshot(t=s + 1, weights=corr))
    return snaps


def parse_config(path_or_file) -> dict[str, str]:
    """Parse a plain-text config file of "key = value" lines.

    Blank lines and lines starting with "#" are ignored; duplicate keys are
    rejected. Values stay strings; the CLI converts them with the same rules
    as the matching flags, and flags given on the command line win.
    """
    with _opened(path_or_file, "r") as fh:
        name = _name_of(fh)
        out: dict[str, str] = {}
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise StreamFormatError(
                    f"{name}: line {lineno}: expected 'key = value'"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise StreamFormatError(f"{name}: line {lineno}: empty key")
            if key in out:
                raise StreamFormatError(f"{name}: line {lineno}: duplicate key {key!r}")
            out[key] = value
        return out

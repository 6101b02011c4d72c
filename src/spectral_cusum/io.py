"""Stream serialization, trace and report emission, sensor-data ingestion,
and cross-correlation graph construction.

Stream files are NDJSON: one object per line with keys "t", "n", and either
"tri" (upper-triangle weights, row-major, diagonal included, for symmetric
snapshots) or "full" (all n*n weights, row-major). Floats are written with
their shortest round-trip representation, so read(write(s)) reproduces s
bit-exactly for finite values.

A line exactly in write_stream's layout is read without json's correctly
rounded decimal-to-binary conversion, which is most of json's cost: a weight
-?D.F is the integer DF, parsed by numpy as uint64, over 10**len(F), divided
in x87 extended precision. Both operands are exact there (DF below 2**64
when it has at most 19 digits, 10**k up to k = 27), so the quotient is
rounded once, and rounding it on to float64 gives float(token) unless it
landed exactly on a float64 midpoint. One float() loop reads the rest: those
weights, weights with more than 19 digits, and up to 64 exponent forms such
as 1e-05, which are first overwritten by "0." and zeros of the same length so
that no offset moves. Every other line (whitespace, another key order,
integers, literals, strings, nested lists), and every line where long double
is not x87 extended, goes through json, which also words every error; both
readers give the same snapshots.

write_stream writes what json.dumps writes, byte for byte, but on x87 it
formats float64 weights without float.__repr__ (dtoa), which is most of
json's cost. |x| is scaled once into [1e16, 1e17) as |x| * 10**k in extended
precision, within 2**-8 of the exact product, and half of x's rounding
interval, scaled alike, is exact in float64. repr's digits are the nearest
multiple of the largest place 10**j that still has a multiple strictly
inside that interval; whether a place has one is monotone in j, so the
places 1, 10, 100 and 1000 are tested at once, in float64 on y mod 10**4.
The digits are laid into fixed rows of bytes from tables and the padding is
dropped. A weight goes to float.__repr__ when a decision falls within the
error bound, when it is 0.0 or a power of two (its interval is lopsided),
when |x| is outside [1e-4, 1e16) (repr writes an exponent there), or when
all four places have a multiple in its interval (it needs fewer than 15
digits); other dtypes and other platforms go through json.dumps.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .detect import DetectionResult
from .graph_model import GraphSnapshot, _mirror, _triu_cache, _whole


class StreamFormatError(ValueError):
    """A stream, sensor, or config file does not match the documented format."""


_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # the lone surrogates surrogateescape reads bytes as


@contextmanager
def _opened(path_or_file, mode):
    """Yield a file object for a path or an open file; close only what was
    opened here, so a caller's file stays open."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        # a byte that is not UTF-8 reads as a lone surrogate, which the
        # readers' own checks then refuse with the file's name and line
        errors = "surrogateescape" if mode == "r" else None
        with open(path_or_file, mode, errors=errors) as fh:
            yield fh


def _name_of(fh) -> str:
    return getattr(fh, "name", "<stream>")


def write_stream(stream, path_or_file) -> int:
    """Write snapshots as NDJSON; returns the number of snapshots written.

    Bit-symmetric snapshots are stored as their upper triangle, anything else
    as the full matrix; read_stream restores either form exactly. A weight
    that is not finite, boolean or complex has no token the reader takes, so
    a snapshot holding one raises ValueError before any byte of its line is
    written.
    """
    with _opened(path_or_file, "w") as fh:
        count = 0
        for snap in stream:
            w = snap.weights
            if w.dtype.kind not in "iuf":
                raise ValueError(
                    f"snapshot t={snap.t}: a stream file holds real numbers, not {w.dtype} weights"
                )
            if w.dtype.kind == "f" and not np.isfinite(w).all():
                raise ValueError(f"snapshot t={snap.t}: a stream file cannot hold a non-finite weight")
            if np.array_equal(w, w.T):
                key, weights = "tri", w[_triu_cache(snap.n)]
            else:
                key, weights = "full", w.ravel()
            if _EXTENDED and weights.dtype == np.float64:
                head = json.dumps({"t": snap.t, "n": snap.n, key: []}, separators=(",", ":"))
                fh.write(f"{head[:-2]}{_weight_tokens(weights)}]}}\n")  # head without its "]}"
            else:
                fh.write(json.dumps({"t": snap.t, "n": snap.n, key: weights.tolist()}, separators=(",", ":")))
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

# The canonical reader divides in x87 extended precision: a 64-bit
# significand, stored little-endian in 16 bytes with the significand first.
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_MAX_DECIMALS = 27  # 10**27 = 2**27 * 5**27 and 5**27 < 2**64: exact in extended
_MAX_DIGITS = 19  # any 19-digit integer is below 2**64
_POW10 = np.ones(_MAX_DECIMALS + 1, dtype=np.longdouble)
for _k in range(1, _MAX_DECIMALS + 1):
    _POW10[_k] = _POW10[_k - 1] * 10  # exact, so no rounding piles up
_HEAD = re.compile(r'\{"t":(-?(?:0|[1-9][0-9]{0,17})),"n":([1-9][0-9]{0,5}),"(tri|full)":\[')
_EXPONENT_TOKEN = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?[eE][-+]?[0-9]+")
_MAX_EXPONENT_TOKENS = 64  # one float() each: at n = 100 json is faster past about 250
_COMMA, _MINUS, _DOT, _ZERO, _NINE = b",-.09"


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
            where = f"{name}: line {lineno}"
            canonical = _EXTENDED and _read_canonical(line)
            if canonical:
                t, n, key, arr = canonical
                _check_order(t, n, prev, where)
            else:
                t, n, key, arr = _read_json(line, where, prev)
            prev = _snapshot(t, n, key, arr, where)
            yield prev


def read_stream(path_or_file) -> list[GraphSnapshot]:
    """Read a whole NDJSON snapshot stream into a list, with the checks of
    iter_stream_file."""
    return list(iter_stream_file(path_or_file))


def _fail(where: str, msg: str):
    raise StreamFormatError(f"{where}: {msg}")


def _read_canonical(line: str):
    """(t, n, key, weights) of a line in write_stream's exact layout,
    {"t":T,"n":N,"tri"|"full":[...]} with whitespace only after it, read as
    the module docstring says; None for any other line, which the json
    reader then takes. Never raises."""
    head = _HEAD.match(line)
    stop = len(line.rstrip(" \t\n\r")) - 2
    if head is None or not line.startswith("]}", stop) or not line.isascii():
        return None
    n = int(head[2])
    key = head[3]
    want = n * (n + 1) // 2 if key == "tri" else n * n
    weights = _plain_weights(line[head.end() : stop].encode(), want)
    if weights is None:
        return None
    return int(head[1]), n, key, weights


def _plain_weights(body: bytes, want: int):
    """The float64 values of want comma-separated tokens -?(0|[1-9][0-9]*).[0-9]+,
    at most _MAX_EXPONENT_TOKENS of them JSON numbers with an exponent, bit
    for bit those of float(); None if body holds anything else."""
    plain, exponents, done = body, [], 0
    while True:
        hits = [i for i in (body.find(b"e", done), body.find(b"E", done)) if i >= 0]
        if not hits:
            break
        if len(exponents) == _MAX_EXPONENT_TOKENS:
            return None
        lo = body.rfind(b",", 0, min(hits)) + 1
        hi = body.find(b",", min(hits))
        hi = len(body) if hi < 0 else hi
        if _EXPONENT_TOKEN.fullmatch(body, lo, hi) is None:
            return None
        if not exponents:
            plain = bytearray(body)
        # a plain token as long as the exponent token (3 bytes at least), so
        # no offset moves; float() reads the original below
        plain[lo:hi] = b"0.".ljust(hi - lo, b"0")
        exponents.append(lo)
        done = hi
    plain = bytes(plain)
    b = np.frombuffer(plain, np.uint8)
    size = b.size
    marks = np.flatnonzero((b | 2) == _DOT)  # the dots and the commas: 46 | 2 == 44 | 2
    dots, commas = marks[::2], marks[1::2]
    # one dot in each token: dots and commas alternate, which also keeps
    # every token start inside the body
    if marks.size != 2 * want - 1 or (b[dots] != _DOT).any() or (b[commas] != _COMMA).any():
        return None
    starts = np.empty(want, np.intp)
    starts[0] = 0
    np.add(commas, 1, out=starts[1:])
    neg = b[starts] == _MINUS
    # besides the commas and dots, the only bytes below "0" are the minus
    # signs that open tokens, and none is above "9"
    if b.max() > _NINE or np.count_nonzero(b < _ZERO) != 2 * want - 1 + np.count_nonzero(neg):
        return None
    decimals = np.empty(want, np.intp)
    decimals[:-1] = commas
    decimals[-1] = size
    decimals -= dots + 1
    whole = dots - starts
    whole -= neg
    if not ((whole > 0).all() and (decimals > 0).all()):
        return None  # no digit before or after a dot
    if ((b[dots - whole] == _ZERO) & (whole > 1)).any():
        return None  # a leading zero
    slow = whole + decimals > _MAX_DIGITS  # more than 19 digits can overflow uint64
    slow[np.searchsorted(starts, exponents)] = True
    del marks, dots, commas, whole  # freed before the largest temporaries
    digits = np.fromstring(plain.translate(None, b".-"), dtype=np.uint64, sep=",")
    quotient = digits.astype(np.longdouble)
    del digits
    np.minimum(decimals, _MAX_DECIMALS, out=decimals)
    quotient /= _POW10[decimals]
    # the low 11 of the 64 significand bits: 10000000000 is a float64 midpoint
    slow |= (quotient.view(np.uint64)[::2] & 0x7FF) == 0x400
    weights = quotient.astype(np.float64)
    del quotient
    weights = np.where(neg, -weights, weights)  # the sign last, so -0.0 stays negative
    for k in np.flatnonzero(slow).tolist():
        stop = starts[k + 1] - 1 if k + 1 < want else size
        weights[k] = float(body[starts[k] : stop])
    return weights


def _read_json(line: str, where: str, prev: GraphSnapshot | None):
    """(t, n, key, weights) of any JSON line, with every check on its form
    and on its order after prev but finiteness."""
    try:
        obj = _DECODER.decode(line)
    except json.JSONDecodeError as err:
        raise StreamFormatError(f"{where}: invalid JSON ({err.msg})") from None
    except StreamFormatError as err:
        raise StreamFormatError(f"{where}: {err}") from None
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        _fail(where, f"a number has more than {sys.get_int_max_str_digits()} digits")
    except RecursionError:
        _fail(where, "invalid JSON (nested too deeply)")
    if not isinstance(obj, dict):
        _fail(where, "expected a JSON object")
    unknown = set(obj) - _STREAM_KEYS
    if unknown:
        _fail(where, f"unknown key(s): {', '.join(sorted(unknown))}")
    t = obj.get("t")
    n = obj.get("n")
    if not isinstance(t, int) or isinstance(t, bool):
        _fail(where, '"t" must be an integer')
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        _fail(where, '"n" must be a positive integer')
    _check_order(t, n, prev, where)
    has_tri = "tri" in obj
    has_full = "full" in obj
    if has_tri == has_full:
        _fail(where, 'need exactly one of "tri" or "full"')
    key = "tri" if has_tri else "full"
    want = n * (n + 1) // 2 if has_tri else n * n
    vals = obj[key]
    if not isinstance(vals, list) or len(vals) != want:
        _fail(where, f'"{key}" must be a list of {want} numbers for n={n}')
    # np.array(..., dtype=float) would take true as 1.0 and "1.5" as 1.5, so
    # only ints and floats pass. The keys are known and t and n are ints, so
    # the first "[" and the last "]" bound the weights' text. A string there
    # holds a quote, true and null a "u", false an "a"; no JSON number holds
    # any of the three, so a line without them skips the type check.
    lo, hi = line.index("["), line.rindex("]")
    screened = any(line.find(c, lo, hi) >= 0 for c in '"au')
    if screened and not set(map(type, vals)) <= {int, float}:
        _fail(where, f'"{key}" must hold JSON numbers only, not strings, booleans or null')
    try:
        arr = np.array(vals, dtype=float)
    except (TypeError, ValueError, OverflowError):
        _fail(where, f'"{key}" contains a non-numeric entry')
    if arr.ndim != 1:
        _fail(where, f'"{key}" must be a flat list of numbers, not a nested one')
    return t, n, key, arr


def _check_order(t: int, n: int, prev: GraphSnapshot | None, where: str) -> None:
    if prev is not None:
        if n != prev.n:
            _fail(where, f"node count changed from {prev.n} to {n}")
        if t <= prev.t:
            _fail(where, f'"t" must increase: {t} follows {prev.t}')


def _snapshot(t: int, n: int, key: str, arr: np.ndarray, where: str) -> GraphSnapshot:
    if not np.isfinite(arr).all():
        _fail(where, f'"{key}" contains a non-finite weight')
    w = arr.take(_mirror(n)) if key == "tri" else arr
    return GraphSnapshot(t=t, weights=w.reshape(n, n))


# The writer's tables (see the module docstring). A weight's token is built
# in a row of 40 bytes: byte 0 holds its sign, bytes 1-5 "0." and up to three
# zeros, bytes 6, 8, ..., 38 its 17 digits, the odd bytes between them the
# decimal point or nothing, and byte 39 the comma after it; NUL bytes are
# then dropped. Rows of digits come from _LEAD and _DIGITS4 and are XORed
# with _TOKEN_MASK[k, count], which writes the point, the comma and the
# zeros ahead of the digits, and turns the dropped trailing "0"s into NULs.
_WRITE_CHUNK = 2048  # weights per pass: the temporaries stay near 0.4 MB at any n
_SCALE_ERROR = 2.0**-8  # half an extended ulp of y < 2**57: y's distance from |x| * 10**k
_ABS = 0x7FFFFFFFFFFFFFFF
_MANTISSA_SHIFT = 12  # bits << 12 is 0 for 0.0 and for powers of two, whose intervals are lopsided
_FIXED_LOW = int(np.float64(1e-4).view(np.uint64))  # repr writes [1e-4, 1e16) without an exponent
_FIXED_SPAN = int(np.float64(1e16).view(np.uint64)) - _FIXED_LOW
_STAND_IN = int(np.float64(1.5).view(np.uint64))  # scaled in place of weights repr() writes
_PLACES = np.array([1, 10, 100, 1000])  # _PLACES[count - 1]: the place of the last digit kept
_EXPONENTS = range(-14, 54)  # binary exponents of [1e-4, 1e16)
# Indexed by 2 * (x's binary exponent - _EXPONENTS[0]) + (1 if |x| reaches
# the next decade within its binade): k, with |x| * 10**k in [1e16, 1e17);
# 10**k in extended precision; half of x's gap times 10**k, 2**(e - 53) *
# 10**k. All are exact. _NEXT_DECADE is indexed by the exponent alone.
_NEXT_DECADE = np.empty(len(_EXPONENTS))
_DECADE_K = np.empty(2 * len(_EXPONENTS), np.intp)
_DECADE_SCALE = np.empty(2 * len(_EXPONENTS), np.longdouble)
_HALF_GAP = np.empty(2 * len(_EXPONENTS))
for _i, _e in enumerate(_EXPONENTS):
    _decade = len(str(2**_e)) - 1 if _e >= 0 else len(str(5**-_e)) - 1 + _e  # floor(log10(2**e))
    _NEXT_DECADE[_i] = float(f"1e{_decade + 1}")
    for _over in (0, 1):
        _k = 16 - _decade - _over
        _DECADE_K[2 * _i + _over] = _k
        _DECADE_SCALE[2 * _i + _over] = _POW10[_k]
        _HALF_GAP[2 * _i + _over] = 2.0 ** (_e - 53) * 10**_k
_DIGIT = ord("0") + np.arange(10, dtype=np.uint64)
_DIGITS4 = (  # 0000 to 9999, spread over the even bytes of a word
    ((_DIGIT[:, None] | _DIGIT << 16)[:, :, None] | _DIGIT << 32)[:, :, :, None] | _DIGIT << 48
).ravel()
_LEAD = np.array(  # the sign and the first digit
    [(ord("0") + d) << 48 | (ord("-") if neg else 0) for neg in (0, 1) for d in range(10)], np.uint64
)


def _token_mask(k: int, count: int) -> np.ndarray:
    """The XOR that turns a row of 17 digits, scaled by 10**k, into its
    token with the last count - 1 digits dropped."""
    point = 17 - k  # digits before the decimal point
    mask = bytearray(40)
    if point <= 0:
        mask[1 : 3 - point] = b"0." + b"0" * -point
    else:
        mask[5 + 2 * point] = ord(".")
    for i in range(max(18 - count, point + 1), 17):  # "12000.0" keeps a zero after the point
        mask[6 + 2 * i] = ord("0")
    mask[39] = ord(",")
    return np.frombuffer(bytes(mask), np.uint64)


_TOKEN_MASK = np.array([[_token_mask(k, c) for c in range(5)] for k in range(21)]).reshape(-1, 5)


def _weight_tokens(weights: np.ndarray) -> str:
    """json.dumps's text for a list of finite float64 weights, without its
    brackets: the weights' reprs, comma-separated, built as the module
    docstring says."""
    rows = np.empty((_WRITE_CHUNK, 5), np.uint64)
    text = b"".join(
        _token_rows(weights[i : i + _WRITE_CHUNK], rows) for i in range(0, weights.size, _WRITE_CHUNK)
    )
    return text[:-1].decode("ascii")


def _token_rows(x: np.ndarray, rows: np.ndarray) -> bytes:
    """The repr of each weight in x, each followed by a comma; rows is
    scratch space of at least x.size rows."""
    bits = x.view(np.uint64)
    mag = bits & _ABS
    fast = ((mag - _FIXED_LOW) < _FIXED_SPAN) & ((bits << _MANTISSA_SHIFT) != 0)
    mag[~fast] = _STAND_IN  # so nothing below overflows
    a = mag.view(np.float64)
    exponent = ((mag >> 52) - (1023 + _EXPONENTS[0])).astype(np.intp)
    scale = 2 * exponent + (a >= _NEXT_DECADE[exponent])
    y = a.astype(np.longdouble)
    y *= _DECADE_SCALE[scale]  # in [1e16, 1e17), within _SCALE_ERROR of |x| * 10**k
    whole = y.astype(np.uint64).view(np.int64)
    low = (y - (whole - whole % 10**4)).astype(np.float64)  # y mod 10**4, exact
    count, down, unsure = _kept_places(low, _HALF_GAP[scale])
    place = _PLACES[count - 1]
    up = place - down
    kept = whole - down.astype(np.int64) + (up < down) * place  # the nearest multiple of place
    fast &= ~unsure & (np.abs(up - down) > 2 * _SCALE_ERROR) & (kept < 10**17)
    fast &= count < _PLACES.size  # a multiple of every place: fewer than 15 digits
    kept[~fast] = 10**16
    lead = kept // 10**16
    kept -= lead * 10**16
    high = kept // 10**8
    kept -= high * 10**8
    r = rows[: x.size]
    r[:, 0] = _LEAD[lead + 10 * (x < 0)]
    for word, digits in ((1, high), (3, kept)):
        top = digits // 10**4
        r[:, word] = _DIGITS4[top]
        r[:, word + 1] = _DIGITS4[digits - top * 10**4]
    r ^= np.take(_TOKEN_MASK, _DECADE_K[scale] * 5 + count, axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        tokens = b"".join(repr(v).encode().ljust(39, b"\0") + b"," for v in x[slow].tolist())
        r[slow] = np.frombuffer(tokens, np.uint64).reshape(-1, 5)
    return r.tobytes().translate(None, b"\0")


def _kept_places(low: np.ndarray, half: np.ndarray):
    """For each scaled weight y (given as y mod 10**4): how many of _PLACES,
    in order, have a multiple strictly inside the weight's rounding interval
    (|multiple - y| < half), the distance down from y to a multiple of the
    last such place, and whether any answer falls within _SCALE_ERROR."""
    places = _PLACES[:, None]
    down = np.floor(low / places)
    down *= places
    np.subtract(low, down, out=down)  # low mod place, exact
    gap = np.minimum(down, places - down)
    count = (gap < half - _SCALE_ERROR).sum(axis=0)
    gap -= half
    unsure = (np.abs(gap) <= _SCALE_ERROR).any(axis=0)
    return count, down[np.maximum(count - 1, 0), np.arange(low.size)], unsure


def _write_table(path_or_file, header: tuple[str, ...], rows) -> int:
    """Write CSV rows under a header row; returns the number of rows."""
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        count = 0
        for row in rows:
            writer.writerow(row)
            count += 1
        return count


def write_trace(result: DetectionResult, path_or_file) -> int:
    """Emit a detection trace as CSV rows "t,statistic,alarmed".

    t is the wall-clock time at which the statistic became available (scored
    index plus window lag for the windowed methods); alarmed flags rows at or
    above the threshold.
    """
    lag, b = result.config.lag, result.config.b
    rows = ((scored + lag, repr(float(stat)), int(stat >= b)) for scored, stat in result.trajectory)
    return _write_table(path_or_file, ("t", "statistic", "alarmed"), rows)


def write_oc(rows, path_or_file) -> int:
    """Emit an operating-characteristic table as CSV "gamma,b,edd,se"."""
    cells = ([repr(float(x)) for x in (row.gamma, row.b, row.edd, row.se)] for row in rows)
    return _write_table(path_or_file, ("gamma", "b", "edd", "se"), cells)


def _numpy_to_json(value):
    """json.dump's default hook: numpy arrays and scalars as lists and numbers."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_report(report: dict, path_or_file) -> None:
    """Emit a report dict as indented JSON, numpy values as lists and numbers."""
    with _opened(path_or_file, "w") as fh:
        json.dump(report, fh, indent=2, default=_numpy_to_json)
        fh.write("\n")


def xcorr_stream(path_or_file, segment: int) -> list[GraphSnapshot]:
    """Read a sensor CSV and turn it into correlation-graph snapshots.

    The CSV holds a header row of at least two channel names, then one row
    of finite float samples per tick. The whole file is read and checked
    before segment (an integer of at least 2) and before any snapshot is
    built. Snapshot t holds the Pearson correlations of the channels over
    the t-th non-overlapping segment; trailing samples short of a full
    segment are dropped. A zero-variance channel would make its
    correlations undefined, so those entries (its whole row and column,
    diagonal included) are set to 0 with a warning. A segment whose sums of
    squares overflow, as samples near 1e200 do, raises StreamFormatError
    naming it.
    """
    with _opened(path_or_file, "r") as fh:
        name = _name_of(fh)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StreamFormatError(f"{name}: empty file, expected a header row") from None
        names = [h.strip() for h in header]
        if _NOT_UTF8.search("".join(names)):
            raise StreamFormatError(f"{name}: line 1: a channel name is not UTF-8 text")
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
    values = np.array(rows, dtype=float).reshape(-1, len(names))
    length = _whole("segment", segment)
    if length < 2:
        raise ValueError("segment length must be at least 2")
    snaps: list[GraphSnapshot] = []
    for s in range(len(values) // length):
        block = values[s * length : (s + 1) * length]
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            centered = block - block.mean(axis=0)
            norms = np.sqrt((centered**2).sum(axis=0))
        if not np.isfinite(norms).all():
            raise StreamFormatError(
                f"segment {s + 1}: samples too large to correlate (a sum of squares overflows)"
            )
        flat = norms == 0.0
        if flat.any():
            bad = ", ".join(names[i] for i in np.nonzero(flat)[0])
            warnings.warn(
                f"segment {s + 1}: zero-variance channel(s) {bad}; correlations set to 0",
                stacklevel=2,
            )
        safe = np.where(flat, 1.0, norms)
        corr = (centered.T @ centered) / np.outer(safe, safe)
        corr[flat, :] = 0.0
        corr[:, flat] = 0.0
        np.fill_diagonal(corr, np.where(flat, 0.0, 1.0))
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
            if _NOT_UTF8.search(raw):
                raise StreamFormatError(f"{name}: line {lineno}: not UTF-8 text")
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

"""Command-line surface: simulate, detect, calibrate, theory, bench, xcorr.

Every subcommand accepts --out and --config; simulate, calibrate and bench,
the ones that draw random numbers, also accept --seed. A config file holds
"key = value" lines using the long option names; flags given on the command
line override it. Exit codes: 0 success, 2 usage error (bad flags, values, or
config keys), 3 validity failure (parameters outside a formula's domain,
calibration failure, malformed data files, data that overflows the statistic).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass

from .detect import EXACT, METHODS, TOP1, DetectorConfig, run_detector
from .graph_model import (
    CONVENTIONS,
    SYMMETRIC,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    iter_stream,
)
from .io import (
    StreamFormatError,
    iter_stream_file,
    parse_config,
    read_stream,  # noqa: F401  unused; perfbench's tracer wraps the cli.read_stream binding
    write_oc,
    write_report,
    write_stream,
    write_trace,
    xcorr_stream,
)
from .montecarlo import CalibrationError, McPlan, calibrate_threshold, oc_curve
from .spectral import NumericalError
from .theory import ValidityError, theory_report


class UsageError(Exception):
    """Bad flag or config combination; maps to exit code 2."""


def _sizes(text: str) -> tuple[int, ...]:
    vals = tuple(int(p) for p in text.split(",") if p.strip())
    if not vals:
        raise ValueError("expected a comma-separated list of community sizes")
    return vals


def _floats(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in text.split(",") if p.strip())
    if not vals:
        raise ValueError("expected a comma-separated list of numbers")
    return vals


def _tau(text: str) -> int | None:
    return None if text == "never" else int(text)


def _method(text: str) -> str:
    if text not in METHODS:
        raise ValueError(f"unknown method {text!r}; choose from {', '.join(METHODS)}")
    return text


def _convention(text: str) -> str:
    if text not in CONVENTIONS:
        raise ValueError(
            f"unknown convention {text!r}; choose from {', '.join(CONVENTIONS)}"
        )
    return text


@dataclass(frozen=True)
class _Opt:
    name: str
    convert: object = None
    default: object = None
    required: bool = False
    positional: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_SEED = _Opt("seed", int, default=0, help="master seed (default 0)")
_OUT = _Opt("out", help="output path (default: stdout)")

_SCENARIO_OPTS = (
    _Opt("sizes", _sizes, required=True, help="community sizes, e.g. 12,6"),
    _Opt("nodes", int, help="total node count (default: sum of sizes)"),
    _Opt("sigma", float, default=1.0, help="noise level (default 1.0)"),
    _Opt(
        "convention",
        _convention,
        default=SYMMETRIC,
        help="edge sampling convention: symmetric or iid-full (default symmetric)",
    ),
)

_DETECTOR_OPTS = (
    _Opt("method", _method, required=True, help="exact, spectral, or top1"),
    _Opt("m", int, help="subspace dimension (spectral method; top1 is m = 1)"),
    _Opt("window", int, help="window length w (spectral and top1 methods)"),
    _Opt("d", float, help="drift constant (spectral and top1; default m/2)"),
)

_MC_OPTS = (
    _Opt("reps", int, default=500, help="Monte Carlo replications (default 500)"),
    _Opt("cap", int, help="max steps per replication (default 20x the target)"),
    _Opt("rel-tol", float, default=0.1, help="calibration tolerance (default 0.1)"),
    _Opt("workers", int, default=1, help="worker processes, at least 1 (default 1)"),
)

_SIMULATE_OPTS = _SCENARIO_OPTS + (
    _Opt("tau", _tau, help='change point; integer or "never" (default never)'),
    _Opt("horizon", int, required=True, help="number of snapshots to generate"),
    _SEED,
    _OUT,
)

_DETECT_OPTS = (
    _Opt(
        "input",
        positional=True,
        required=True,
        help="NDJSON stream file, read lazily in O(w n^2) memory and only up to the "
        "alarm: lines after it are neither read nor validated",
    ),
    *_DETECTOR_OPTS,
    _Opt(
        "b",
        float,
        default=math.log(100.0),
        help="alarm threshold (default ln(100))",
    ),
    _Opt("sizes", _sizes, help="community sizes (exact method only)"),
    _Opt("nodes", int, help="total node count (exact method only)"),
    _OUT,
)

_CALIBRATE_OPTS = (
    _Opt("target", float, required=True, help="target average run length"),
    *_SCENARIO_OPTS,
    *_DETECTOR_OPTS,
    *_MC_OPTS,
    _SEED,
    _OUT,
)

_THEORY_OPTS = (
    _Opt("sizes", _sizes, required=True, help="community sizes, e.g. 12,6"),
    _Opt("nodes", int, help="total node count (default: sum of sizes)"),
    _Opt("sigma", float, default=1.0, help="noise level (default 1.0)"),
    _Opt("gamma", float, required=True, help="target average run length"),
    _Opt("window", int, help="window length (default: rounded optimal)"),
    _OUT,
)

_BENCH_OPTS = (
    _Opt("gammas", _floats, required=True, help="ascending target ARLs, e.g. 50,100,200"),
    *_SCENARIO_OPTS,
    *_DETECTOR_OPTS,
    *_MC_OPTS,
    _SEED,
    _OUT,
)

_XCORR_OPTS = (
    _Opt("input", positional=True, required=True, help="sensor CSV file"),
    _Opt("segment", int, required=True, help="samples per correlation segment"),
    _OUT,
)


def _add_options(sp: argparse.ArgumentParser, opts) -> None:
    for o in opts:
        if o.positional:
            sp.add_argument(o.name, nargs="?", default=None, help=o.help)
        elif o.convert is None:
            sp.add_argument(f"--{o.name}", dest=o.dest, default=None, help=o.help)
        else:
            sp.add_argument(
                f"--{o.name}", dest=o.dest, type=o.convert, default=None, help=o.help
            )
    sp.add_argument(
        "--config",
        default=None,
        help='file of "key = value" lines; command-line flags override it',
    )


def _resolve(ns: argparse.Namespace, opts) -> dict:
    cfg = parse_config(ns.config) if ns.config else {}
    known = {o.name for o in opts}
    unknown = set(cfg) - known
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    values = {}
    for o in opts:
        value = getattr(ns, o.dest)
        if value is None and o.name in cfg:
            try:
                value = o.convert(cfg[o.name]) if o.convert else cfg[o.name]
            except ValueError as err:
                raise UsageError(f"config key {o.name!r}: {err}") from None
        if value is None:
            if o.required:
                what = o.name if o.positional else f"--{o.name}"
                raise UsageError(f"missing required {what}")
            value = o.default
        values[o.dest] = value
    return values


def _out_or_stdout(values: dict):
    return values["out"] if values["out"] else sys.stdout


def _build_scenario(values: dict, tau, horizon: int) -> StreamScenario:
    assignment = assignment_from_sizes(values["sizes"], n=values["nodes"])
    return StreamScenario(
        assignment=assignment,
        sigma=values["sigma"],
        tau=tau,
        horizon=horizon,
        seed=values["seed"],
        convention=values["convention"],
    )


def _reject_unread(values: dict, *names: str) -> None:
    """Refuse the flags among names that were given: the method never reads them."""
    given = [f"--{name}" for name in names if values[name] is not None]
    if given:
        raise UsageError(f"the {values['method']} method does not read {', '.join(given)}")


def _build_detector(values: dict, b: float) -> DetectorConfig:
    a = None
    if values["method"] == TOP1 and values["m"] not in (None, 1):
        raise UsageError(f"the top1 method is spectral at m = 1, not --m {values['m']}")
    if values["method"] == EXACT:
        _reject_unread(values, "m", "window", "d")
        if values["sizes"] is None:
            raise UsageError(
                "the exact method needs --sizes (and optionally --nodes) "
                "to build the indicator matrix"
            )
        a = build_indicator(assignment_from_sizes(values["sizes"], n=values["nodes"]))
    return DetectorConfig(
        method=values["method"],
        b=b,
        m=values["m"],
        w=values["window"],
        d=values["d"],
        A=a,
    )


def _build_plan(values: dict, flag: str, *targets: float) -> McPlan:
    """No-change Monte Carlo plan for calibrating to the largest of the
    target run lengths, which the option named by flag gave. The cap
    defaults to 20x that target."""
    if not all(math.isfinite(g) for g in targets):
        raise UsageError(f"{flag} must be finite, got {', '.join(map(str, targets))}")
    target = max(targets)
    cap = values["cap"] if values["cap"] is not None else max(10, math.ceil(20 * target))
    return McPlan(
        scenario=_build_scenario(values, tau=None, horizon=cap),
        detector=_build_detector(values, b=math.inf),
        replications=values["reps"],
        cap=cap,
        master_seed=values["seed"],
    )


def _cmd_simulate(ns: argparse.Namespace) -> int:
    v = _resolve(ns, _SIMULATE_OPTS)
    scenario = _build_scenario(v, tau=v["tau"], horizon=v["horizon"])
    write_stream(iter_stream(scenario), _out_or_stdout(v))
    return 0


def _cmd_detect(ns: argparse.Namespace) -> int:
    v = _resolve(ns, _DETECT_OPTS)
    if v["method"] != EXACT:
        _reject_unread(v, "sizes", "nodes")
    if not math.isfinite(v["b"]):
        raise UsageError(f"--b must be finite, got {v['b']}")
    detector = _build_detector(v, b=v["b"])
    pulled = 0

    def counted(snapshots):
        # a windowed alarm is reported at the scored t + w, the arrival t only
        # where t steps by 1
        nonlocal pulled
        prev = None
        for snap in snapshots:
            if detector.lag and prev is not None and snap.t != prev + 1:
                raise StreamFormatError(
                    f"{v['input']}: t={snap.t} follows t={prev}; the {detector.method} "
                    "method needs t to step by 1"
                )
            prev = snap.t
            pulled += 1
            yield snap

    # the detector holds only its window: no line past the alarm is read, and
    # the file is closed when the run ends, not when the generator is collected
    with contextlib.closing(iter_stream_file(v["input"])) as snapshots:
        result = run_detector(counted(snapshots), detector)
    write_trace(result, _out_or_stdout(v))
    if result.stop_time is not None:
        print(f"alarm at t={result.stop_time}", file=sys.stderr)
    else:
        print(f"no alarm in {pulled} snapshots", file=sys.stderr)
    return 0


def _cmd_calibrate(ns: argparse.Namespace) -> int:
    v = _resolve(ns, _CALIBRATE_OPTS)
    target = v["target"]
    plan = _build_plan(v, "--target", target)
    b = calibrate_threshold(plan, target, v["rel_tol"], v["workers"])
    write_report(
        {
            "target_gamma": target,
            "b": b,
            "method": v["method"],
            "replications": v["reps"],
            "cap": plan.cap,
        },
        _out_or_stdout(v),
    )
    return 0


def _cmd_theory(ns: argparse.Namespace) -> int:
    v = _resolve(ns, _THEORY_OPTS)
    report = theory_report(
        v["sizes"], v["sigma"], v["gamma"], window=v["window"], n=v["nodes"]
    )
    write_report(report, _out_or_stdout(v))
    return 0


def _cmd_bench(ns: argparse.Namespace) -> int:
    v = _resolve(ns, _BENCH_OPTS)
    gammas = v["gammas"]
    rows = oc_curve(_build_plan(v, "--gammas", *gammas), gammas, v["rel_tol"], v["workers"])
    write_oc(rows, _out_or_stdout(v))
    return 0


def _cmd_xcorr(ns: argparse.Namespace) -> int:
    v = _resolve(ns, _XCORR_OPTS)
    write_stream(xcorr_stream(v["input"], v["segment"]), _out_or_stdout(v))
    return 0


_COMMANDS = (
    ("simulate", _cmd_simulate, _SIMULATE_OPTS, "generate a synthetic snapshot stream (NDJSON)"),
    ("detect", _cmd_detect, _DETECT_OPTS, "run a detector over a stream file, emit a trace CSV"),
    ("calibrate", _cmd_calibrate, _CALIBRATE_OPTS, "find the threshold matching a target average run length"),
    ("theory", _cmd_theory, _THEORY_OPTS, "closed-form design report as JSON"),
    ("bench", _cmd_bench, _BENCH_OPTS, "operating-characteristic curve as CSV"),
    ("xcorr", _cmd_xcorr, _XCORR_OPTS, "turn a sensor CSV into a correlation-graph stream"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-cusum",
        description="Online detection of emerging communities in dynamic weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, func, opts, help_text in _COMMANDS:
        sp = sub.add_parser(name, help=help_text, description=help_text)
        _add_options(sp, opts)
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        return ns.func(ns)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValidityError, CalibrationError, StreamFormatError, NumericalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

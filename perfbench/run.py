"""Benchmark of spectral_cusum: file-to-alarm detection and operating-
characteristic rows, timed end to end, with a separate traced run for
per-layer numbers.

    python3 perfbench/run.py --workload detect-file-n100 --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0

Run it from the repository root; it imports the package from ./src. Each
workload runs in its own single-threaded process (BLAS and OpenMP pinned to
one thread before numpy loads). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones of one traced iteration, and the spans go to perfbench/out/.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("detect-file-n100", "oc-spectral-n20", "oc-exact-n20")

SETUP_REPEATS = 3  # spread evenly over the run, so each sees the same machine
PASS_SHARE = 0.5  # in-memory passes after each operation, as a share of its time
OPS_BEFORE_RSS = 2  # peak RSS is read after these, before the passes hold a stream
MIN_OPS = 3
MIN_STEP_SAMPLES = 1000
OVERTIME_S = 60  # past --seconds, stop even if a minimum above is not met

END_TO_END_UNITS = {
    "op_s": "s",
    "steps_per_s": "steps/s",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_package():
    """Import spectral_cusum from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spectral_cusum", "__init__.py")):
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, SRC)
    import spectral_cusum

    if not os.path.abspath(spectral_cusum.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: spectral_cusum imported from {spectral_cusum.__file__}")


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": cpu,
    }


class Tally:
    """Counts operations attempted and failed; a raised error or a failed
    output check is a failure, reported on stderr, and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not problems

    def guarded(self, what: str, fn, *args):
        """Call fn; on an exception count a failure and return None."""
        try:
            return fn(*args)
        except Exception:  # any error of the program under test is a failed operation
            self.record(what, [traceback.format_exc().strip()])
            return None


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def run_untraced(wl, seed: int, seconds: float, workdir: str, tally: Tally) -> dict:
    """Time the operation for `seconds`, with in-memory detector passes after
    each operation and the set-up repeated at even intervals, and return the
    end-to-end metrics. Interleaving makes every metric sample the whole run."""
    import numpy as np
    from workloads import detector_pass

    setups, op_times, intervals = [], [], []
    pass_seconds, steps = 0.0, 0
    reference = first_pass = snapshots = config = inputs = None
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds + OVERTIME_S or (
            elapsed >= seconds
            and len(op_times) >= MIN_OPS
            and sum(map(len, intervals)) >= MIN_STEP_SAMPLES
            and len(setups) == SETUP_REPEATS
        ):
            break
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            inputs, dt = _timed(wl.setup, seed, workdir)
            setups.append(dt)

        gc.collect()
        t0 = time.perf_counter()
        raw = tally.guarded(wl.name, wl.op, inputs)
        op_times.append(time.perf_counter() - t0)
        if raw is not None:
            out = wl.read_op_output(inputs, raw)
            problems = wl.check_op(out)
            if reference is not None and out != reference:
                problems.append("operation output differs between repeats")
            if tally.record(wl.name, problems) and reference is None:
                reference = out
        if len(op_times) < OPS_BEFORE_RSS:
            continue
        if snapshots is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            snapshots, config = wl.pass_inputs(inputs)

        budget = PASS_SHARE * op_times[-1]
        spent = 0.0
        while spent < budget:
            gc.collect()
            p = tally.guarded(f"{wl.name} pass", detector_pass, snapshots, config)
            if p is None:
                break
            problems = wl.check_pass(inputs, p, reference) if reference is not None else []
            if first_pass is None:
                problems += wl.check_increments(inputs, p)
                first_pass = p
            elif p.result.trajectory != first_pass.result.trajectory:
                problems.append("pass trajectory differs between repeats")
            tally.record(f"{wl.name} pass", problems)
            intervals.append(np.asarray(p.intervals))
            pass_seconds += p.seconds
            spent += p.seconds
            steps += len(p.result.trajectory)

    samples = np.concatenate(intervals) if intervals else np.zeros(1)
    return {
        "op_s": statistics.median(op_times),
        "steps_per_s": steps / pass_seconds if pass_seconds else 0.0,
        "step_p90_ms": float(np.percentile(samples, 90)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
        "_info": {
            "step_samples": samples.size,
            "step_p50_ms": float(np.percentile(samples, 50)) * 1e3,
            "step_p99_ms": float(np.percentile(samples, 99)) * 1e3,
        },
    }


def _iteration(wl, inputs, tally: Tally, label: str):
    """One operation plus one in-memory pass; returns (op output, pass, wall time)."""
    from workloads import detector_pass

    gc.collect()
    start = time.perf_counter()
    raw = wl.op(inputs)
    snapshots, config = wl.pass_inputs(inputs)
    p = detector_pass(snapshots, config)
    wall = time.perf_counter() - start
    out = wl.read_op_output(inputs, raw)
    tally.record(f"{wl.name} {label}", wl.check_op(out))
    tally.record(f"{wl.name} {label} pass", wl.check_pass(inputs, p, out))
    return out, p, wall


def run_traced(wl, seed: int, workdir: str, tally: Tally, spans_path: str) -> dict:
    """One untraced and one traced iteration; the outputs must match bit for
    bit, and the per-layer metrics come from the traced one."""
    import tracer as tr

    inputs = wl.setup(seed, workdir, "untraced")
    untraced = tally.guarded(f"{wl.name} untraced", _iteration, wl, inputs, tally, "untraced")

    tracer = tr.Tracer()
    with tracer:
        inputs_t = wl.setup(seed, workdir, "traced")
        traced = tally.guarded(f"{wl.name} traced", _iteration, wl, inputs_t, tally, "traced")

    overhead = 0.0  # stays 0 when an iteration failed, which is already counted
    if untraced is not None and traced is not None:
        (out_u, pass_u, wall_u), (out_t, pass_t, wall_t) = untraced, traced
        problems = []
        if wl.outputs(out_t, pass_t) != wl.outputs(out_u, pass_u):
            problems.append("traced outputs differ from untraced outputs")
        if "path" in inputs and not _same_bytes(inputs["path"], inputs_t["path"]):
            problems.append("traced setup wrote a different stream file")
        tally.record(f"{wl.name} traced-vs-untraced", problems)
        overhead = wall_t / wall_u - 1.0
        if tracer.counts["montecarlo.path_steps"]:
            tracer.counts["montecarlo.useful_steps"] = wl.useful_steps(inputs, out_t.b)

    metrics = tr.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    tracer.write(spans_path, {"workload": wl.name, "seed": seed})
    return metrics


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def run_one(args) -> int:
    _import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    tally = Tally()
    try:
        print(json.dumps({"env": environment(), "workload": wl.name, "seed": args.seed}))
        if args.trace:
            spans = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.json.gz")
            metrics = run_traced(wl, args.seed, workdir, tally, spans)
            print(f"spans written to {os.path.relpath(spans, ROOT)}", file=sys.stderr)
        else:
            values = run_untraced(wl, args.seed, args.seconds, workdir, tally)
            for name, value in values.pop("_info").items():
                print(f"{wl.name:18s} {name:34s} {value:14.6g} (not gated)", file=sys.stderr)
            metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:18s} {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{wl.name:18s} {'failed_frac':34s} {failed_frac:14.6g} ratio", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload, each in a fresh process whose metric table goes to
    stderr, and print one combined result line."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

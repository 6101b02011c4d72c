"""The benchmark's workloads: inputs made from a seed, the timed operation,
the in-memory detector pass, and the output checks.

Every call into spectral_cusum goes through a module attribute looked up at
call time (``io.write_stream``, ``montecarlo.oc_curve``, ``cli.main``), so
the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io as _stdio
import json
import math
import os
import random
import time
from dataclasses import dataclass, replace

import numpy as np

from spectral_cusum import cli, detect, graph_model, io, montecarlo

# stream id of the in-memory pass's generator, far above any replication id
PASS_STREAM = 1 << 62


def timed_pulls(snapshots, stamps: list):
    """Yield snapshots, stamping the clock just before each one is handed on."""
    for snap in snapshots:
        stamps.append(time.perf_counter())
        yield snap


def step_intervals(stamps: list, end: float, lag: int) -> list:
    """Per-scored-step intervals of one pass. Scored step k starts when the
    (lag + k)-th snapshot is pulled and ends at the next pull (or at `end`
    for the last one); the first `lag` pulls only fill the window."""
    marks = stamps[lag:] + [end]
    return [b - a for a, b in zip(marks, marks[1:])]


@dataclass
class Pass:
    """One in-memory run_detector pass: its result, wall time and intervals."""

    result: detect.DetectionResult
    seconds: float
    intervals: list


def detector_pass(snapshots, config: detect.DetectorConfig) -> Pass:
    stamps: list = []
    start = time.perf_counter()
    result = detect.run_detector(timed_pulls(snapshots, stamps), config)
    end = time.perf_counter()
    lag = 0 if config.method == detect.EXACT else config.w
    return Pass(result, end - start, step_intervals(stamps, end, lag))


# -- detect-file ---------------------------------------------------------


@dataclass(frozen=True)
class DetectFile:
    """`spectral-cusum detect` on a recorded NDJSON stream.

    The change at tau is late and b high enough that no pre-change path
    reaches it, so the alarm lands a few steps after tau + w."""

    name: str = "detect-file-n100"
    n: int = 100
    sizes: tuple = (30, 15)
    sigma: float = 1.0
    m: int = 2
    w: int = 20
    b: float = 50.0
    tau: int = 300
    tail: int = 40
    checked_increments: int = 8

    def detector(self) -> detect.DetectorConfig:
        return detect.DetectorConfig(method=detect.SPECTRAL, b=self.b, m=self.m, w=self.w)

    def setup(self, seed: int, workdir: str, tag: str = "stream") -> dict:
        scenario = graph_model.StreamScenario(
            assignment=graph_model.assignment_from_sizes(self.sizes, n=self.n),
            sigma=self.sigma,
            tau=self.tau,
            horizon=self.tau + self.tail,
            seed=seed,
        )
        path = os.path.join(workdir, f"{tag}.ndjson")
        io.write_stream(graph_model.iter_stream(scenario), path)
        return {"seed": seed, "path": path, "trace": os.path.join(workdir, f"{tag}.csv")}

    def op(self, inputs: dict):
        """Run the detect subcommand; returns (exit code, stderr text)."""
        err = _stdio.StringIO()
        argv = [
            "detect", inputs["path"], "--method", "spectral", "--m", str(self.m),
            "--window", str(self.w), "--b", repr(self.b), "--out", inputs["trace"],
        ]
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def read_op_output(self, inputs: dict, raw) -> dict:
        code, stderr = raw
        with open(inputs["trace"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return {
            "code": code,
            "stderr": stderr,
            "rows": [(int(t), float(s), int(a)) for t, s, a in rows],
        }

    def check_op(self, out: dict) -> list:
        """The trace's alarm row must be the first crossing of b plus nothing
        earlier, the alarm must not precede tau, and stderr must agree."""
        problems = []
        if out["code"] != 0:
            return [f"detect exited {out['code']}: {out['stderr'].strip()}"]
        rows = out["rows"]
        crossing = next((t for t, s, _ in rows if s >= self.b), None)
        flagged = [t for t, _, a in rows if a]
        if crossing is None:
            return ["no alarm in the trace"]
        if flagged != [crossing] or rows[-1][0] != crossing:
            problems.append(f"alarm rows {flagged} do not match the first crossing {crossing}")
        if crossing < self.tau:
            problems.append(f"alarm at {crossing} precedes the change at {self.tau}")
        if f"alarm at t={crossing}" not in out["stderr"]:
            problems.append(f"stderr {out['stderr'].strip()!r} does not report t={crossing}")
        return problems

    def pass_inputs(self, inputs: dict):
        return io.read_stream(inputs["path"]), self.detector()

    def check_pass(self, inputs: dict, p: Pass, op_out: dict) -> list:
        """The in-memory run must alarm where the file run did, with the
        statistics the trace holds, bit for bit."""
        problems = []
        lag = self.w
        traced = [(t - lag, s) for t, s, _ in op_out["rows"]]
        if p.result.trajectory != traced:
            problems.append("in-memory trajectory differs from the file run's trace")
        if op_out["rows"] and p.result.stop_time != op_out["rows"][-1][0]:
            problems.append(f"in-memory alarm {p.result.stop_time} differs from the file run")
        return problems

    def check_increments(self, inputs: dict, p: Pass) -> list:
        """Recompute scored increments from the file with an explicit window
        mean, np.linalg.eigh and tr(G V V^T) - d."""
        traj = p.result.trajectory
        rnd = random.Random(inputs["seed"])
        picks = {0, len(traj) - 1}
        picks.update(rnd.sample(range(len(traj)), min(len(traj), self.checked_increments - 2)))
        wanted = {}
        for k in picks:
            t = traj[k][0]
            wanted[k] = range(t, t + self.w + 1)
        needed = {t for r in wanted.values() for t in r}
        mats = {}
        with open(inputs["path"]) as fh:
            for lineno, line in enumerate(fh, start=1):
                if lineno in needed:
                    mats[lineno] = _matrix_from_line(line, lineno)
        d = self.m / 2.0
        problems = []
        for k, ts in wanted.items():
            prev = traj[k - 1][1] if k > 0 else 0.0
            got = traj[k][1] - max(prev, 0.0)
            g = mats[ts[0]]
            window = sum(mats[t] for t in ts[1:]) / self.w
            window = (window + window.T) / 2.0
            _, vecs = np.linalg.eigh(window)
            v = vecs[:, -self.m:]
            want = float(np.trace(g @ v @ v.T)) - d
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                problems.append(f"increment at t={ts[0]}: {got!r} vs recomputed {want!r}")
        return problems

    def outputs(self, op_out: dict, p: Pass) -> tuple:
        """What traced and untraced runs must agree on."""
        return (tuple(op_out["rows"]), p.result.stop_time, tuple(p.result.trajectory))


def _matrix_from_line(line: str, lineno: int) -> np.ndarray:
    obj = json.loads(line)
    if obj["t"] != lineno:
        raise ValueError(f"line {lineno} holds t={obj['t']}")
    n = obj["n"]
    g = np.zeros((n, n))
    iu = np.triu_indices(n)
    g[iu] = obj["tri"]
    g.T[iu] = obj["tri"]
    return g


# -- OC rows -------------------------------------------------------------


@dataclass(frozen=True)
class OcRow:
    """One `oc_curve` row: calibrate b to gamma, then estimate the delay.

    rel_tol is wider than the CLI default so that confirmation noise does not
    fail rows or trigger the retry pass on some seeds and not others."""

    name: str
    method: str
    n: int
    sizes: tuple
    gamma: float
    reps: int
    m: int = 2
    w: int = 10
    sigma: float = 1.0
    rel_tol: float = 0.25
    cap_factor: int = 20
    pass_snapshots: int = 1000

    @property
    def lag(self) -> int:
        return 0 if self.method == detect.EXACT else self.w

    def _assignment(self):
        return graph_model.assignment_from_sizes(self.sizes, n=self.n)

    def detector(self, b: float) -> detect.DetectorConfig:
        if self.method == detect.EXACT:
            a = graph_model.build_indicator(self._assignment())
            return detect.DetectorConfig(method=detect.EXACT, b=b, A=a)
        return detect.DetectorConfig(method=self.method, b=b, m=self.m, w=self.w)

    def setup(self, seed: int, workdir: str, tag: str = "stream") -> dict:
        cap = self.cap_factor * math.ceil(self.gamma)
        scenario = graph_model.StreamScenario(
            assignment=self._assignment(), sigma=self.sigma, tau=None, horizon=cap, seed=seed
        )
        plan = montecarlo.McPlan(
            scenario=scenario,
            detector=self.detector(max(math.log(self.gamma), 0.1)),
            replications=self.reps,
            cap=cap,
            master_seed=seed,
        )
        rng = graph_model.rng_from_key(seed, PASS_STREAM)
        snaps = list(graph_model.iter_stream(scenario, rng=rng, horizon=self.pass_snapshots))
        return {"seed": seed, "plan": plan, "snapshots": snaps}

    def op(self, inputs: dict):
        rows = montecarlo.oc_curve(inputs["plan"], [self.gamma], self.rel_tol, workers=1)
        return rows[0]

    def read_op_output(self, inputs: dict, raw) -> montecarlo.OcPoint:
        return raw

    def check_op(self, row) -> list:
        problems = []
        if not (math.isfinite(row.b) and row.b > 0):
            problems.append(f"threshold {row.b!r} is not finite and positive")
        floor = 1 + self.lag
        if not (math.isfinite(row.edd) and row.edd >= floor):
            problems.append(f"EDD {row.edd!r} is below {floor}")
        return problems

    def pass_inputs(self, inputs: dict):
        return inputs["snapshots"], self.detector(math.inf)

    def check_pass(self, inputs: dict, p: Pass, op_out) -> list:
        want = self.pass_snapshots - self.lag
        if p.result.stop_time is not None or len(p.result.trajectory) != want:
            return [f"pass at b=inf scored {len(p.result.trajectory)} of {want} steps"]
        return []

    def check_increments(self, inputs: dict, p: Pass) -> list:
        return []

    def outputs(self, row, p: Pass) -> tuple:
        return (row.b, row.edd, row.se, p.result.stop_time, tuple(p.result.trajectory))

    def useful_steps(self, inputs: dict, b: float) -> int:
        """Path-phase steps up to each replication's first crossing of b:
        the replication's alarm time at b, or the cap if it never alarms."""
        plan = inputs["plan"]
        at_b = replace(plan, detector=replace(plan.detector, b=b))
        est = montecarlo.estimate_arl(at_b)
        alarmed = est.mean * est.used if est.used else 0.0
        return round(alarmed) + est.truncated * plan.cap


WORKLOADS = {
    w.name: w
    for w in (
        DetectFile(),
        OcRow(name="oc-spectral-n20", method=detect.SPECTRAL, n=20, sizes=(6, 3),
              gamma=20.0, reps=60, pass_snapshots=1200),
        OcRow(name="oc-exact-n20", method=detect.EXACT, n=20, sizes=(2, 1),
              gamma=50.0, reps=200, pass_snapshots=5000),
    )
}

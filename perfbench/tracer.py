"""Spans around the calls into spectral_cusum's public functions.

The tracer wraps module attributes from outside the package: every binding
of a wrapped function is replaced, including the names other modules bound
with ``from .x import y`` (``detect.estimate_subspace``,
``montecarlo.iter_stream``, ``cli.read_stream`` and so on), and restored
afterwards. Spans (name, start, end, parent) are kept in memory; per-layer
metrics are derived from their self time, the span's duration minus the part
of it that child spans cover.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

import spectral_cusum
from spectral_cusum import cli, detect, graph_model, io, montecarlo, spectral

MODULES = (spectral_cusum, cli, detect, graph_model, io, montecarlo, spectral)

# (defining module, function, span name); a span name's prefix is its layer
TARGETS = (
    (io, "read_stream", "io.read_stream"),
    (io, "write_stream", "io.write_stream"),
    (io, "write_trace", "io.write_trace"),
    (spectral, "estimate_subspace", "spectral.estimate_subspace"),
    (spectral, "sliding_mean", "spectral.sliding_mean"),
    (spectral, "top_m_eigs", "spectral.top_m_eigs"),
    (spectral, "projector", "spectral.projector"),
    (detect, "run_detector", "detect.run_detector"),
    (montecarlo, "oc_curve", "montecarlo.oc_curve"),
    (montecarlo, "estimate_edd", "montecarlo.estimate_edd"),
    (cli, "main", "cli.main"),
)

DRAW = "graph_model.draw"


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals clipped to it. spans holds (name, start, end, parent)
    with parent an index into spans, or -1 for a root."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the rows of 2-D normal draws
    (the exact Monte Carlo path draws one row per simulated step)."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        if isinstance(size, tuple) and len(size) == 2 and self._tracer.in_montecarlo:
            self._tracer.count_step(size[0])
        return self._rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._mc_depth = 0
        self._calibration = None

    # -- recording -------------------------------------------------------

    @property
    def in_montecarlo(self) -> bool:
        return self._mc_depth > 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count_step(self, k: int) -> None:
        self.counts["montecarlo.steps_simulated"] += k
        if self._calibration is not None and self._calibration["confirm_start"] is None:
            self.counts["montecarlo.path_steps"] += k

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        montecarlo_layer = int(name.startswith("montecarlo."))

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            tracer._mc_depth += montecarlo_layer
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._mc_depth -= montecarlo_layer
                tracer._close(idx)
            tracer._after(name, args, result, idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name, args, result, idx) -> None:
        if name == "io.read_stream":
            self.counts["io.read_stream.snapshots"] += len(result)
            if isinstance(args[0], (str, os.PathLike)):
                self.counts["io.read_stream.bytes"] += os.path.getsize(args[0])
        elif name == "io.write_stream":
            self.counts["io.write_stream.snapshots"] += result
        elif name == "detect.run_detector":
            self.counts["detect.steps"] += len(result.trajectory)
        elif name == "montecarlo.estimate_edd":
            span = self.spans[idx]
            self.counts["montecarlo.edd.s"] += span[2] - span[1]

    def _wrap_calibrate(self, fn):
        """Span around calibrate_threshold, split into its path phase and its
        confirmation phase at the first replication id >= replications."""
        tracer = self

        def traced(plan, *args, **kwargs):
            cal = {"reps": plan.replications, "confirm_start": None, "passes": set()}
            tracer._calibration = cal
            idx = tracer._open("montecarlo.calibrate_threshold")
            tracer._mc_depth += 1
            try:
                return fn(plan, *args, **kwargs)
            finally:
                tracer._mc_depth -= 1
                tracer._close(idx)
                tracer._calibration = None
                _, start, end, _ = tracer.spans[idx]
                split = end if cal["confirm_start"] is None else cal["confirm_start"]
                tracer.counts["montecarlo.paths.s"] += split - start
                tracer.counts["montecarlo.confirm.s"] += end - split
                tracer.counts["montecarlo.confirm_passes"] += len(cal["passes"])

        traced.__wrapped__ = fn
        return traced

    def _wrap_rng_from_key(self, fn):
        tracer = self

        def traced(seed, stream=0):
            rng = fn(seed, stream)
            if not tracer.in_montecarlo:
                return rng
            tracer.counts["montecarlo.replications"] += 1
            cal = tracer._calibration
            if cal is not None and stream >= cal["reps"]:
                if cal["confirm_start"] is None:
                    cal["confirm_start"] = tracer.clock()
                cal["passes"].add((stream - cal["reps"]) // (2 * cal["reps"]))
            return _CountingGenerator(rng, tracer)

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter_stream(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                start = tracer.clock()
                try:
                    snap = next(gen)
                except StopIteration:
                    return
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([DRAW, start, tracer.clock(), parent])
                if tracer.in_montecarlo:
                    tracer.count_step(1)
                yield snap

        traced.__wrapped__ = fn
        return traced

    # -- install / restore -----------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod, fname, span in TARGETS:
            original = getattr(mod, fname)
            self._replace_everywhere(original, self._wrap(span, original))
        for mod, fname, wrap in (
            (montecarlo, "calibrate_threshold", self._wrap_calibrate),
            (graph_model, "iter_stream", self._wrap_iter_stream),
            (graph_model, "rng_from_key", self._wrap_rng_from_key),
        ):
            original = getattr(mod, fname)
            self._replace_everywhere(original, wrap(original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        """Write spans (columnar, gzip-compressed JSON) and counters."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "name": [code[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "counts": dict(self.counts),
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration, as name -> (value, unit)."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _), self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
    c = tracer.counts
    us = 1e6
    return {
        "io.read_stream.us_per_snapshot": (
            _per(total["io.read_stream"], c["io.read_stream.snapshots"], us), "us"),
        "io.read_stream.mb_per_s": (
            _per(c["io.read_stream.bytes"] / 1e6, total["io.read_stream"]), "MB/s"),
        "io.write_stream.us_per_snapshot": (
            _per(own["io.write_stream"], c["io.write_stream.snapshots"], us), "us"),
        "io.write_trace.s": (_per(total["io.write_trace"], calls["io.write_trace"]), "s"),
        "graph_model.snapshots": (calls[DRAW], "count"),
        "graph_model.draw.us_per_snapshot": (_per(total[DRAW], calls[DRAW], us), "us"),
        "spectral.sliding_mean.calls": (calls["spectral.sliding_mean"], "count"),
        "spectral.sliding_mean.us_per_call": (
            _per(total["spectral.sliding_mean"], calls["spectral.sliding_mean"], us), "us"),
        "spectral.top_m_eigs.calls": (calls["spectral.top_m_eigs"], "count"),
        "spectral.top_m_eigs.us_per_call": (
            _per(total["spectral.top_m_eigs"], calls["spectral.top_m_eigs"], us), "us"),
        "spectral.projector.us_per_call": (
            _per(total["spectral.projector"], calls["spectral.projector"], us), "us"),
        "detect.steps": (int(c["detect.steps"]), "count"),
        "detect.self.us_per_step": (
            _per(own["detect.run_detector"], c["detect.steps"], us), "us"),
        "montecarlo.replications": (int(c["montecarlo.replications"]), "count"),
        "montecarlo.confirm_passes": (int(c["montecarlo.confirm_passes"]), "count"),
        "montecarlo.paths.s": (c["montecarlo.paths.s"], "s"),
        "montecarlo.confirm.s": (c["montecarlo.confirm.s"], "s"),
        "montecarlo.edd.s": (c["montecarlo.edd.s"], "s"),
        "montecarlo.steps_simulated": (int(c["montecarlo.steps_simulated"]), "count"),
        "montecarlo.useful_step_ratio": (
            _per(c["montecarlo.useful_steps"], c["montecarlo.path_steps"]), "ratio"),
        "cli.self.s": (_per(own["cli.main"], calls["cli.main"]), "s"),
    }

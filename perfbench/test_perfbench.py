"""Tests of the benchmark itself, on workloads shrunk to run in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads, then puts ./src on the path)

run._import_package()

import tracer as tr  # noqa: E402
from workloads import DetectFile, OcRow, detector_pass, step_intervals  # noqa: E402

from spectral_cusum import detect  # noqa: E402

SMALL = (
    DetectFile(name="detect-small", n=12, sizes=(4, 2), w=5, b=30.0, tau=30, tail=15,
               checked_increments=4),
    OcRow(name="oc-spectral-small", method=detect.SPECTRAL, n=8, sizes=(3, 2), gamma=10.0,
          reps=40, w=4, pass_snapshots=60),
    OcRow(name="oc-exact-small", method=detect.EXACT, n=20, sizes=(2, 1), gamma=50.0,
          reps=40, pass_snapshots=100),
)


def _iterate(wl, inputs):
    raw = wl.op(inputs)
    snaps, config = wl.pass_inputs(inputs)
    out = wl.read_op_output(inputs, raw)
    return out, detector_pass(snaps, config)


def _key_outputs(wl, out, p):
    """Alarm times for detection; threshold and EDD for OC rows."""
    if isinstance(wl, DetectFile):
        return out["rows"][-1][0], p.result.stop_time, p.result.trajectory
    return out.b, out.edd, out.se, p.result.trajectory


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_outputs_are_bit_identical(wl, tmp_path):
    inputs = wl.setup(3, str(tmp_path), "untraced")
    out_u, pass_u = _iterate(wl, inputs)
    assert wl.check_op(out_u) == []
    assert wl.check_pass(inputs, pass_u, out_u) == []
    assert wl.check_increments(inputs, pass_u) == []
    with tr.Tracer() as tracer:
        inputs_t = wl.setup(3, str(tmp_path), "traced")
        out_t, pass_t = _iterate(wl, inputs_t)
    assert tracer.spans
    assert _key_outputs(wl, out_t, pass_t) == _key_outputs(wl, out_u, pass_u)


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_traced_run_reports_every_layer_metric(wl, tmp_path):
    tally = run.Tally()
    spans = str(tmp_path / "spans.json.gz")
    metrics = run.run_traced(wl, 5, str(tmp_path), tally, spans)
    assert tally.failed == 0 and tally.attempted == 5
    assert os.path.getsize(spans) > 0
    assert all(math.isfinite(v) for v, _ in metrics.values())
    assert "trace.overhead_frac" in metrics
    assert metrics["detect.steps"][0] > 0
    if isinstance(wl, OcRow):
        assert metrics["montecarlo.replications"][0] >= 3 * wl.reps
        assert 0 < metrics["montecarlo.useful_step_ratio"][0] <= 1
        assert metrics["montecarlo.confirm_passes"][0] in (1, 2)
    else:
        assert metrics["graph_model.snapshots"][0] == wl.tau + wl.tail


def _bindings():
    return {(mod.__name__, name): value for mod in tr.MODULES for name, value in vars(mod).items()}


def test_wrappers_replace_imported_names_and_restore_every_attribute():
    from spectral_cusum import cli, detect as det, montecarlo, spectral

    before = _bindings()
    with pytest.raises(RuntimeError, match="boom"):
        with tr.Tracer():
            for mod, name in ((det, "estimate_subspace"), (spectral, "top_m_eigs"),
                              (montecarlo, "iter_stream"), (montecarlo, "rng_from_key"),
                              (cli, "read_stream"), (montecarlo, "run_detector")):
                assert getattr(mod, name) is not before[(mod.__name__, name)]
                assert getattr(mod, name).__wrapped__ is before[(mod.__name__, name)]
            raise RuntimeError("boom")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["b.child", 6.0, 7.0, 2],
        ["c", 3.0, 5.0, 0],  # overlaps a: the overlap is subtracted once
        ["late", 9.5, 12.0, 0],  # runs past the parent: clipped at 10
    ]
    assert tr.self_times(spans) == pytest.approx([1.5, 3.0, 3.0, 1.0, 2.0, 2.5])


def test_layer_metrics_take_detector_self_time_per_step():
    t = tr.Tracer()
    t.spans = [
        ["detect.run_detector", 0.0, 1.0, -1],
        ["spectral.estimate_subspace", 0.1, 0.5, 0],
        ["spectral.top_m_eigs", 0.2, 0.4, 1],
        [tr.DRAW, 0.6, 0.7, 0],
        ["spectral.projector", 0.8, 0.85, 0],
    ]
    t.counts["detect.steps"] = 2
    m = tr.layer_metrics(t)
    assert m["detect.self.us_per_step"][0] == pytest.approx(0.45 / 2 * 1e6)
    assert m["spectral.top_m_eigs.us_per_call"][0] == pytest.approx(0.2e6)
    assert m["graph_model.snapshots"] == (1, "count")
    assert m["montecarlo.useful_step_ratio"] == (0.0, "ratio")


def test_step_intervals_skip_the_window_fill_and_close_at_the_end():
    assert step_intervals([0.0, 1.0, 3.0, 6.0], 10.0, 2) == [3.0, 4.0]
    assert step_intervals([0.0, 1.0], 1.5, 0) == [1.0, 0.5]


def test_the_seed_argument_changes_the_inputs(tmp_path):
    wl = SMALL[0]

    def stream(seed, tag):
        with open(wl.setup(seed, str(tmp_path), tag)["path"], "rb") as fh:
            return fh.read()

    assert stream(0, "a") == stream(0, "b")
    assert stream(0, "a") != stream(1, "c")
    oc = SMALL[1]
    a, b = oc.setup(0, str(tmp_path)), oc.setup(1, str(tmp_path))
    assert a["plan"].master_seed != b["plan"].master_seed
    assert not all((x.weights == y.weights).all() for x, y in zip(a["snapshots"], b["snapshots"]))

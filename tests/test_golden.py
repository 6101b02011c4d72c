"""Golden outputs: values the bit-for-bit contract promises, pinned in
golden.json.

Each value is a fact of the platform that produced it: whether numpy's
OpenBLAS exports LAPACKE dsyevr (spectral._DSYEVR) and whether long double
is x87 extended precision (io._EXTENDED). An entry records both flags, is
checked only where both match and is skipped elsewhere. A change that moves
bits on purpose regenerates this platform's entries with

    PYTHONPATH=src python tests/test_golden.py

in the same commit, and says which values moved and why. The script prints
each entry whose value moved (name: old -> new) and the count that kept
theirs.
"""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from spectral_cusum import (
    EXACT,
    IID_FULL,
    SPECTRAL,
    SYMMETRIC,
    TOP1,
    DetectorConfig,
    McPlan,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    calibrate_threshold,
    estimate_drift_mc,
    iter_stream,
    oc_curve,
    rng_from_key,
    run_detector,
    verify_equalizer_mc,
    write_stream,
)
from spectral_cusum import cli, spectral
from spectral_cusum import io as stream_io

GOLDEN = Path(__file__).with_name("golden.json")


def platform() -> dict:
    return {"dsyevr": spectral._DSYEVR is not None, "extended": bool(stream_io._EXTENDED)}


def oc_row(method, sizes, gamma, reps):
    """A perfbench OC row at seed 0 (n = 20, sigma 1, m = 2, w = 10, cap
    20 gamma, rel_tol 0.25): (b, EDD, se)."""
    asg = assignment_from_sizes(sizes, n=20)
    cap = 20 * math.ceil(gamma)
    b = max(math.log(gamma), 0.1)
    if method == EXACT:
        det = DetectorConfig(method=EXACT, b=b, A=build_indicator(asg))
    else:
        det = DetectorConfig(method=method, b=b, m=2, w=10)
    sc = StreamScenario(assignment=asg, sigma=1.0, tau=None, horizon=cap)
    (row,) = oc_curve(McPlan(sc, det, replications=reps, cap=cap), [gamma], 0.25)
    return [row.b, row.edd, row.se]


def criterion_07_b50():
    asg = assignment_from_sizes((2, 1))
    sc = StreamScenario(assignment=asg, sigma=1.0, tau=None, horizon=1)
    det = DetectorConfig(method=EXACT, b=1.0, A=build_indicator(asg))
    return calibrate_threshold(McPlan(sc, det, replications=2000, cap=5000), 50.0)


def calibrate_spectral_upward():
    """A windowed calibration whose search doubles past ln gamma = 3.0."""
    asg = assignment_from_sizes((2, 1))
    sc = StreamScenario(assignment=asg, sigma=1.0, tau=None, horizon=1, convention=SYMMETRIC)
    det = DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=3, d=0.2)
    return calibrate_threshold(McPlan(sc, det, replications=60, cap=200, master_seed=5), 20.0, 0.2)


def drift_mc():
    sc = StreamScenario(
        assignment=assignment_from_sizes((12, 6), n=20), sigma=1.0, tau=None, horizon=1
    )
    res = estimate_drift_mc(sc, m=2, w=10, replications=100, master_seed=4)
    return [res.pre.mean, res.pre.se, res.post.mean, res.post.se]


def trajectory_sha256(method, convention):
    """sha256 of the float64 statistics of one b = inf run on a pinned stream
    with its change at 30 of 60 snapshots."""
    asg = assignment_from_sizes((3, 2), n=8)
    sc = StreamScenario(assignment=asg, sigma=1.0, tau=30, horizon=60, convention=convention)
    if method == EXACT:
        det = DetectorConfig(method=EXACT, b=math.inf, A=build_indicator(asg))
    else:
        det = DetectorConfig(method=method, b=math.inf, m=2, w=5)
    stream = iter_stream(sc, rng=rng_from_key(5, 0))
    stats = np.array([s for _, s in run_detector(stream, det).trajectory], dtype=np.float64)
    return hashlib.sha256(stats.tobytes()).hexdigest()


def file_md5(path):
    return hashlib.md5(Path(path).read_bytes()).hexdigest()


def simulate_md5(convention):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "stream.ndjson")
        argv = [
            "simulate", "--sizes", "5,3", "--nodes", "12", "--sigma", "0.7", "--tau", "20",
            "--horizon", "60", "--seed", "11", "--convention", convention, "--out", out,
        ]
        assert cli.main(argv) == 0
        return file_md5(out)


def detect_file_stream_md5():
    """The detect-file-n100 benchmark's input stream at seed 0."""
    asg = assignment_from_sizes((30, 15), n=100)
    sc = StreamScenario(assignment=asg, sigma=1.0, tau=300, horizon=340, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "stream.ndjson")
        write_stream(iter_stream(sc), out)
        return file_md5(out)


CASES = {
    "oc_exact_n20": lambda: oc_row(EXACT, (2, 1), 50.0, 200),
    "oc_spectral_n20": lambda: oc_row(SPECTRAL, (6, 3), 20.0, 60),
    "criterion_07_b50": criterion_07_b50,
    "calibrate_spectral_upward": calibrate_spectral_upward,
    "equalizer_mc": lambda: verify_equalizer_mc(10, 2, 30, 0.5, 0.5, 300, master_seed=3),
    "drift_mc": drift_mc,
    **{
        f"trajectory_{method}_{convention}": (
            lambda method=method, convention=convention: trajectory_sha256(method, convention)
        )
        for method in (SPECTRAL, TOP1, EXACT)
        for convention in (SYMMETRIC, IID_FULL)
    },
    **{
        f"simulate_{convention}": lambda convention=convention: simulate_md5(convention)
        for convention in (SYMMETRIC, IID_FULL)
    },
    "detect_file_n100_stream": detect_file_stream_md5,
}


def load() -> list:
    return json.loads(GOLDEN.read_text())["entries"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_value(name):
    here = platform()
    pinned = [e for e in load() if e["name"] == name]
    assert pinned, f"golden.json has no entry named {name}"
    match = [e for e in pinned if {k: e[k] for k in here} == here]
    if not match:
        pytest.skip(f"{name} is pinned for other platforms than {here}")
    assert CASES[name]() == match[0]["value"]


def test_every_entry_has_a_case():
    assert {e["name"] for e in load()} <= set(CASES)


if __name__ == "__main__":
    here = platform()
    kept, pinned = [], {}
    for e in load() if GOLDEN.exists() else []:
        if {k: e[k] for k in here} == here:
            pinned[e["name"]] = e["value"]
        else:
            kept.append(e)
    fresh = [{"name": name, **here, "value": CASES[name]()} for name in sorted(CASES)]
    same = 0
    for e in fresh:
        if e["name"] in pinned and pinned[e["name"]] == e["value"]:
            same += 1
        else:
            print(f"{e['name']}: {pinned.get(e['name'])} -> {e['value']}")
    print(f"{same} entries kept their value")
    GOLDEN.write_text(json.dumps({"entries": kept + fresh}, indent=1) + "\n")

"""CUSUM increments, recursions, and the online detection loop.

Three detector variants share one recursion S_t = max(S_{t-1}, 0) + z_t with
S_0 = 0 and alarm at the first t with S_t >= b, and one increment expression
z_t = scale * tr(G_t K_t) - offset with a symmetric kernel K_t:

- exact: z_t = 2 tr(G_t AA^T) - tr((AA^T)^2), using the true indicator matrix
  (the oracle baseline; it needs no noise-level input and stays defined at
  sigma = 0). For iid-full snapshots it equals 2 sigma^2 times the Gaussian
  log-likelihood ratio. For symmetric snapshots each off-diagonal pair
  (i, j), (j, i) is one draw but enters the trace twice, so the pair is
  weighted twice as heavily as in that ratio;
- spectral: z_t = tr(G_t P_t) - d, where P_t projects onto the top-m
  eigenspace of the mean of the w snapshots after t;
- top1: spectral at m = 1, which is z_t = v_t^T G_t v_t - d with v_t the
  leading eigenvector of that mean.

Spectral and top1 score snapshot t only once snapshot t+w has arrived, so the
window never overlaps the scored snapshot and the wall-clock alarm time is the
scored index plus w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .graph_model import GraphSnapshot, IndicatorMatrix, mean_matrix
from .spectral import (
    NumericalError,
    WindowBuffer,
    WindowProjector,
    estimate_subspace,  # noqa: F401  unused; perfbench's tracer wraps detect.estimate_subspace
)

EXACT = "exact"
SPECTRAL = "spectral"
TOP1 = "top1"
METHODS = (EXACT, SPECTRAL, TOP1)


def exact_increment(g: GraphSnapshot, a: IndicatorMatrix) -> float:
    """Scaled likelihood increment 2 tr(G AA^T) - tr((AA^T)^2).

    Being sigma-free it is the form the exact detector accumulates, and it
    is the exact detector's first increment on the one-snapshot stream [g],
    so a non-finite value raises NumericalError. It is 2 sigma^2 times the
    Gaussian log-likelihood ratio for iid-full snapshots only: under the
    symmetric convention each off-diagonal pair counts twice.
    With M = AA^T, the increment before the change is then
    N(-||M||_F^2, 4 sigma^2 (sum_i M_ii^2 + 4 sum_{i<j} M_ij^2)).
    """
    _, inc, _ = next(iter_statistic([g], DetectorConfig(method=EXACT, b=math.inf, A=a)))
    return inc


def cusum_update(prev: float, increment: float) -> float:
    """One step of the clamped recursion: max(prev, 0) + increment."""
    return max(prev, 0.0) + increment


def cusum_maxform(increments: Iterable[float]) -> list[float]:
    """Brute-force max-form statistic: S_t = max over k <= t of sum(z_k..z_t).

    Computed by scanning all candidate change points, independently of the
    recursion, so it can serve as an oracle for the recursive form.
    """
    incs = [float(z) for z in increments]
    stats = []
    for t in range(1, len(incs) + 1):
        best = -math.inf
        acc = 0.0
        for k in range(t - 1, -1, -1):
            acc += incs[k]
            if acc > best:
                best = acc
        stats.append(best)
    return stats


@dataclass(frozen=True)
class DetectorConfig:
    """Configuration of one detector run.

    b is the alarm threshold (statistic >= b stops the run). The spectral and
    top1 methods need a window length w and a drift d; d defaults to m/2, the
    midpoint of the admissible interval (0, m). The exact method needs the
    true indicator matrix A.
    """

    method: str
    b: float
    m: int | None = None
    w: int | None = None
    d: float | None = None
    A: IndicatorMatrix | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not self.b > 0:
            raise ValueError("threshold b must be positive")
        if self.method == EXACT:
            if self.A is None:
                raise ValueError("exact method requires the indicator matrix A")
            return
        if self.method == TOP1:
            object.__setattr__(self, "m", 1)
        if self.m is None or self.m < 1:
            raise ValueError("spectral method requires m >= 1")
        if self.w is None or self.w < 1:
            raise ValueError(f"{self.method} method requires a window length w >= 1")
        if self.d is None:
            object.__setattr__(self, "d", self.m / 2.0)
        if not self.d > 0:
            raise ValueError("drift d must be positive")

    @property
    def lag(self) -> int:
        """Steps between a scored snapshot and the alarm it can raise: 0 for
        exact, which scores each snapshot on arrival; w for the windowed
        methods, which score it once the w snapshots after it have arrived."""
        return 0 if self.method == EXACT else self.w


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one run: wall-clock stop time (None if no alarm within the
    data), the trajectory of (scored index, statistic) pairs, and the config."""

    stop_time: int | None
    trajectory: list[tuple[int, float]]
    config: DetectorConfig


def iter_statistic(stream, config: DetectorConfig) -> Iterator[tuple[int, float, float]]:
    """Yield (scored index, increment, statistic) for each scored snapshot.

    Every method scores scale * tr(G K) - offset; config.lag alone tells
    the exact oracle's fixed kernel AA^T from the windowed methods'
    per-step projector, which a WindowProjector made at the first full
    window computes in arrays this generator alone holds, from a running
    window sum: each call passes it the scored snapshot, the one that left. The generator
    runs the recursion over the whole stream and never stops at config.b;
    run_detector is its consumer that stops there. Exact scores
    each snapshot on arrival; spectral and top1 score a snapshot once the w
    snapshots after it have arrived, so the first w snapshots yield nothing
    and a stream of at most w snapshots yields nothing at all. A non-finite
    window mean or increment, or a failed eigensolve, raises NumericalError:
    it would stop the statistic from alarming. Finite weights can get there
    by overflowing. The generator sets no numpy error state of its own, so a
    caller that wants overflow silenced wraps its loop in np.errstate.
    """
    lag = config.lag
    if lag:
        window = WindowBuffer(lag)
        project = None
        scale, offset = 1.0, config.d
    else:
        kernel = mean_matrix(config.A).ravel()
        scale, offset = 2.0, float(np.dot(kernel, kernel))
    statistic = 0.0
    for snap in stream:
        g = snap
        if lag:
            g = window.push(snap)
            if g is None:
                continue
            try:
                if project is None:
                    project = WindowProjector(g.n, config.m)
                kernel = project(window, g).ravel()
            except (NumericalError, np.linalg.LinAlgError) as err:
                raise NumericalError(f"window after t={g.t}: {err}") from err
        # tr(G K) for symmetric K is the entrywise dot; G need not be symmetric
        try:
            inc = scale * float(np.dot(g.weights.ravel(), kernel)) - offset
        except ValueError:
            # only the exact kernel can mismatch: WindowBuffer holds one shape
            raise ValueError(
                f"snapshot t={g.t} has n={g.n} nodes, but the indicator matrix A "
                f"has {config.A.entries.shape[0]} rows; the community sizes and "
                "node count that build A (--sizes, --nodes) must match the stream"
            ) from None
        if not math.isfinite(inc):
            raise NumericalError(f"non-finite increment {inc} at t={g.t}")
        statistic = cusum_update(statistic, inc)
        yield g.t, inc, statistic


def run_detector(stream, config: DetectorConfig) -> DetectionResult:
    """Run one detector over a snapshot stream until alarm or exhaustion.

    The stream may be any iterable of snapshots; none past the alarm is
    consumed, so a stream cut to length bounds the run. Spectral/top1 runs
    shorter than w+1 snapshots score nothing and return an empty trajectory
    with no alarm. The statistic is iter_statistic's, so its NumericalError
    on data that overflows or goes non-finite propagates from here.
    """
    lag = config.lag
    b = config.b
    stop_time = None
    trajectory: list[tuple[int, float]] = []
    # overflow shows up as a non-finite window mean or increment, which the
    # generator checks and raises on, so numpy need not warn about it first;
    # the state is set here, around the loop, not inside the generator, where
    # each yield would hand the caller the silenced state
    with np.errstate(over="ignore", invalid="ignore"):
        for t, _, statistic in iter_statistic(stream, config):
            trajectory.append((t, statistic))
            if statistic >= b:
                stop_time = t + lag
                break
    return DetectionResult(stop_time=stop_time, trajectory=trajectory, config=config)

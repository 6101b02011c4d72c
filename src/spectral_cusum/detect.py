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
scored index plus w: spectral.window_projections pairs each scored snapshot
with its projector, and iter_statistic scores every method's pairs in one
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .graph_model import IndicatorMatrix, _whole, mean_matrix
from .spectral import (
    NumericalError,
    estimate_subspace,  # noqa: F401  unused; perfbench's tracer wraps detect.estimate_subspace
    window_projections,
)

EXACT = "exact"
SPECTRAL = "spectral"
TOP1 = "top1"
METHODS = (EXACT, SPECTRAL, TOP1)


def cusum_update(prev: float, increment: float) -> float:
    """One step of the clamped recursion: max(prev, 0) + increment."""
    return max(prev, 0.0) + increment


@dataclass(frozen=True)
class DetectorConfig:
    """Configuration of one detector run.

    b is the alarm threshold (statistic >= b stops the run). The spectral and
    top1 methods need a window length w and a finite drift d; d defaults to
    m/2, the midpoint of the admissible interval (0, m). Their m and w must be
    integral (a bool is refused) and are stored as ints. The exact method
    needs the true indicator matrix A.
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
        for name in ("m", "w"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _whole(name, value))
        if self.m is None or self.m < 1:
            raise ValueError("spectral method requires m >= 1")
        if self.w is None or self.w < 1:
            raise ValueError(f"{self.method} method requires a window length w >= 1")
        if self.d is None:
            object.__setattr__(self, "d", self.m / 2.0)
        if not self.d > 0:
            raise ValueError("drift d must be positive")
        if not math.isfinite(self.d):
            raise ValueError(f"drift d must be finite, got {self.d}")

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

    Every method scores scale * tr(G K) - offset over (snapshot, kernel)
    pairs: the exact oracle pairs each snapshot on arrival with its fixed
    kernel AA^T, and the windowed methods take their pairs from
    spectral.window_projections, which scores each snapshot against the
    projector for the w snapshots after it, so a stream of at most w
    snapshots yields nothing, and a snapshot of another shape than the
    window's raises ValueError. The generator runs the recursion over the
    whole stream and never stops at config.b; run_detector is its consumer
    that stops there. A non-finite window mean or increment, or a failed
    eigensolve, raises NumericalError: it would stop the statistic from
    alarming. Finite weights can get there by overflowing. The generator
    sets no numpy error state of its own, so a caller that wants overflow
    silenced wraps its loop in np.errstate.
    """
    if config.lag:
        pairs = window_projections(stream, config.w, config.m)
        scale, offset = 1.0, config.d
    else:
        kernel = mean_matrix(config.A).ravel()
        pairs = zip(stream, repeat(kernel))
        scale, offset = 2.0, float(np.dot(kernel, kernel))
    statistic = 0.0
    for g, kernel in pairs:
        # tr(G K) for symmetric K is the entrywise dot; G need not be symmetric
        try:
            inc = scale * float(np.dot(g.weights.ravel(), kernel.ravel())) - offset
        except ValueError:
            # only the exact kernel can mismatch: the window holds one shape
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
    consumed, so a stream cut to length bounds the run. stop_time is the
    scored t + config.lag: the t of the snapshot whose arrival raised the
    alarm where t steps by 1, and for the exact method, whose lag is 0, at
    any t. Spectral/top1 runs shorter than w+1 snapshots score nothing and
    return an empty trajectory with no alarm. The statistic is
    iter_statistic's, so its NumericalError on data that overflows or goes
    non-finite propagates from here.
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

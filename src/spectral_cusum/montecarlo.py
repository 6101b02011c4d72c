"""Monte Carlo estimation of run lengths and delays, threshold calibration,
operating-characteristic curves, and empirical checks of the design formulas.

Determinism contract: replication i of a plan draws from a generator that is
a pure function of (master seed, i), estimates are reduced in replication
order, and worker processes only change who computes a replication, never
what it draws. Identical plans therefore give bit-identical estimates at any
worker count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat

import numpy as np

from .detect import EXACT, SPECTRAL, DetectorConfig, run_detector
from .graph_model import (
    _CACHE_MAXSIZE,
    IID_FULL,
    SYMMETRIC,
    CommunityAssignment,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    iter_stream,
    mean_matrix,
    rng_from_key,
)
from .spectral import NumericalError
from .theory import ValidityError, drift_for_delta

_CHUNK = 512
_FIRST_PIECE = 16


@dataclass(frozen=True)
class McPlan:
    """One Monte Carlo experiment: a scenario template, a detector, and a budget.

    The scenario's own seed is a template field: replication i draws from the
    generator keyed by (master_seed, i) instead. cap bounds the steps of one
    replication; runs that reach it without alarming are reported as truncated,
    never averaged in as if they had alarmed at cap. An exact detector must
    have the scenario's AA^T: the engine simulates the scenario's oracle.
    """

    scenario: StreamScenario
    detector: DetectorConfig
    replications: int
    cap: int
    master_seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.cap < 1:
            raise ValueError("cap must be at least 1")
        if self.cap <= self.detector.lag:
            raise ValueError("cap must exceed the window length")
        if self.detector.method == EXACT and not np.array_equal(
            mean_matrix(self.detector.A), mean_matrix(build_indicator(self.scenario.assignment))
        ):
            raise ValueError("the exact detector's AA^T differs from the scenario's")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean and standard error over the replications that alarmed."""

    mean: float
    se: float
    used: int
    truncated: int


class CalibrationError(RuntimeError):
    """Threshold calibration could not reach the target run length."""


def _summarize(times: list[float | None]) -> McEstimate:
    alarmed = np.array([t for t in times if t is not None], dtype=float)
    truncated = len(times) - alarmed.size
    if alarmed.size == 0:
        return McEstimate(mean=math.nan, se=math.nan, used=0, truncated=truncated)
    se = float(alarmed.std(ddof=1) / math.sqrt(alarmed.size)) if alarmed.size > 1 else 0.0
    return McEstimate(mean=float(alarmed.mean()), se=se, used=int(alarmed.size), truncated=truncated)


# -- per-replication engines -------------------------------------------------


@lru_cache(maxsize=_CACHE_MAXSIZE)
def _exact_coefficients(assignment: CommunityAssignment, convention: str):
    """Precompute the per-step increment law of the exact detector.

    Under either sampling convention the increment is a linear map of the
    step's Gaussian draws: z_t = 2 (base_t + sigma * (draws . coef)) - offset,
    where base_t is 0 pre-change and tr((AA^T)^2) post-change. Cached, so the
    returned coefficients are read-only.
    """
    mm = mean_matrix(build_indicator(assignment))
    n = mm.shape[0]
    offset = float(np.dot(mm.ravel(), mm.ravel()))
    if convention == SYMMETRIC:
        iu = np.triu_indices(n)
        coef = mm[iu] * np.where(iu[0] == iu[1], 1.0, 2.0)
    else:
        coef = mm.ravel().copy()
    coef.flags.writeable = False
    return coef, offset


def _rep_path(plan: McPlan, rep: int) -> np.ndarray:
    """Statistic path of one replication, up to and including its first
    crossing of plan.detector.b; at b = +inf, the whole path to cap.

    The exact method runs the vectorized engine; the others run the
    snapshot-by-snapshot detector. Entry i is the statistic of scored index
    i + 1, so an alarm on the last entry falls at the path's length plus lag.

    The exact engine draws its increments in growing pieces: _FIRST_PIECE
    rows, then as many rows again as it has drawn so far, up to _CHUNK rows
    a piece. It steps the detector's clamped recursion max(S, 0) + z over
    each piece and stops at the first crossing of b, so a path that stops
    at entry k draws at most max(_FIRST_PIECE, 2(k + 1)) rows. A non-finite
    increment before the crossing raises NumericalError, as in the detector.
    """
    rng = rng_from_key(plan.master_seed, rep)
    if plan.detector.method != EXACT:
        stream = iter_stream(plan.scenario, rng=rng, horizon=plan.cap)
        result = run_detector(stream, plan.detector)
        return np.array([s for _, s in result.trajectory])
    sc = plan.scenario
    coef, offset = _exact_coefficients(sc.assignment, sc.convention)
    b = plan.detector.b
    path: list[float] = []
    statistic = 0.0
    pos = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while pos < plan.cap:
            k = min(max(pos, _FIRST_PIECE), _CHUNK, plan.cap - pos)
            draws = rng.standard_normal((k, coef.size))
            t = np.arange(pos + 1, pos + k + 1)
            base = 0.0 if sc.tau is None else np.where(t > sc.tau, offset, 0.0)
            incs = 2.0 * (base + sc.sigma * (draws @ coef)) - offset
            # a finite sum clears the piece; the search runs only when it
            # fails, and finds nothing if finite increments overflowed it
            bad = k
            if not math.isfinite(incs.sum()):
                bad = next(iter(np.flatnonzero(~np.isfinite(incs))), k)
            for inc in incs[:bad].tolist():
                # detect.cusum_update, inlined: this loop is the engine's hot path
                statistic = (statistic if statistic > 0.0 else 0.0) + inc
                path.append(statistic)
                if statistic >= b:
                    return np.array(path)
            if bad < k:
                raise NumericalError(f"non-finite increment {incs[bad]} at t={pos + bad + 1}")
            pos += k
    return np.array(path)


def _rep_alarm(plan: McPlan, rep: int) -> int | None:
    """Wall-clock alarm time of one replication (None if it hit the cap)."""
    path = _rep_path(plan, rep)
    if path[-1] >= plan.detector.b:
        return path.size + plan.detector.lag
    return None


def _map_reps(fn, plan: McPlan, reps: range, workers: int) -> list:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        return [fn(plan, i) for i in reps]
    chunksize = max(1, len(reps) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, repeat(plan), reps, chunksize=chunksize))


# -- estimates ----------------------------------------------------------------


def estimate_arl(plan: McPlan, workers: int = 1) -> McEstimate:
    """Average run length: mean wall-clock alarm time with no change ever."""
    if plan.scenario.tau is not None:
        raise ValueError("ARL estimation needs a scenario with tau=None (no change)")
    times = _map_reps(_rep_alarm, plan, range(plan.replications), workers)
    return _summarize(times)


def estimate_edd(plan: McPlan, workers: int = 1) -> McEstimate:
    """Expected detection delay: mean wall-clock alarm time with the change at
    the start (the standard worst-case surrogate for this statistic)."""
    if plan.scenario.tau != 0:
        raise ValueError("EDD estimation needs a scenario with tau=0 (immediate change)")
    times = _map_reps(_rep_alarm, plan, range(plan.replications), workers)
    return _summarize(times)


def calibrate_threshold(
    plan: McPlan, target_gamma: float, rel_tol: float = 0.1, workers: int = 1
) -> float:
    """Find the threshold whose average run length matches target_gamma.

    Bisects on the empirically monotone ARL(b), warm-started at ln(gamma);
    the warm start is returned untouched when it already probes within
    rel_tol. Probes read per-replication running maxima of statistic paths
    simulated up to a reach r, the highest threshold probed so far: each path
    stops at its first crossing of r, or at cap if it never crosses. A probe
    at b <= r is exact, because a stopped path's running max ends at or above
    b and so first reaches b where the path run to cap would. A probe above r
    re-simulates the paths at b and makes b the reach; replication i draws
    only from key (seed, i), in time order, so a path stopped sooner is a
    prefix of one stopped later. Runs that never reach b count at cap, which
    keeps the probe curve monotone and conservative. A confirmation pass at
    double budget with fresh replication ids must land within rel_tol of the
    target, with fewer than 1% of its runs truncated.
    """
    if not target_gamma >= 10:
        raise ValueError("target run length must be at least 10")
    if not 0 < rel_tol < 0.5:
        raise ValueError("rel_tol must be in (0, 0.5)")
    if plan.scenario.tau is not None:
        raise ValueError("calibration needs a scenario with tau=None (no change)")
    if plan.cap < 10 * target_gamma:
        raise CalibrationError(
            f"cap {plan.cap} is too small to observe run lengths near "
            f"{target_gamma}: need cap >= 10 * target"
        )
    lag = plan.detector.lag
    reach = -math.inf
    runmaxes: list[np.ndarray] = []

    def probe(b: float) -> float:
        nonlocal reach, runmaxes
        if b > reach:
            at_b = replace(plan, detector=replace(plan.detector, b=b))
            runmaxes = [
                np.maximum.accumulate(p, out=p)
                for p in _map_reps(_rep_path, at_b, range(plan.replications), workers)
            ]
            reach = b
        total = 0.0
        for rm in runmaxes:
            idx = int(np.searchsorted(rm, b, side="left"))
            total += idx + 1 + lag if idx < rm.size else plan.cap
        return total / len(runmaxes)

    def within(value: float) -> bool:
        return abs(value - target_gamma) <= rel_tol * target_gamma

    b0 = math.log(target_gamma)

    def solve(tval: float) -> float:
        """Bisect the cached probe curve to the threshold nearest tval."""
        lo = hi = b0
        value = probe(b0)
        if value < tval:
            for _ in range(80):
                lo, hi = hi, hi * 2.0
                if probe(hi) >= tval:
                    break
            else:
                raise CalibrationError("no threshold reaches the target run length")
        elif value > tval:
            for _ in range(300):
                hi, lo = lo, lo / 2.0
                if probe(lo) <= tval:
                    break
            else:
                raise CalibrationError(
                    "target run length is below the detector's minimum"
                )
        else:
            return b0
        for _ in range(200):
            if hi - lo <= 1e-9 * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            if probe(mid) < tval:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    candidate = b0 if within(probe(b0)) else solve(target_gamma)

    base = plan.replications
    for attempt in range(2):
        ids = range(base, base + 2 * plan.replications)
        base += 2 * plan.replications
        conf_plan = replace(plan, detector=replace(plan.detector, b=candidate))
        times = _map_reps(_rep_alarm, conf_plan, ids, workers)
        est = _summarize(times)
        if est.truncated / len(times) >= 0.01:
            raise CalibrationError(
                f"{est.truncated} of {len(times)} confirmation runs hit the "
                f"cap: increase cap beyond {plan.cap}"
            )
        if within(est.mean):
            return candidate
        if attempt == 1:
            raise CalibrationError(
                f"confirmation run length {est.mean:.4g} missed the target "
                f"{target_gamma} beyond rel_tol={rel_tol}"
            )
        # One retry: shift the probe target by the measured multiplicative
        # bias between the probe curve and the confirmation estimate.
        candidate = solve(target_gamma * target_gamma / est.mean)


@dataclass(frozen=True)
class OcPoint:
    """One operating-characteristic row: target ARL, its threshold, the delay."""

    gamma: float
    b: float
    edd: float
    se: float


def oc_curve(
    plan: McPlan, gamma_list, rel_tol: float = 0.1, workers: int = 1
) -> list[OcPoint]:
    """Calibrate a threshold per target ARL, then estimate the delay at each.

    Replication seeds are shared across rows, so the per-path monotonicity of
    alarm times in b carries over to the curve.
    """
    gammas = [float(g) for g in gamma_list]
    if any(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise ValueError("gamma list must be strictly ascending")
    h0 = replace(plan.scenario, tau=None)
    post = replace(plan.scenario, tau=0)
    rows = []
    for gamma in gammas:
        b = calibrate_threshold(replace(plan, scenario=h0), gamma, rel_tol, workers)
        edd_plan = replace(plan, scenario=post, detector=replace(plan.detector, b=b))
        est = estimate_edd(edd_plan, workers)
        rows.append(OcPoint(gamma=gamma, b=b, edd=est.mean, se=est.se))
    return rows


@dataclass(frozen=True)
class DriftMcResult:
    """Empirical pre/post-change means of the windowed projection statistic."""

    pre: McEstimate
    post: McEstimate


def _first_increments(
    scenario: StreamScenario, cfg: DetectorConfig, replications: int, master_seed: int, offset: int
) -> list[float]:
    """First increment of the windowed statistic in each replication.

    Replication i is _rep_path on key (master_seed, 2i + offset) at cap
    cfg.w + 1: one scored snapshot and the window of cfg.w snapshots
    strictly after it, so the snapshot is independent of its projector. The
    path's one entry is S_1 = 0 + z_1, the increment tr(G P) - cfg.d.
    """
    plan = McPlan(scenario, cfg, replications, cap=cfg.w + 1, master_seed=master_seed)
    reps = range(offset, offset + 2 * replications, 2)
    return [path[0] for path in _map_reps(_rep_path, plan, reps, 1)]


def estimate_drift_mc(
    scenario: StreamScenario, m: int, w: int, replications: int, master_seed: int = 0
) -> DriftMcResult:
    """Measure the pre- and post-change drift of tr(G P) empirically.

    Each replication scores one snapshot against the window after it with
    the spectral detector's own statistic (see _first_increments): tr(G P)
    is the first increment plus the drift d. The scenario's tau is replaced
    internally (no change for the pre phase, immediate change for post).
    """
    cfg = DetectorConfig(method=SPECTRAL, b=math.inf, m=m, w=w)

    def phase(tau, offset: int) -> McEstimate:
        sc = replace(scenario, tau=tau)
        incs = _first_increments(sc, cfg, replications, master_seed, offset)
        return _summarize([inc + cfg.d for inc in incs])

    return DriftMcResult(pre=phase(None, 0), post=phase(0, 1))


def verify_equalizer_mc(
    n: int,
    m: int,
    w: int,
    sigma: float,
    delta: float,
    replications: int,
    master_seed: int = 0,
) -> float:
    """Monte Carlo estimate of the tilted-increment moment
    E[exp(delta (tr(G P) - d))] under no change, with d = drift_for_delta.

    The increments are the spectral detector's own (see _first_increments)
    on an all-background stream of n nodes under the iid-full convention
    (all n^2 entries independent), so the scored snapshot is independent of
    its window. delta = 0 is the degenerate case with value exactly 1. The
    guard delta * sigma * sqrt(2m) <= 1 keeps the exponential moment's Monte
    Carlo variance manageable; violating it warns and refuses.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if w < 1:
        raise ValueError("window length must be at least 1")
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and nonnegative")
    if not 0 <= delta < math.inf:
        raise ValueError("delta must be finite and nonnegative")
    if replications < 1:
        raise ValueError("need at least one replication")
    if delta == 0:
        return 1.0
    guard = delta * sigma * math.sqrt(2 * m)
    if guard > 1:
        warnings.warn(
            f"exponential moment too heavy-tailed for plain Monte Carlo: "
            f"delta*sigma*sqrt(2m) = {guard:.3g} exceeds 1",
            stacklevel=2,
        )
        raise ValidityError(
            f"refusing equalizer check: delta*sigma*sqrt(2m) = {guard:.3g} > 1"
        )
    d = drift_for_delta(delta, sigma, m)
    if sigma == 0:
        return math.exp(-delta * d)
    sc = StreamScenario(
        assignment_from_sizes((), n=n), sigma=sigma, tau=None, horizon=w + 1, convention=IID_FULL
    )
    cfg = DetectorConfig(method=SPECTRAL, b=math.inf, m=m, w=w, d=d)
    incs = _first_increments(sc, cfg, replications, master_seed, 0)
    return float(np.exp(delta * np.array(incs)).mean())

"""Closed-form design formulas for the spectral CUSUM detector.

Everything here is a first-order asymptotic: the o(1) terms are set to zero
and each formula carries an explicit validity domain (positive denominators,
positive tilt, nondegenerate spectrum). Calls outside the domain raise
ValidityError instead of returning extrapolated numbers, because silently
misusing an asymptotic formula is the main failure mode these closed forms
invite. The Monte Carlo module provides the empirical counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_model import CommunityAssignment, IndicatorMatrix, _whole, assignment_from_sizes


class ValidityError(ValueError):
    """A closed-form formula was evaluated outside its validity domain."""


@dataclass(frozen=True)
class Spectrum:
    """Strictly descending, strictly positive eigenvalues of the mean matrix.

    For one-hot community indicators these are the community sizes, which is
    why equal community sizes make the whole closed-form layer inapplicable.
    """

    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", vals)
        if not vals:
            raise ValidityError("spectrum is empty")
        if any(v <= 0 for v in vals):
            raise ValidityError("eigenvalues must be positive")
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise ValidityError(
                "degenerate spectrum: eigenvalues must be strictly descending"
            )

    @property
    def m(self) -> int:
        return len(self.eigenvalues)


def spectrum_from_sizes(sizes: Sequence[int]) -> Spectrum:
    """Spectrum of the mean matrix for the given community sizes.

    Repeated sizes are rejected: the closed forms need distinct eigenvalues.
    (The simulator itself accepts repeated sizes; only this layer refuses.)
    """
    sizes = [_whole("community size", s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("community sizes must be positive")
    if len(set(sizes)) != len(sizes):
        raise ValidityError(
            "degenerate spectrum: community sizes must be strictly distinct "
            "for the closed-form design layer"
        )
    return Spectrum(eigenvalues=tuple(sorted(sizes, reverse=True)))


def coupling_matrix(spec: Spectrum) -> np.ndarray:
    """Pairwise mixing coefficients lambda_i lambda_j / (lambda_i - lambda_j)^2.

    Entry (i, j) measures how strongly window noise mixes eigenvector j into
    eigenvector i; the diagonal is unused and left at zero.
    """
    lam = np.asarray(spec.eigenvalues)
    gap = lam[:, None] - lam[None, :]
    np.fill_diagonal(gap, np.inf)
    return np.outer(lam, lam) / (gap * gap)


def bias_constant(coupling: np.ndarray) -> float:
    """Second-order constant C in the pre/post drift expansion.

    C = sum_i sum_{j != i} ( sum_{k != j} M_ij M_kj + 2 M_ij^2 ); the
    window-mean estimate biases the post-change drift to m - C / w^2. With
    s_j the off-diagonal sum of column j, the triple sum is
    sum_j s_j^2 + 2 ||M_off||_F^2, which is how it is evaluated.
    """
    off = np.array(coupling, dtype=float)
    np.fill_diagonal(off, 0.0)
    s = off.sum(axis=0)
    return float(s @ s + 2.0 * np.sum(off * off))


def bias_bound(coupling: np.ndarray) -> float:
    """Upper bound m (m^2 - 1) max M_ij^2 that the constant C never exceeds."""
    m = coupling.shape[0]
    return m * (m * m - 1) * float(np.max(coupling) ** 2)


def expected_drift_post(m: int, c: float, w: int) -> float:
    """Post-change drift expansion m - C / w^2 for a length-w window.

    May be negative for tiny windows; callers treat that as inadmissible for
    drift selection. Derived at unit scale for the top eigenvalues, so the
    simulator's empirical post-change drift (which approaches the eigenvalue
    sum) is deliberately not equated with this number.
    """
    if w < 1:
        raise ValueError("window length must be at least 1")
    return m - c / (w * w)


def kl_info(a: CommunityAssignment | IndicatorMatrix, sigma: float) -> float:
    """Kullback-Leibler information per snapshot: sum of squared community
    sizes over 2 sigma^2. Only a.sizes is read.

    This is the information of an iid-full snapshot. A symmetric snapshot
    carries each off-diagonal pair once, so its information is smaller.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return sum(s * s for s in a.sizes) / (2.0 * sigma * sigma)


def drift_for_delta(delta: float, sigma: float, m: int) -> float:
    """Drift d = sigma^2 delta / 2 + m / delta paired with the tilt delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return 0.5 * sigma * sigma * delta + m / delta


def equalizer_mgf(delta: float, d: float, sigma: float, m: int) -> float:
    """Design-layer moment value exp(-delta d + sigma^2 delta^2 / 2 + m).

    This is the closed form the drift formula inverts: substituting
    d = drift_for_delta(delta, sigma, m) gives exactly 1.
    """
    return math.exp(-delta * d + 0.5 * sigma * sigma * delta * delta + m)


def delta_star(m: int, c: float, w: int, sigma: float) -> float:
    """Delay-minimizing tilt (m - C/w^2) / sigma^2 for a fixed window."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    drift = expected_drift_post(m, c, w)
    if drift <= 0:
        raise ValidityError(
            f"delta_star undefined: m - C/w^2 = {drift:.6g} is not positive "
            f"(window too short for this spectrum)"
        )
    return drift / (sigma * sigma)


def edd_denominator(delta: float, m: int, c: float, w: int, sigma: float) -> float:
    """Denominator 2 delta (m - C/w^2) - sigma^2 delta^2 - 2m of the spectral
    delay approximation; must be positive for the approximation to apply."""
    drift = expected_drift_post(m, c, w)
    return 2.0 * delta * drift - sigma * sigma * delta * delta - 2.0 * m


def edd_spectral_approx(gamma: float, delta: float, m: int, c: float, w: float, sigma: float) -> float:
    """First-order expected detection delay of the spectral detector.

    2 ln(gamma) / (2 delta (m - C/w^2) - sigma^2 delta^2 - 2m) + w, valid only
    where the denominator is positive.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    denom = edd_denominator(delta, m, c, w, sigma)
    if denom <= 0:
        raise ValidityError(
            f"asymptotic regime invalid for these parameters: delay "
            f"denominator {denom:.6g} is not positive"
        )
    return 2.0 * math.log(gamma) / denom + w


def edd_at_optimal_tilt(gamma: float, m: int, c: float, w: float, sigma: float) -> float:
    """Spectral delay approximation with the tilt already optimized per window:
    2 ln(gamma) / ((m/sigma - C/(sigma w^2))^2 - 2m) + w.

    This is the curve the optimal window minimizes. It is computed as the
    general approximation at the delay-minimizing tilt, whose denominator
    collapses to this square form.
    """
    return edd_spectral_approx(gamma, delta_star(m, c, w, sigma), m, c, w, sigma)


def edd_exact_approx(gamma: float, a: CommunityAssignment | IndicatorMatrix, sigma: float) -> float:
    """First-order expected detection delay of the exact-oracle detector:
    2 sigma^2 ln(gamma) / sum of squared community sizes. Only a.sizes is read.

    This is ln(gamma) / kl_info, which holds for iid-full snapshots, where
    the oracle's increment is 2 sigma^2 times the log-likelihood ratio. Under
    the symmetric convention off-diagonal pairs count twice in the increment
    and this formula is not its delay.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    info = kl_info(a, sigma)
    if info == 0:
        raise ValidityError("all-background assignment carries no signal")
    return math.log(gamma) / info


def _singular_denominator(m: int, sigma: float, what: str) -> float:
    """The denominator m^2/sigma - 2m shared by the window and ratio formulas,
    which both break down where it vanishes (sigma = m/2)."""
    denom = m * m / sigma - 2.0 * m
    if denom == 0:
        raise ValidityError(
            f"{what} undefined at sigma = m/2 = {m / 2}: singular denominator"
        )
    return denom


def optimal_window(gamma: float, m: int, c: float, sigma: float) -> float:
    """Delay-minimizing window length 2 (ln(gamma) m C / (m^2/sigma - 2m)^2)^(1/3)."""
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if c < 0:
        raise ValueError("C must be nonnegative")
    denom = _singular_denominator(m, sigma, "optimal window")
    return 2.0 * (math.log(gamma) * m * c / (denom * denom)) ** (1.0 / 3.0)


def optimal_drift(w_star: float, m: int, c: float, sigma: float) -> float:
    """Drift paired with a chosen window: (m w^2 - C) / (2 w^2) + m w^2 sigma^2 / (m w^2 - C).

    Diverges as m w^2 approaches C from above; values just above the pole are
    honest but enormous. At or below the pole the pairing is meaningless (the
    drift would be negative), so it is rejected.
    """
    gap = m * w_star * w_star - c
    if gap == 0:
        raise ValidityError("optimal drift undefined: m w^2 equals C (pole)")
    if gap < 0:
        raise ValidityError(
            f"optimal drift inadmissible: m w^2 = {m * w_star * w_star:.6g} is "
            f"below C = {c:.6g} (window too short)"
        )
    return gap / (2.0 * w_star * w_star) + m * w_star * w_star * sigma * sigma / gap


def optimality_ratio(gamma: float, m: int, c: float, n: int, sigma: float) -> float:
    """Delay ratio of the spectral detector to the exact oracle.

    1 + ln(gamma)^(-2/3) (m C)^(1/3) n^2 / (m^2/sigma - 2m)^(2/3); approaches
    1 as gamma grows, meaning the spectral detector is first-order optimal.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    denom = _singular_denominator(m, sigma, "optimality ratio")
    return 1.0 + (
        math.log(gamma) ** (-2.0 / 3.0)
        * (m * c) ** (1.0 / 3.0)
        * n
        * n
        / (denom * denom) ** (1.0 / 3.0)
    )


def eigenvector_sampling_covariance(
    spec: Spectrum, eigenvectors: np.ndarray, w: int, i: int
) -> np.ndarray:
    """Asymptotic covariance of the i-th estimated eigenvector (1-based) from
    a w-sample estimate: sum over k != i of (M_ki / w) u_k u_k^T.

    This is the classical sample-covariance fluctuation law: it applies when
    the window estimate is a sample covariance of w independent vectors whose
    population covariance has the given spectrum, and the fluctuation lives
    entirely in the span of the remaining eigenvectors.
    """
    if w < 1:
        raise ValueError("window length must be at least 1")
    u = np.asarray(eigenvectors, dtype=float)
    m = spec.m
    if u.ndim != 2 or u.shape[1] < m:
        raise ValueError(f"need at least {m} eigenvector columns")
    if not 1 <= i <= m:
        raise ValueError(f"need 1 <= i <= m, got i={i}")
    # the coupling's zero diagonal drops the k = i term
    top = u[:, :m]
    return (top * (coupling_matrix(spec)[:, i - 1] / w)) @ top.T


def theory_report(
    sizes: Sequence[int],
    sigma: float,
    gamma: float,
    window: int | None = None,
    n: int | None = None,
) -> dict:
    """Full design report for one parameter set, with per-field validity.

    Fields outside their validity domain carry null values plus a reason in
    the "validity" map; a degenerate spectrum makes nothing computable and
    raises instead. b_design, the threshold ln(gamma) / delta_star, shares
    delta_star's validity. A non-finite sigma or gamma, or an explicit
    window that is not an integer of at least 1, is a usage error.
    """
    for name, value in (("sigma", sigma), ("gamma", gamma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if window is not None:
        window = _whole("window", window)
        if window < 1:
            raise ValueError(f"window length must be at least 1, got {window}")
    spec = spectrum_from_sizes(sizes)
    coupling = coupling_matrix(spec)
    c = bias_constant(coupling)
    m = spec.m
    a = assignment_from_sizes(sizes, n=n)

    report: dict = {
        "sizes": list(a.sizes),
        "sigma": float(sigma),
        "gamma": float(gamma),
        "n": a.n,
        "lambda": list(spec.eigenvalues),
        "M": coupling.tolist(),
        "C": c,
        "I0": kl_info(a, sigma),
        "edd_exact": edd_exact_approx(gamma, a, sigma),
    }
    validity: dict = {}
    unmet = {"window_used": "no window available", "delta_star": "delta_star unavailable"}

    def attempt(field: str, fn, *needs: str):
        """Set field to fn(), or to None with a reason: the first of the
        fields it needs that is None, or fn's ValidityError."""
        try:
            for need in needs:
                if report[need] is None:
                    raise ValidityError(unmet[need])
            value = fn()
        except ValidityError as err:
            report[field] = None
            validity[field] = {"ok": False, "reason": str(err)}
            return None
        report[field] = value
        validity[field] = {"ok": True, "reason": None}
        return value

    w_star = attempt("w_star", lambda: optimal_window(gamma, m, c, sigma))
    if window is None and w_star is not None:
        window = max(1, round(w_star))
    report["window_used"] = window
    delta = attempt("delta_star", lambda: delta_star(m, c, window, sigma), "window_used")
    attempt("d_star", lambda: optimal_drift(window, m, c, sigma), "window_used")
    attempt(
        "edd_spectral",
        lambda: edd_spectral_approx(gamma, delta, m, c, window, sigma),
        "window_used",
        "delta_star",
    )
    # edd_spectral is (ln gamma / delta*) / ((m - C/w^2) - d*) + w
    report["b_design"] = None if delta is None else math.log(gamma) / delta
    validity["b_design"] = dict(validity["delta_star"])
    attempt("ratio", lambda: optimality_ratio(gamma, m, c, a.n, sigma))
    report["validity"] = validity
    return report

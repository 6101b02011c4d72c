"""Tests for the closed-form design layer.

Hand-computed reference values follow each formula's direct evaluation; the
property tests check the calculus facts the formulas encode (inverse pairs,
stationarity at the optimizers, bound tightness).
"""

import hashlib
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from spectral_cusum import (
    Spectrum,
    ValidityError,
    assignment_from_sizes,
    bias_bound,
    bias_constant,
    build_indicator,
    coupling_matrix,
    delta_star,
    drift_for_delta,
    edd_at_optimal_tilt,
    edd_denominator,
    edd_exact_approx,
    edd_spectral_approx,
    eigenvector_sampling_covariance,
    equalizer_mgf,
    expected_drift_post,
    kl_info,
    optimal_drift,
    optimal_window,
    optimality_ratio,
    spectrum_from_sizes,
    theory_report,
    write_report,
)


class TestSpectrum:
    def test_from_sizes_sorts_descending(self):
        assert spectrum_from_sizes((1, 2)).eigenvalues == (2.0, 1.0)
        assert spectrum_from_sizes((12, 6)).eigenvalues == (12.0, 6.0)

    def test_rejects_repeated_sizes(self):
        with pytest.raises(ValidityError, match="degenerate spectrum"):
            spectrum_from_sizes((10, 10, 15))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match="^community sizes must be positive$"):
            spectrum_from_sizes((2, 0))

    @pytest.mark.parametrize("sizes", [(2.7, 1), (2, True), ("2", 1)])
    def test_rejects_a_size_that_is_not_an_integer(self, sizes):
        """(2.7, 1) silently became (2, 1)."""
        bad = next(s for s in sizes if type(s) is not int)
        with pytest.raises(ValueError, match=re.escape(f"community size must be an integer, got {bad!r}")):
            spectrum_from_sizes(sizes)

    def test_rejects_empty_or_unsorted_spectra(self):
        with pytest.raises(ValidityError):
            Spectrum(eigenvalues=())
        with pytest.raises(ValidityError):
            Spectrum(eigenvalues=(1.0, 2.0))
        with pytest.raises(ValidityError):
            Spectrum(eigenvalues=(2.0, -1.0))


def triple_sum_bias(coupling):
    """The bias constant's defining triple sum, evaluated term by term."""
    m = coupling.shape[0]
    total = 0.0
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            inner = 0.0
            for k in range(m):
                if k != j:
                    inner += coupling[i, j] * coupling[k, j]
            total += inner + 2.0 * coupling[i, j] ** 2
    return total


def pairwise_coupling(lam):
    """The coupling matrix filled entry by entry."""
    m = len(lam)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                out[i, j] = lam[i] * lam[j] / (lam[i] - lam[j]) ** 2
    return out


class TestCouplingAndBias:
    @pytest.mark.parametrize(
        "lam,want", [((3.0, 2.0), 6.0), ((12.0, 6.0), 2.0), ((2.0, 1.0), 2.0)]
    )
    def test_pairwise_coupling_values(self, lam, want):
        m = coupling_matrix(Spectrum(eigenvalues=lam))
        assert m[0, 1] == pytest.approx(want, rel=1e-12)
        assert m[1, 0] == pytest.approx(want, rel=1e-12)
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0

    def test_bias_constant_two_community_values(self):
        c36 = bias_constant(coupling_matrix(Spectrum(eigenvalues=(3.0, 2.0))))
        c2 = bias_constant(coupling_matrix(Spectrum(eigenvalues=(12.0, 6.0))))
        assert c36 == pytest.approx(216.0, rel=1e-12)
        assert c2 == pytest.approx(24.0, rel=1e-12)

    def test_bound_is_tight_for_two_communities(self):
        m = coupling_matrix(Spectrum(eigenvalues=(3.0, 2.0)))
        assert bias_constant(m) == pytest.approx(bias_bound(m), rel=1e-12)

    def test_bound_holds_on_random_spectra(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            lam = np.sort(rng.uniform(0.5, 20.0, size=m))[::-1]
            while np.min(np.abs(np.diff(lam))) < 1e-3:
                lam = np.sort(rng.uniform(0.5, 20.0, size=m))[::-1]
            coupling = coupling_matrix(Spectrum(eigenvalues=tuple(lam)))
            assert bias_constant(coupling) <= bias_bound(coupling) * (1 + 1e-12)

    def test_coupling_matches_the_entrywise_twin(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            lam = np.sort(rng.uniform(0.5, 20.0, size=int(rng.integers(1, 7))))[::-1]
            if lam.size > 1 and np.min(np.abs(np.diff(lam))) < 1e-3:
                continue
            got = coupling_matrix(Spectrum(eigenvalues=tuple(lam)))
            np.testing.assert_allclose(got, pairwise_coupling(lam), rtol=1e-12, atol=0)

    def test_bias_constant_matches_the_triple_sum(self):
        """The column-sum form equals the triple sum on any square matrix,
        non-symmetric ones with a non-zero diagonal included: the diagonal
        never enters either."""
        rng = np.random.default_rng(29)
        for trial in range(200):
            m = int(rng.integers(1, 7))
            mat = rng.uniform(0.0, 5.0, size=(m, m))
            if trial % 2:
                mat = mat + mat.T
                np.fill_diagonal(mat, 0.0)
            want = triple_sum_bias(mat)
            assert bias_constant(mat) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestDriftAndInformation:
    def test_expected_drift_post_values(self):
        assert expected_drift_post(2, 24.0, 50) == pytest.approx(1.9904, rel=1e-12)
        assert expected_drift_post(2, 24.0, 10**9) == pytest.approx(2.0, abs=1e-12)
        assert expected_drift_post(2, 24.0, 3) == pytest.approx(2 - 24 / 9, rel=1e-12)
        assert expected_drift_post(2, 24.0, 3) < 0

    def test_kl_info_values(self):
        a = build_indicator(assignment_from_sizes((2, 1)))
        assert kl_info(a, 1.0) == pytest.approx(2.5, rel=1e-12)
        b = build_indicator(assignment_from_sizes((12, 6)))
        assert kl_info(b, 6.0) == pytest.approx(2.5, rel=1e-12)
        zero = build_indicator(assignment_from_sizes((), n=4))
        assert kl_info(zero, 1.0) == 0.0
        with pytest.raises(ValueError):
            kl_info(a, 0.0)

    def test_drift_for_delta_values(self):
        assert drift_for_delta(1.0, 1.0, 2) == pytest.approx(2.5, rel=1e-12)
        assert drift_for_delta(2.0, 0.0, 2) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            drift_for_delta(0.0, 1.0, 2)

    def test_drift_for_delta_minimum(self):
        """The drift is minimized at delta = sqrt(2m)/sigma with value
        sqrt(2m) * sigma."""
        m, sigma = 2, 0.5
        dm = math.sqrt(2 * m) / sigma
        val = drift_for_delta(dm, sigma, m)
        assert val == pytest.approx(math.sqrt(2 * m) * sigma, rel=1e-12)
        assert drift_for_delta(dm * 0.95, sigma, m) > val
        assert drift_for_delta(dm * 1.05, sigma, m) > val


class TestEqualizer:
    def test_closed_form_values(self):
        assert equalizer_mgf(1.0, 0.0, 0.0, 0) == pytest.approx(1.0, rel=1e-12)
        assert equalizer_mgf(1.0, 3.5, 1.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_inverse_pair_identity(self):
        """Feeding the matched drift back into the tilted moment generating
        function gives exactly 1 across the whole admissible grid."""
        for delta in (0.1, 0.5, 1.0, 2.5, 5.0):
            for sigma in (0.1, 0.5, 1.0, 2.0, 3.0):
                for m in (1, 2, 3, 4, 5):
                    d = drift_for_delta(delta, sigma, m)
                    assert equalizer_mgf(delta, d, sigma, m) == pytest.approx(
                        1.0, abs=1e-12
                    )


class TestDeltaStar:
    def test_values(self):
        assert delta_star(2, 24.0, 50, 1.0) == pytest.approx(1.9904, rel=1e-12)
        assert delta_star(2, 24.0, 50, 2.0) == pytest.approx(0.4976, rel=1e-12)

    def test_rejects_inadmissible_windows(self):
        with pytest.raises(ValidityError):
            delta_star(2, 24.0, 3, 1.0)

    def test_maximizes_the_delay_denominator(self):
        m, c, w, sigma = 2, 24.0, 50, 1.0
        ds = delta_star(m, c, w, sigma)
        mid = edd_denominator(ds, m, c, w, sigma)
        assert mid >= edd_denominator(ds - 1e-3, m, c, w, sigma)
        assert mid >= edd_denominator(ds + 1e-3, m, c, w, sigma)


class TestDelayApproximations:
    def test_spectral_delay_chain(self):
        m, c, w, sigma = 2, 24.0, 50, 0.25
        ds = delta_star(m, c, w, sigma)
        assert ds == pytest.approx(31.8464, rel=1e-5)
        denom = edd_denominator(ds, m, c, w, sigma)
        assert denom == pytest.approx(59.38, rel=1e-3)
        edd = edd_spectral_approx(math.exp(10.0), ds, m, c, w, sigma)
        assert edd == pytest.approx(50.337, rel=1e-4)
        assert edd == pytest.approx(20.0 / denom + 50.0, rel=1e-12)

    def test_optimal_tilt_delay_is_the_collapsed_square_form(self):
        gamma = math.exp(10.0)
        for m, c, w, sigma in ((2, 24.0, 50, 0.25), (3, 40.0, 17.5, 0.4), (1, 0.0, 1, 0.1)):
            q = m / sigma - c / (sigma * w * w)
            want = 2.0 * math.log(gamma) / (q * q - 2.0 * m) + w
            got = edd_at_optimal_tilt(gamma, m, c, w, sigma)
            assert got == pytest.approx(want, rel=1e-12)

    def test_optimal_tilt_delay_rejects_windows_below_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            edd_at_optimal_tilt(math.exp(10.0), 2, 24.0, 0.5, 0.25)
        with pytest.raises(ValueError, match="at least 1"):
            edd_spectral_approx(math.exp(10.0), 1.0, 2, 24.0, 0.5, 0.25)

    def test_spectral_delay_outside_the_validity_domain(self):
        m, c, w, sigma = 2, 24.0, 50, 1.2
        ds = delta_star(m, c, w, sigma)
        with pytest.raises(ValidityError):
            edd_spectral_approx(math.exp(10.0), ds, m, c, w, sigma)

    def test_spectral_delay_collapses_to_the_lag_at_small_gamma(self):
        m, c, w, sigma = 2, 24.0, 50, 0.25
        ds = delta_star(m, c, w, sigma)
        edd = edd_spectral_approx(1.0 + 1e-12, ds, m, c, w, sigma)
        assert edd == pytest.approx(50.0, abs=1e-9)

    def test_exact_delay_values(self):
        a21 = build_indicator(assignment_from_sizes((2, 1)))
        assert edd_exact_approx(math.exp(5.0), a21, 1.0) == pytest.approx(2.0, rel=1e-12)
        a126 = build_indicator(assignment_from_sizes((12, 6)))
        assert edd_exact_approx(math.exp(10.0), a126, 6.0) == pytest.approx(4.0, rel=1e-12)
        assert edd_exact_approx(math.exp(0.001), a21, 1.0) == pytest.approx(
            0.0004, rel=1e-9
        )

    def test_exact_delay_rejects_zero_noise_and_zero_signal(self):
        a21 = build_indicator(assignment_from_sizes((2, 1)))
        with pytest.raises(ValueError, match="sigma"):
            edd_exact_approx(math.exp(5.0), a21, 0.0)
        zero = build_indicator(assignment_from_sizes((), n=4))
        with pytest.raises(ValidityError, match="no signal"):
            edd_exact_approx(math.exp(5.0), zero, 1.0)


class TestOptimalWindow:
    def test_value_matches_the_formula(self):
        got = optimal_window(1000.0, 2, 24.0, 0.25)
        want = 2.0 * (math.log(1000.0) * 2 * 24.0 / (2**2 / 0.25 - 2 * 2) ** 2) ** (1 / 3)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.6410, rel=1e-4)

    def test_vanishes_in_the_noiseless_estimation_limit(self):
        assert optimal_window(1000.0, 2, 1e-12, 0.25) < 1e-3

    def test_rejects_the_singular_noise_level(self):
        with pytest.raises(ValidityError):
            optimal_window(1000.0, 2, 24.0, 1.0)

    def test_rejects_gamma_at_or_below_one(self):
        with pytest.raises(ValueError):
            optimal_window(1.0, 2, 24.0, 0.25)


class TestOptimalDrift:
    def test_value(self):
        got = optimal_drift(50.0, 2, 24.0, 1.0)
        want = (2 * 2500 - 24) / 5000 + 2 * 2500 * 1.0 / (2 * 2500 - 24)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.00002, rel=1e-5)

    def test_noiseless_collapse_to_half_m(self):
        assert optimal_drift(7.0, 2, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_pole_and_below_pole_are_rejected(self):
        """m w^2 = C exactly at m = 2, C = 32, w = 4: sqrt(24 / 2)**2 is
        11.999999999999998, which missed the pole for the branch below it."""
        with pytest.raises(ValidityError, match=r"^optimal drift undefined: m w\^2 equals C \(pole\)$"):
            optimal_drift(4.0, 2, 32.0, 1.0)
        with pytest.raises(ValidityError, match=r"inadmissible: m w\^2 = 8 is below C = 32 \(window too short\)"):
            optimal_drift(2.0, 2, 32.0, 1.0)

    def test_diverges_just_above_the_pole(self):
        w = math.sqrt(24.0 / 2.0) * (1 + 1e-9)
        assert optimal_drift(w, 2, 24.0, 1.0) > 1e6


class TestOptimalityRatio:
    def test_value(self):
        got = optimality_ratio(math.exp(8.0), 2, 24.0, 3, 0.25)
        want = 1.0 + 8.0 ** (-2 / 3) * (2 * 24.0) ** (1 / 3) * 9 / 144.0 ** (1 / 3)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.5600, rel=1e-4)

    def test_decreases_toward_one_for_large_gamma(self):
        vals = [
            optimality_ratio(g, 2, 24.0, 3, 0.25)
            for g in (math.exp(8.0), 1e50, 1e300)
        ]
        assert vals[0] > vals[1] > vals[2] > 1.0
        assert vals[2] < 1.08

    def test_zero_nodes_gives_exactly_one(self):
        assert optimality_ratio(math.exp(8.0), 2, 24.0, 0, 0.25) == 1.0


A21 = build_indicator(assignment_from_sizes((2, 1)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kl_info(A21, -1.0), "sigma must be positive"),
        (lambda: edd_spectral_approx(1.0, 31.8, 2, 24.0, 50, 0.25), "gamma must exceed 1"),
        (lambda: edd_exact_approx(0.5, A21, 1.0), "gamma must exceed 1"),
        (lambda: optimal_window(1000.0, 2, 24.0, 0.0), "sigma must be positive"),
        (lambda: optimal_window(1000.0, 2, -1.0, 0.25), "C must be nonnegative"),
        (lambda: optimality_ratio(1.0, 2, 24.0, 3, 0.25), "gamma must exceed 1"),
        (lambda: optimality_ratio(1000.0, 2, 24.0, -1, 0.25), "n must be nonnegative"),
        (lambda: optimality_ratio(1000.0, 2, 24.0, 3, -0.25), "sigma must be positive"),
        (
            lambda: eigenvector_sampling_covariance(Spectrum((3.0, 2.0)), np.eye(3)[:, :1], 40, 1),
            "need at least 2 eigenvector columns",
        ),
    ],
    ids=[
        "kl_info-sigma",
        "edd_spectral-gamma",
        "edd_exact-gamma",
        "optimal_window-sigma",
        "optimal_window-C",
        "ratio-gamma",
        "ratio-n",
        "ratio-sigma",
        "covariance-columns",
    ],
)
def test_inputs_outside_a_formula_are_usage_errors(call, message):
    """Each guard raises a plain ValueError (exit 2 at the CLI), not the
    ValidityError of a formula evaluated outside its asymptotic regime."""
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        call()
    assert err.type is ValueError


class TestEigenvectorSamplingCovariance:
    def test_two_eigenvalue_prediction(self):
        spec = Spectrum(eigenvalues=(3.0, 2.0))
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        cov = eigenvector_sampling_covariance(spec, u, 200, 1)
        np.testing.assert_allclose(cov, (6.0 / 200.0) * np.outer(u[:, 1], u[:, 1]))

    def test_single_eigenvalue_gives_zero(self):
        spec = Spectrum(eigenvalues=(4.0,))
        u = np.array([[1.0], [0.0]])
        np.testing.assert_array_equal(
            eigenvector_sampling_covariance(spec, u, 50, 1), np.zeros((2, 2))
        )

    def test_orthogonal_to_its_own_eigenvector(self):
        spec = Spectrum(eigenvalues=(5.0, 3.0, 1.0))
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        for i in (1, 2, 3):
            cov = eigenvector_sampling_covariance(spec, q, 40, i)
            np.testing.assert_allclose(cov @ q[:, i - 1], np.zeros(6), atol=1e-12)

    def test_matches_the_sum_over_eigenvectors(self):
        spec = Spectrum(eigenvalues=(7.0, 5.0, 3.0, 1.0))
        coupling = coupling_matrix(spec)
        u = np.random.default_rng(5).standard_normal((6, 5))
        for i in (1, 2, 3, 4):
            want = sum(
                (coupling[k, i - 1] / 30) * np.outer(u[:, k], u[:, k])
                for k in range(4)
                if k != i - 1
            )
            got = eigenvector_sampling_covariance(spec, u, 30, i)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_trace_identity(self):
        spec = Spectrum(eigenvalues=(5.0, 3.0, 1.0))
        coupling = coupling_matrix(spec)
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 3)))
        cov = eigenvector_sampling_covariance(spec, q, 40, 2)
        want = (coupling[0, 1] + coupling[2, 1]) / 40.0
        assert float(np.trace(cov)) == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_indices(self):
        spec = Spectrum(eigenvalues=(3.0, 2.0))
        u = np.eye(3)[:, :2]
        with pytest.raises(ValueError):
            eigenvector_sampling_covariance(spec, u, 40, 0)
        with pytest.raises(ValueError):
            eigenvector_sampling_covariance(spec, u, 40, 3)
        with pytest.raises(ValueError):
            eigenvector_sampling_covariance(spec, u, 0, 1)


def finite_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestStationarity:
    def test_delay_is_stationary_at_the_optimal_window(self):
        """At the minimizing window the delay curve's slope is small: the
        optimizer neglects terms of order 1/w^2, so the residual slope is
        bounded by 2 C / w*^2 across a range of target run lengths."""
        m, c, sigma = 2, 24.0, 0.25
        for ln_gamma in (200.0, 350.0, 500.0, 700.0):
            gamma = math.exp(ln_gamma)
            w_star = optimal_window(gamma, m, c, sigma)
            f = lambda w: edd_at_optimal_tilt(gamma, m, c, w, sigma)
            slope = finite_difference(f, w_star, 1e-4 * w_star)
            assert abs(slope) <= 2.0 * c / w_star**2


class TestReport:
    def test_design_chain_is_internally_consistent(self):
        gamma = math.exp(200.0)
        rep = theory_report((12, 6), 0.25, gamma, n=18)
        assert all(v["ok"] for v in rep["validity"].values())
        assert rep["w_star"] == pytest.approx(optimal_window(gamma, 2, 24.0, 0.25))
        w = rep["window_used"]
        assert w == round(rep["w_star"])
        assert rep["delta_star"] == delta_star(2, 24.0, w, 0.25)
        assert rep["d_star"] == optimal_drift(w, 2, 24.0, 0.25)
        assert rep["edd_spectral"] == edd_at_optimal_tilt(gamma, 2, 24.0, w, 0.25)
        assert rep["b_design"] == math.log(gamma) / rep["delta_star"]
        assert rep["delta_star"] > 0 and rep["d_star"] > 0 and rep["edd_spectral"] > w
        assert rep["ratio"] > 1.0

    def test_report_fields_and_validity_flags(self):
        rep = theory_report((12, 6), sigma=0.25, gamma=1000.0)
        assert rep["lambda"] == [12.0, 6.0]
        assert rep["C"] == pytest.approx(24.0, rel=1e-12)
        assert rep["validity"]["w_star"]["ok"] is True
        ws = rep["w_star"]
        assert ws == pytest.approx(optimal_window(1000.0, 2, 24.0, 0.25), rel=1e-12)
        assert rep["window_used"] == round(ws)
        assert type(rep["window_used"]) is int

    def test_report_flags_fields_outside_their_domain(self):
        rep = theory_report((12, 6), sigma=0.25, gamma=1000.0)
        assert rep["validity"]["delta_star"]["ok"] is False
        assert rep["delta_star"] is None
        reason = rep["validity"]["delta_star"]["reason"]
        assert isinstance(reason, str) and reason

    @pytest.mark.parametrize("window", [None, 50])
    def test_design_threshold_follows_delta_star(self, window):
        """b_design = ln gamma / delta*: null with delta_star's reason where
        delta_star is outside its domain (the optimal window of 3 is too
        short at gamma = 1000), and its value at an explicit window of 50."""
        rep = theory_report((12, 6), sigma=0.25, gamma=1000.0, window=window)
        assert rep["validity"]["b_design"] == rep["validity"]["delta_star"]
        if window is None:
            assert rep["b_design"] is None and rep["validity"]["b_design"]["ok"] is False
        else:
            assert rep["b_design"] == math.log(1000.0) / rep["delta_star"]
            assert rep["validity"]["b_design"]["ok"] is True

    def test_report_rejects_degenerate_sizes(self):
        with pytest.raises(ValidityError):
            theory_report((10, 10, 15), sigma=1.0, gamma=100.0)

    def test_report_honors_an_explicit_window(self):
        rep = theory_report((12, 6), sigma=0.25, gamma=1000.0, window=50)
        assert rep["window_used"] == 50 and type(rep["window_used"]) is int
        assert rep["validity"]["delta_star"]["ok"] is True
        assert rep["delta_star"] == pytest.approx(delta_star(2, 24.0, 50, 0.25))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["sigma", "gamma"])
    def test_report_rejects_non_finite_sigma_and_gamma(self, name, value):
        """The sigma <= 0 and gamma <= 1 guards are false for NaN, so without
        this check NaN and inf reach the design formulas."""
        args = {"sigma": 0.25, "gamma": 1000.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite") as err:
            theory_report((12, 6), **args)
        assert not isinstance(err.value, ValidityError)

    @pytest.mark.parametrize("window", [2.5, 3.5, True, "4", math.nan])
    def test_report_rejects_a_window_that_is_not_an_integer(self, window):
        """window = 2.5 was evaluated at 2 for delta_star and at 2.5 for d_star."""
        with pytest.raises(ValueError, match=re.escape(f"window must be an integer, got {window!r}")):
            theory_report((5, 3), sigma=0.25, gamma=500.0, window=window)

    def test_report_evaluates_an_integral_float_window_as_its_int(self):
        at_float = theory_report((12, 6), sigma=0.25, gamma=1000.0, window=50.0)
        assert at_float == theory_report((12, 6), sigma=0.25, gamma=1000.0, window=50)
        assert at_float["window_used"] == 50 and type(at_float["window_used"]) is int

    def test_report_allocates_nothing_of_size_n(self):
        """The report reads only the sizes: three million background nodes
        cost no per-node label and no n x m indicator matrix."""
        tracemalloc.start()
        try:
            rep = theory_report((2, 3_000_000), 1.0, 50.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep["n"] == 3_000_002
        assert peak < 1 << 20

    @pytest.mark.parametrize("window", [0, -5])
    def test_report_rejects_a_window_below_one(self, window):
        with pytest.raises(ValueError, match="at least 1") as err:
            theory_report((12, 6), sigma=0.25, gamma=1000.0, window=window)
        assert not isinstance(err.value, ValidityError)


@pytest.mark.parametrize(
    "sizes, sigma, gamma, window, n, sha256",
    [
        ((5, 3), 0.5, 200.0, None, 10, "b966398545d8df05ebf943e9164ee8f44805cc6e4d8fb6d34172d78203c146e0"),
        ((2,), 1.0, 50.0, 4, 4, "2d6704f4b8b6cad4cde986ccf840f5ddea13b672e893bd72d26fcd2727787056"),
    ],
    ids=["sizes-5-3-n10", "sizes-2-n4-window4"],
)
def test_report_bytes_are_pinned(sizes, sigma, gamma, window, n, sha256):
    """The written report, byte for byte, with background nodes (n above the
    sum of sizes), an optimal window rounded to the int 8, and an explicit
    window written as the int 4."""
    out = io.StringIO()
    write_report(theory_report(sizes, sigma, gamma, window=window, n=n), out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256

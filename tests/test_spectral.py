"""Tests for window buffering, sliding means, and subspace estimation."""

import numpy as np
import pytest

from spectral_cusum import (
    IID_FULL,
    SYMMETRIC,
    GraphSnapshot,
    NumericalError,
    StreamScenario,
    WindowBuffer,
    assignment_from_sizes,
    build_indicator,
    estimate_subspace,
    iter_stream,
    mean_matrix,
    projector,
    rng_from_key,
    sample_snapshot,
    sliding_mean,
    top_m_eigs,
)


def snap(weights, t=1):
    w = np.asarray(weights, dtype=float)
    return GraphSnapshot(t=t, n=w.shape[0], weights=w)


def filled_buffer(matrices):
    buf = WindowBuffer(len(matrices))
    for t, m in enumerate(matrices, start=1):
        buf.push(snap(m, t=t))
    return buf


class TestWindowBuffer:
    def test_fills_then_rolls(self):
        buf = WindowBuffer(2)
        assert not buf.full
        buf.push(snap(np.zeros((2, 2)), t=1))
        buf.push(snap(np.ones((2, 2)), t=2))
        assert buf.full and len(buf) == 2
        buf.push(snap(2 * np.ones((2, 2)), t=3))
        assert [s.t for s in buf.snapshots] == [2, 3]

    def test_push_returns_what_a_full_buffer_evicts_in_arrival_order(self):
        buf = WindowBuffer(2)
        evicted = [buf.push(snap(np.full((2, 2), float(t)), t=t)) for t in range(1, 6)]
        assert evicted[:2] == [None, None]
        assert [g.t for g in evicted[2:]] == [1, 2, 3]
        assert [s.t for s in buf.snapshots] == [4, 5]

    def test_rejects_capacity_below_one(self):
        with pytest.raises(ValueError):
            WindowBuffer(0)

    def test_rejects_mismatched_node_counts(self):
        buf = WindowBuffer(3)
        buf.push(snap(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            buf.push(snap(np.zeros((3, 3))))


class TestSlidingMean:
    def test_averages_entrywise(self):
        buf = filled_buffer([[[0, 1], [1, 0]], [[2, 1], [1, 2]]])
        np.testing.assert_array_equal(sliding_mean(buf), [[1, 1], [1, 1]])

    def test_identical_snapshots_average_to_themselves(self):
        g = mean_matrix(build_indicator(assignment_from_sizes((2, 1))))
        buf = filled_buffer([g, g, g])
        np.testing.assert_allclose(sliding_mean(buf), g, rtol=0, atol=1e-15)

    def test_window_of_one_is_the_snapshot(self):
        m = [[0.5, -1.0], [-1.0, 2.0]]
        np.testing.assert_array_equal(sliding_mean(filled_buffer([m])), m)

    def test_rejects_a_partially_filled_window(self):
        buf = WindowBuffer(3)
        buf.push(snap(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            sliding_mean(buf)

    def test_output_is_bit_symmetric_even_for_asymmetric_input(self):
        rng = rng_from_key(21)
        mats = [rng.standard_normal((5, 5)) for _ in range(4)]
        out = sliding_mean(filled_buffer(mats))
        assert np.array_equal(out, out.T)
        sym = sum((m + m.T) / 2.0 for m in mats) / 4.0
        np.testing.assert_allclose(out, sym, rtol=0, atol=1e-15)


class TestTopMEigs:
    def test_diagonal_matrix(self):
        est = top_m_eigs(np.diag([2.0, 1.0]), 2)
        np.testing.assert_allclose(est.eigenvalues, [2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(est.eigenvectors, np.eye(2), atol=1e-12)

    def test_two_node_exchange_matrix(self):
        est = top_m_eigs([[0.0, 1.0], [1.0, 0.0]], 1)
        np.testing.assert_allclose(est.eigenvalues, [1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(est.eigenvectors[:, 0], [r, r], atol=1e-12)

    def test_block_mean_matrix_spectrum_and_span(self):
        g = mean_matrix(build_indicator(assignment_from_sizes((2, 1))))
        est = top_m_eigs(g, 2)
        np.testing.assert_allclose(est.eigenvalues, [2.0, 1.0], atol=1e-12)
        p = projector(est)
        np.testing.assert_allclose(
            p, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], atol=1e-12
        )

    def test_residual_bound_on_random_matrices(self):
        rng = rng_from_key(33)
        for _ in range(25):
            b = rng.standard_normal((7, 7))
            m = (b + b.T) / 2.0
            est = top_m_eigs(m, 3)
            bound = 1e-8 * max(1.0, float(np.linalg.norm(m)))
            for lam, v in zip(est.eigenvalues, est.eigenvectors.T):
                assert float(np.linalg.norm(m @ v - lam * v)) <= bound

    def test_sign_convention_largest_entry_positive(self):
        rng = rng_from_key(34)
        for _ in range(25):
            b = rng.standard_normal((6, 6))
            est = top_m_eigs((b + b.T) / 2.0, 4)
            for v in est.eigenvectors.T:
                assert v[int(np.argmax(np.abs(v)))] > 0

    def test_columns_are_orthonormal(self):
        b = rng_from_key(35).standard_normal((8, 8))
        est = top_m_eigs((b + b.T) / 2.0, 5)
        gram = est.eigenvectors.T @ est.eigenvectors
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_repeated_calls_are_bit_identical(self):
        b = rng_from_key(36).standard_normal((6, 6))
        m = (b + b.T) / 2.0
        one = top_m_eigs(m, 3)
        two = top_m_eigs(m, 3)
        assert np.array_equal(one.eigenvalues, two.eigenvalues)
        assert np.array_equal(one.eigenvectors, two.eigenvectors)

    def test_rejects_asymmetric_input(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            top_m_eigs(m, 1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_input(self, bad):
        """NaN compares false against the asymmetry tolerance, so without its
        own check a non-finite matrix would reach eigh and return NaN pairs."""
        with pytest.raises(NumericalError, match="non-finite"):
            top_m_eigs([[bad, 1.0], [1.0, 0.0]], 1)
        with pytest.raises(ValueError, match="non-finite"):
            top_m_eigs(np.diag([1.0, bad]), 2)

    def test_rejects_bad_m_and_shape(self):
        with pytest.raises(ValueError):
            top_m_eigs(np.eye(3), 0)
        with pytest.raises(ValueError):
            top_m_eigs(np.eye(3), 4)
        with pytest.raises(ValueError):
            top_m_eigs(np.zeros((2, 3)), 1)


class TestSubspace:
    def test_noiseless_window_recovers_the_projector(self):
        g = mean_matrix(build_indicator(assignment_from_sizes((2, 1))))
        est = estimate_subspace(filled_buffer([g] * 4), 2)
        np.testing.assert_allclose(
            projector(est),
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
            atol=1e-12,
        )

    def test_zero_window_still_yields_a_rank_m_projector(self):
        est = estimate_subspace(filled_buffer([np.zeros((4, 4))] * 3), 2)
        p = projector(est)
        assert float(np.trace(p)) == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(p @ p, p, atol=1e-8)

    def test_projector_invariants_on_noisy_windows(self):
        sc = StreamScenario(
            assignment=assignment_from_sizes((3, 2), n=6),
            sigma=0.7,
            tau=0,
            horizon=5,
            seed=2,
        )
        buf = WindowBuffer(5)
        for s in iter_stream(sc):
            buf.push(s)
        est = estimate_subspace(buf, 2)
        p = projector(est)
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-8)
        assert float(np.trace(p)) == pytest.approx(2.0, abs=1e-8)
        gram = est.eigenvectors.T @ est.eigenvectors
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_estimated_projector_concentrates_at_low_noise(self):
        """With sigma = 0.1 and a 50-snapshot window the estimated projector
        lands within 0.1 of the truth in Frobenius norm in at least 95% of
        200 independent replications."""
        asg = assignment_from_sizes((12, 6))
        truth = projector(top_m_eigs(mean_matrix(build_indicator(asg)), 2))
        sc = StreamScenario(assignment=asg, sigma=0.1, tau=0, horizon=50, seed=0)
        hits = 0
        for rep in range(200):
            buf = WindowBuffer(50)
            for s in iter_stream(sc, rng=rng_from_key(101, rep)):
                buf.push(s)
            p = projector(estimate_subspace(buf, 2))
            if float(np.linalg.norm(p - truth)) <= 0.1:
                hits += 1
        assert hits >= 190

"""Tests for window buffering, sliding means, and subspace estimation."""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cusum import (
    IID_FULL,
    SPECTRAL,
    SYMMETRIC,
    DetectorConfig,
    GraphSnapshot,
    NumericalError,
    StreamScenario,
    WindowBuffer,
    WindowProjector,
    assignment_from_sizes,
    build_indicator,
    estimate_subspace,
    iter_stream,
    mean_matrix,
    projector,
    rng_from_key,
    run_detector,
    sample_snapshot,
    sliding_mean,
    spectral,
    top_m_eigs,
)


def snap(weights, t=1):
    w = np.asarray(weights, dtype=float)
    return GraphSnapshot(t=t, weights=w)


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

    def test_rejects_a_shape_change_at_the_same_node_count(self):
        """Weights of shape (2, 2) and (2, 3) would both give n = 2; a
        snapshot must be square, so the (2, 3) one fails where it is built,
        before any run could reach a numpy broadcast inside the window sum."""
        with pytest.raises(ValueError, match=r"square 2-D array, got shape \(2, 3\)"):
            snap(np.zeros((2, 3)), t=3)


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


def stacked_mean(buffer):
    """sliding_mean's slow twin: stack the window, reduce it, symmetrize."""
    acc = np.add.reduce([snap.weights for snap in buffer.snapshots])
    return (acc + acc.T) / (2.0 * buffer.capacity)


@pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
@pytest.mark.parametrize("n, w", [(3, 1), (8, 2), (20, 7), (100, 4)])
def test_sliding_mean_matches_the_stacked_reduce_bit_for_bit(convention, n, w):
    """Every window a rolling buffer holds over 30 snapshots, noisy about a
    block mean; iid-full snapshots are asymmetric."""
    mean = 3.0 * mean_matrix(build_indicator(assignment_from_sizes((n // 2, 1), n=n)))
    rng = rng_from_key(40, 100 * n + w)
    buf = WindowBuffer(w)
    for t in range(1, 31):
        buf.push(sample_snapshot(mean, 0.7, convention, rng, t=t))
        if buf.full:
            assert np.array_equal(sliding_mean(buf), stacked_mean(buf))


def eigh_top(matrix, m):
    """top_m_eigs on the np.linalg.eigh fallback."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_DSYEVR", None)
        return top_m_eigs(matrix, m)


def symmetric_matrices(n, seed, repeated):
    rng = rng_from_key(50, seed)
    if repeated:
        # a few distinct eigenvalues, each repeated, in a random basis
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.integers(-2, 3, size=n).astype(float)
        m = (q * lam) @ q.T
    else:
        m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
    return (m + m.T) / 2.0


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    m_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    repeated=st.booleans(),
)
def test_dsyevr_agrees_with_eigh(n, m_frac, seed, repeated):
    """Eigenvalues agree within tol = 64 n eps max(1, ||M||_F); where the gap
    lambda_m - lambda_{m+1} exceeds 1e-6 max(1, ||M||_F) (always at m = n),
    the projectors agree within tol / gap (Davis-Kahan). At m = n every
    eigenvalue is compared."""
    if spectral._DSYEVR is None:
        pytest.skip("numpy's bundled OpenBLAS exports no LAPACKE_dsyevr here")
    m = 1 + min(n - 1, int(m_frac * n))
    matrix = symmetric_matrices(n, seed, repeated)
    scale = max(1.0, float(np.linalg.norm(matrix)))
    tol = 64 * n * np.finfo(float).eps * scale
    fast = top_m_eigs(matrix, m)
    slow = eigh_top(matrix, m)
    assert fast.eigenvalues.shape == slow.eigenvalues.shape == (m,)
    assert np.max(np.abs(fast.eigenvalues - slow.eigenvalues)) <= tol
    every = np.linalg.eigvalsh(matrix)[::-1]
    gap = scale if m == n else float(every[m - 1] - every[m])
    if gap > 1e-6 * scale:
        diff = projector(fast) - projector(slow)
        assert float(np.linalg.norm(diff)) <= tol / gap


class TestSolverBinding:
    @pytest.fixture
    def libdir(self, tmp_path, monkeypatch):
        """An empty directory the loader globs in place of numpy's libraries."""
        monkeypatch.setattr(spectral, "_OPENBLAS_GLOB", str(tmp_path / "libscipy_openblas64_*.so"))
        return tmp_path

    def test_loader_returns_none_without_the_library(self, libdir):
        assert spectral._load_dsyevr() is None

    def test_loader_returns_none_when_the_library_fails_to_load(self, libdir):
        (libdir / "libscipy_openblas64_-0.so").write_bytes(b"not a shared object")
        assert spectral._load_dsyevr() is None

    def test_loader_returns_none_without_the_symbol(self, libdir, monkeypatch):
        (libdir / "libscipy_openblas64_-0.so").write_bytes(b"")
        monkeypatch.setattr(spectral.ctypes, "CDLL", lambda path: object())
        assert spectral._load_dsyevr() is None

    @pytest.mark.parametrize("info", [1, -6])
    def test_failed_solve_is_a_numerical_error_in_the_detector(self, info, monkeypatch):
        """The dsyevr twin of test_eigensolver_failure_is_a_numerical_error:
        a nonzero info is a failed eigensolve, even with every pair found."""

        def failing(*args):
            # LAPACKE_dsyevr_work's layout: n at 4, il and iu at 9 and 10, the
            # m-found pointer at 12, work, lwork, iwork at 17 to 19
            n = args[4]
            if args[18] == -1:  # the workspace query: LAPACK's minimum sizes
                ctypes.c_double.from_address(args[17]).value = 26 * n
                ctypes.c_int64.from_address(args[19]).value = 10 * n
                return 0
            ctypes.c_int64.from_address(args[12]).value = args[10] - args[9] + 1
            return info

        monkeypatch.setattr(spectral, "_DSYEVR", failing)
        sc = StreamScenario(
            assignment=assignment_from_sizes((3, 2), n=8), sigma=1.0, tau=0, horizon=12, seed=3
        )
        cfg = DetectorConfig(method=SPECTRAL, b=np.inf, m=2, w=5)
        with pytest.raises(NumericalError, match="window after t=1: dsyevr failed") as err:
            run_detector(iter_stream(sc), cfg)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_too_few_pairs_found_is_a_failed_solve(self, monkeypatch):
        monkeypatch.setattr(spectral, "_DSYEVR", lambda *args: 0)
        with pytest.raises(np.linalg.LinAlgError, match="found 0 of 2"):
            top_m_eigs(np.eye(3), 2)


@pytest.mark.usefixtures("solver")
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

    @pytest.mark.parametrize("n, m", [(8, 5), (10, 8), (8, 8), (12, 9)])
    def test_columns_are_orthonormal(self, n, m):
        """m = 8 puts the columns 64 bytes apart, where numpy 2.4.6's in-place
        np.negative on a column view reads the wrong entries."""
        b = rng_from_key(35).standard_normal((n, n))
        est = top_m_eigs((b + b.T) / 2.0, m)
        gram = est.eigenvectors.T @ est.eigenvectors
        np.testing.assert_allclose(gram, np.eye(m), atol=1e-10)

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


def check_against_twin(snaps, n, m, w):
    """Drive a WindowProjector over a rolling buffer of snaps as
    iter_statistic does: from the first eviction on, told what left.

    On its first call and every w-th call after it the kernel must give
    projector(estimate_subspace(buf, m)) bit for bit. In between, the two
    may differ by at most (64 n + 4 w) eps max(1, S) / gap in Frobenius
    norm, where S is the largest ||M||_F of the window means since the last
    such call and gap is lambda_m - lambda_{m+1} of this window's mean M:
    the solver tests' Davis-Kahan form, with 4 w eps for the running sum's
    roundings. Returns, per call, whether the two agreed bit for bit.
    """
    eps = np.finfo(float).eps
    project, buf = WindowProjector(n, m), WindowBuffer(w)
    same = []
    for s in snaps:
        left = buf.push(s)
        if left is None:
            continue
        got = project(buf, left)
        want = projector(estimate_subspace(buf, m))
        mean = sliding_mean(buf)
        if len(same) % w == 0:
            assert np.array_equal(got, want)
            scale = max(1.0, float(np.linalg.norm(mean)))
        else:
            scale = max(scale, float(np.linalg.norm(mean)))
            every = np.linalg.eigvalsh(mean)[::-1]
            gap = scale if m == n else float(every[m - 1] - every[m])
            if gap > 1e-6 * scale:
                tol = (64 * n + 4 * w) * eps * scale
                assert float(np.linalg.norm(got - want)) <= tol / gap
        same.append(bool(np.array_equal(got, want)))
    return same


def noisy_block_stream(n, convention, key, horizon):
    mean = 2.0 * mean_matrix(build_indicator(assignment_from_sizes((4, 3, 2), n=n)))
    rng = rng_from_key(*key)
    return [sample_snapshot(mean, 0.8, convention, rng, t=t) for t in range(1, horizon + 1)]


@pytest.mark.usefixtures("solver")
class TestWindowProjector:
    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("m", [1, 2, 8, 12])
    @pytest.mark.parametrize("w", [1, 4])
    def test_running_sum_tracks_the_slow_twin(self, convention, m, w):
        """check_against_twin's bounds on a noisy stream at n = 12. At
        w = 1 every call is a re-sum, so every call is bit for bit; at
        w = 4 the running calls differ from the twin in their last bits."""
        snaps = noisy_block_stream(12, convention, (61, 10 * m + w), 30)
        same = check_against_twin(snaps, 12, m, w)
        assert len(same) == 30 - w
        assert all(same) == (w == 1)

    def test_a_spike_that_left_is_gone_at_the_next_re_sum(self):
        """A 1e12 weight enters a window of unit-scale snapshots at call 8
        and leaves it at call 13, between the re-sums at calls 11 and 16
        (w = 5). After it leaves, the running sum still carries roundings
        of its scale, within check_against_twin's bound for the windows
        since call 11; from call 16 the kernel gives the twin's bits."""
        n, m, w = 12, 2, 5
        snaps = noisy_block_stream(n, SYMMETRIC, (62,), 30)
        spiked = snaps[12].weights.copy()
        spiked[0, 1] += 1e12
        spiked[1, 0] += 1e12
        snaps[12] = GraphSnapshot(t=13, weights=spiked)
        same = check_against_twin(snaps, n, m, w)
        assert not same[12]
        assert same[15]

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("m", [1, 2, 8, 12])
    def test_matches_the_slow_twin_bit_for_bit(self, convention, m):
        """Not told what left, the kernel re-sums every window, so it gives
        projector(estimate_subspace(buf, m)) on every window of a rolling
        buffer, at m = n = 12 and at m = 8, where numpy 2.4.6's column-view
        negation broke the sign fix the kernel no longer makes."""
        n, w = 12, 4
        mean = 2.0 * mean_matrix(build_indicator(assignment_from_sizes((4, 3, 2), n=n)))
        rng = rng_from_key(60, m)
        project = WindowProjector(n, m)
        buf = WindowBuffer(w)
        for t in range(1, 21):
            buf.push(sample_snapshot(mean, 0.8, convention, rng, t=t))
            if buf.full:
                assert np.array_equal(project(buf), projector(estimate_subspace(buf, m)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_window_is_a_numerical_error(self, bad):
        weights = np.zeros((3, 3))
        weights[0, 2] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            WindowProjector(3, 1)(filled_buffer([np.eye(3), weights]))

    def test_rejects_bad_m(self):
        for m in (0, 4):
            with pytest.raises(ValueError, match="need 1 <= m <= n"):
                WindowProjector(3, m)

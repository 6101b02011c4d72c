"""Tests for community assignments, indicator matrices, and snapshot streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cusum import (
    BACKGROUND,
    IID_FULL,
    SYMMETRIC,
    CommunityAssignment,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    iter_stream,
    make_stream,
    mean_matrix,
    rng_from_key,
    graph_model,
    sample_snapshot,
    top_m_eigs,
)


def test_rng_from_key_is_reproducible():
    a = rng_from_key(7, 3).standard_normal(16)
    b = rng_from_key(7, 3).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_are_distinct():
    a = rng_from_key(7, 0).standard_normal(16)
    b = rng_from_key(7, 1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_rng_key_wraps_modulo_64_bits():
    a = rng_from_key(5 + (1 << 64), 0).standard_normal(4)
    b = rng_from_key(5, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)


class TestAssignment:
    def test_from_sizes_layout(self):
        asg = assignment_from_sizes((2, 1))
        assert asg.n == 3
        assert asg.m == 2
        assert asg.labels == (1, 1, 2)

    def test_from_sizes_with_background(self):
        asg = assignment_from_sizes((2, 1), n=5)
        assert asg.labels == (1, 1, 2, BACKGROUND, BACKGROUND)

    def test_all_background_needs_explicit_n(self):
        asg = assignment_from_sizes((), n=4)
        assert asg.m == 0
        assert asg.labels == (BACKGROUND,) * 4
        with pytest.raises(ValueError):
            assignment_from_sizes(())

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            assignment_from_sizes((2, 0))

    def test_rejects_n_smaller_than_total(self):
        with pytest.raises(ValueError):
            assignment_from_sizes((2, 2), n=3)

    def test_rejects_empty_community(self):
        with pytest.raises(ValueError, match="empty"):
            CommunityAssignment(n=3, m=2, labels=(1, 1, 1))

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError):
            CommunityAssignment(n=2, m=1, labels=(1, 3))

    def test_rejects_wrong_label_count(self):
        with pytest.raises(ValueError):
            CommunityAssignment(n=3, m=1, labels=(1, 1))


class TestIndicator:
    def test_two_communities(self):
        a = build_indicator(CommunityAssignment(n=3, m=2, labels=(1, 1, 2)))
        np.testing.assert_array_equal(a.entries, [[1, 0], [1, 0], [0, 1]])
        assert a.sizes == (2, 1)

    def test_single_node(self):
        a = build_indicator(CommunityAssignment(n=1, m=1, labels=(1,)))
        np.testing.assert_array_equal(a.entries, [[1.0]])

    def test_background_row_is_zero(self):
        a = build_indicator(CommunityAssignment(n=3, m=2, labels=(1, BACKGROUND, 2)))
        np.testing.assert_array_equal(a.entries, [[1, 0], [0, 0], [0, 1]])

    def test_mean_matrix_blocks(self):
        a = build_indicator(assignment_from_sizes((2, 1)))
        np.testing.assert_array_equal(
            mean_matrix(a), [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        )

    def test_mean_matrix_all_background_is_zero(self):
        a = build_indicator(assignment_from_sizes((), n=3))
        np.testing.assert_array_equal(mean_matrix(a), np.zeros((3, 3)))

    def test_mean_matrix_trace_counts_member_nodes(self):
        a = build_indicator(assignment_from_sizes((3, 2), n=8))
        assert np.trace(mean_matrix(a)) == 5.0


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    extra=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_gram_trace_equals_sum_of_squared_sizes(sizes, extra):
    """tr((AA^T)^2) equals the sum of squared community sizes."""
    a = build_indicator(assignment_from_sizes(sizes, n=sum(sizes) + extra))
    g = mean_matrix(a)
    assert np.trace(g @ g) == pytest.approx(sum(s * s for s in sizes), rel=1e-12)


@pytest.mark.parametrize("sizes", [(2, 1), (3, 2, 1), (4,), (3, 1)])
def test_mean_matrix_eigenvalues_are_the_sizes(sizes):
    """The nonzero spectrum of AA^T is exactly the community sizes."""
    n = sum(sizes) + 1
    a = build_indicator(assignment_from_sizes(sizes, n=n))
    est = top_m_eigs(mean_matrix(a), n)
    want = np.zeros(n)
    want[: len(sizes)] = sorted(sizes, reverse=True)
    np.testing.assert_allclose(est.eigenvalues, want, atol=1e-9)


class TestSampleSnapshot:
    def test_zero_noise_returns_the_mean(self):
        a = build_indicator(assignment_from_sizes((2, 1)))
        snap = sample_snapshot(mean_matrix(a), 0.0, SYMMETRIC, rng_from_key(0), t=4)
        np.testing.assert_array_equal(snap.weights, mean_matrix(a))
        assert snap.t == 4 and snap.n == 3

    def test_symmetric_convention_is_bit_exact(self):
        snap = sample_snapshot(np.zeros((6, 6)), 1.0, SYMMETRIC, rng_from_key(3))
        assert np.array_equal(snap.weights, snap.weights.T)

    def test_iid_full_convention_breaks_symmetry(self):
        snap = sample_snapshot(np.zeros((6, 6)), 1.0, IID_FULL, rng_from_key(3))
        assert not np.array_equal(snap.weights, snap.weights.T)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            sample_snapshot(np.zeros((2, 2)), -1.0, SYMMETRIC, rng_from_key(0))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        """NaN slipped past a bare sigma < 0 check and drew NaN weights."""
        with pytest.raises(ValueError, match="finite"):
            sample_snapshot(np.zeros((2, 2)), sigma, SYMMETRIC, rng_from_key(0))

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError):
            sample_snapshot(np.zeros((2, 2)), 1.0, "upper", rng_from_key(0))

    def test_rejects_nonsquare_mean(self):
        with pytest.raises(ValueError):
            sample_snapshot(np.zeros((2, 3)), 1.0, SYMMETRIC, rng_from_key(0))

    def test_empirical_moments_match_the_model(self):
        """Mean and variance of many unit-noise draws sit near 0 and 1.

        5000 snapshots on 20 nodes give a per-entry standard error of about
        0.014 for the mean; the variance is pooled over the whole upper
        triangle, so its standard error is far below the band width.
        """
        n, reps = 20, 5000
        rng = rng_from_key(13)
        iu = np.triu_indices(n)
        total = np.zeros((n, n))
        sq = []
        for _ in range(reps):
            w = sample_snapshot(np.zeros((n, n)), 1.0, SYMMETRIC, rng).weights
            total += w
            sq.append(w[iu])
        mean = total / reps
        assert float(np.abs(mean).max()) <= 0.05
        pooled = float(np.var(np.array(sq), ddof=1))
        assert 0.95 <= pooled <= 1.05


class TestStream:
    def scenario(self, **kw):
        base = dict(
            assignment=assignment_from_sizes((2, 1)),
            sigma=1.0,
            tau=2,
            horizon=5,
            seed=9,
        )
        base.update(kw)
        return StreamScenario(**base)

    def test_time_indices_start_at_one(self):
        snaps = make_stream(self.scenario())
        assert [s.t for s in snaps] == [1, 2, 3, 4, 5]

    def test_tau_zero_means_every_snapshot_is_post_change(self):
        snaps = make_stream(self.scenario(sigma=0.0, tau=0))
        want = mean_matrix(build_indicator(assignment_from_sizes((2, 1))))
        for s in snaps:
            np.testing.assert_array_equal(s.weights, want)

    def test_tau_none_means_the_change_never_happens(self):
        snaps = make_stream(self.scenario(sigma=0.0, tau=None))
        for s in snaps:
            np.testing.assert_array_equal(s.weights, np.zeros((3, 3)))

    def test_change_point_splits_pre_and_post(self):
        snaps = make_stream(self.scenario(sigma=0.0))
        want = mean_matrix(build_indicator(assignment_from_sizes((2, 1))))
        np.testing.assert_array_equal(snaps[1].weights, np.zeros((3, 3)))
        np.testing.assert_array_equal(snaps[2].weights, want)

    def test_same_seed_reproduces_the_stream_bit_for_bit(self):
        one = make_stream(self.scenario())
        two = make_stream(self.scenario())
        for s1, s2 in zip(one, two):
            assert np.array_equal(s1.weights, s2.weights)

    def test_longer_horizon_extends_without_changing_the_prefix(self):
        short = make_stream(self.scenario(horizon=3))
        long = make_stream(self.scenario(horizon=7))
        for s1, s2 in zip(short, long):
            np.testing.assert_array_equal(s1.weights, s2.weights)

    def test_explicit_rng_overrides_the_scenario_seed(self):
        sc = self.scenario()
        via_key = list(iter_stream(sc, rng=rng_from_key(sc.seed, 0)))
        via_seed = make_stream(sc)
        for s1, s2 in zip(via_key, via_seed):
            np.testing.assert_array_equal(s1.weights, s2.weights)

    def test_rejects_bad_scenarios(self):
        with pytest.raises(ValueError):
            self.scenario(horizon=0)
        with pytest.raises(ValueError):
            self.scenario(sigma=-0.5)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                self.scenario(sigma=sigma)
        with pytest.raises(ValueError):
            self.scenario(tau=-1)
        with pytest.raises(ValueError):
            self.scenario(convention="lower")


def one_draw_per_snapshot(scenario, rng, horizon):
    """iter_stream's slow twin: the per-snapshot draw the block drawer
    replaced. Each step draws its own standard_normal(d) (the (n, n) array
    under iid-full) and scatters it into an array of its own."""
    post = mean_matrix(build_indicator(scenario.assignment))
    n = post.shape[0]
    iu = np.triu_indices(n)
    out = []
    for t in range(1, horizon + 1):
        mean = post if scenario.tau is not None and t > scenario.tau else np.zeros((n, n))
        if scenario.sigma == 0:
            w = mean.copy()
        elif scenario.convention == SYMMETRIC:
            vals = mean[iu] + scenario.sigma * rng.standard_normal(iu[0].size)
            w = np.empty((n, n))
            w[iu] = vals
            w.T[iu] = vals
        else:
            w = mean + scenario.sigma * rng.standard_normal((n, n))
        out.append((t, w))
    return out


def test_blocks_hold_sixteen_snapshots_at_n20_and_one_at_n100():
    """The sizes the twin test below relies on: at most 16 rows and 64 KB."""
    assert graph_model._block_rows(20) == 16
    assert graph_model._block_rows(100) == 1
    assert graph_model._block_rows(1) == 16


@pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
@pytest.mark.parametrize("sigma", [0.0, 0.8])
@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("tau", [None, 0, 7, 16], ids=["never", "0", "in-block", "boundary"])
@pytest.mark.parametrize("horizon", [1, 15, 16, 17, 40])
def test_block_draws_match_one_draw_per_snapshot(convention, sigma, n, tau, horizon):
    """Bit for bit, with the generator left where the twin leaves it: a
    block never draws past the horizon."""
    sc = StreamScenario(
        assignment=assignment_from_sizes((n // 2, 3), n=n),
        sigma=sigma, tau=tau, horizon=horizon, seed=17, convention=convention,
    )
    rng, twin_rng = rng_from_key(17, n), rng_from_key(17, n)
    got = list(iter_stream(sc, rng=rng))
    want = one_draw_per_snapshot(sc, twin_rng, horizon)
    assert [s.t for s in got] == [t for t, _ in want]
    for snap, (_, w) in zip(got, want):
        assert np.array_equal(snap.weights, w)
    assert rng.standard_normal() == twin_rng.standard_normal()


@pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_sample_snapshot_is_the_one_row_draw(convention, sigma):
    sc = StreamScenario(
        assignment=assignment_from_sizes((3, 2), n=7),
        sigma=sigma, tau=4, horizon=9, seed=0, convention=convention,
    )
    post = mean_matrix(build_indicator(sc.assignment))
    rng = rng_from_key(18)
    for t, w in one_draw_per_snapshot(sc, rng_from_key(18), sc.horizon):
        mean = post if t > sc.tau else np.zeros_like(post)
        snap = sample_snapshot(mean, sigma, convention, rng, t=t)
        assert snap.t == t and np.array_equal(snap.weights, w)

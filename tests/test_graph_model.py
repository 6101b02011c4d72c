"""Tests for community assignments, indicator matrices, and snapshot streams."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cusum import (
    IID_FULL,
    SYMMETRIC,
    CommunityAssignment,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    iter_stream,
    mean_matrix,
    rng_from_key,
    graph_model,
)
from spectral_cusum.spectral import top_m_eigs
from twins import indicator_from_labels


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
        assert asg == CommunityAssignment(sizes=(2, 1), n=3)
        assert asg.m == 2

    def test_from_sizes_with_background(self):
        asg = assignment_from_sizes((2, 1), n=5)
        assert (asg.sizes, asg.n, asg.m) == ((2, 1), 5, 2)

    def test_all_background_needs_explicit_n(self):
        asg = assignment_from_sizes((), n=4)
        assert (asg.sizes, asg.n, asg.m) == ((), 4, 0)
        with pytest.raises(ValueError, match="^an all-background assignment needs an explicit n$"):
            assignment_from_sizes(())

    def test_rejects_nonpositive_sizes(self):
        for n in (None, 5):
            with pytest.raises(ValueError, match="^community sizes must be positive integers$"):
                assignment_from_sizes((2, 0), n=n)

    def test_rejects_n_smaller_than_total(self):
        with pytest.raises(ValueError, match="^n=3 is smaller than the sum of sizes 4$"):
            assignment_from_sizes((2, 2), n=3)
        with pytest.raises(ValueError, match="^n=0 is smaller than the sum of sizes 1$"):
            CommunityAssignment(sizes=(1,), n=0)

    def test_rejects_n_below_one(self):
        """Without communities n = 0 is not smaller than the sum of sizes;
        a negative n still is, and keeps that message."""
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            assignment_from_sizes((), n=0)
        with pytest.raises(ValueError, match="^n=-2 is smaller than the sum of sizes 0$"):
            assignment_from_sizes((), n=-2)

    @pytest.mark.parametrize("sizes, n", [((2.7, 1), None), ((2.7, 1), 4), ((2, True), 4), (("2", 1), 4)])
    def test_rejects_a_size_that_is_not_an_integer(self, sizes, n):
        """(2.7, 1) silently became (2, 1)."""
        bad = next(s for s in sizes if type(s) is not int)
        with pytest.raises(ValueError, match=re.escape(f"community size must be an integer, got {bad!r}")):
            assignment_from_sizes(sizes, n=n)

    @pytest.mark.parametrize("n", [4.5, True, "4", None])
    def test_rejects_an_n_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            CommunityAssignment(sizes=(2, 1), n=n)

    def test_stores_integral_sizes_and_n_as_ints(self):
        asg = CommunityAssignment(sizes=[np.int64(2), 1.0], n=np.int32(5))
        assert asg == CommunityAssignment(sizes=(2, 1), n=5)
        assert all(type(v) is int for v in (*asg.sizes, asg.n))
        assert hash(asg) == hash(CommunityAssignment(sizes=(2, 1), n=5))


class TestIndicator:
    def test_two_communities(self):
        a = build_indicator(CommunityAssignment(sizes=(2, 1), n=3))
        np.testing.assert_array_equal(a.entries, [[1, 0], [1, 0], [0, 1]])
        assert a.sizes == (2, 1)

    def test_single_node(self):
        a = build_indicator(CommunityAssignment(sizes=(1,), n=1))
        np.testing.assert_array_equal(a.entries, [[1.0]])

    def test_background_row_is_zero(self):
        a = build_indicator(CommunityAssignment(sizes=(1, 1), n=3))
        np.testing.assert_array_equal(a.entries, [[1, 0], [0, 1], [0, 0]])

    @pytest.mark.parametrize(
        "sizes, n",
        [
            (sizes, sum(sizes) + extra)
            for sizes in [(), (1,), (2, 1), (3, 2, 1), (1, 1, 1), (12, 6), (30, 15)]
            for extra in (0, 1, 7)
            if sum(sizes) + extra >= 1
        ],
        ids=str,
    )
    def test_matches_the_label_loop_bit_for_bit(self, sizes, n):
        """The vectorized index gives the entries and sizes of the label
        loop it replaced, with and without background nodes."""
        a = build_indicator(CommunityAssignment(sizes=sizes, n=n))
        entries, twin_sizes = indicator_from_labels(sizes, n)
        assert a.entries.dtype == entries.dtype and a.entries.shape == entries.shape
        assert a.entries.tobytes() == entries.tobytes()
        assert a.sizes == twin_sizes
        mm = mean_matrix(a)
        assert mm.tobytes() == (entries @ entries.T).tobytes()

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
        snaps = list(iter_stream(self.scenario()))
        assert [s.t for s in snaps] == [1, 2, 3, 4, 5]

    def test_tau_zero_means_every_snapshot_is_post_change(self):
        snaps = list(iter_stream(self.scenario(sigma=0.0, tau=0)))
        want = mean_matrix(build_indicator(assignment_from_sizes((2, 1))))
        for s in snaps:
            np.testing.assert_array_equal(s.weights, want)

    def test_tau_none_means_the_change_never_happens(self):
        snaps = list(iter_stream(self.scenario(sigma=0.0, tau=None)))
        for s in snaps:
            np.testing.assert_array_equal(s.weights, np.zeros((3, 3)))

    def test_change_point_splits_pre_and_post(self):
        snaps = list(iter_stream(self.scenario(sigma=0.0)))
        want = mean_matrix(build_indicator(assignment_from_sizes((2, 1))))
        np.testing.assert_array_equal(snaps[1].weights, np.zeros((3, 3)))
        np.testing.assert_array_equal(snaps[2].weights, want)

    def test_same_seed_reproduces_the_stream_bit_for_bit(self):
        one = list(iter_stream(self.scenario()))
        two = list(iter_stream(self.scenario()))
        for s1, s2 in zip(one, two):
            assert np.array_equal(s1.weights, s2.weights)

    def test_longer_horizon_extends_without_changing_the_prefix(self):
        short = list(iter_stream(self.scenario(horizon=3)))
        long = list(iter_stream(self.scenario(horizon=7)))
        for s1, s2 in zip(short, long):
            np.testing.assert_array_equal(s1.weights, s2.weights)

    def test_explicit_rng_overrides_the_scenario_seed(self):
        sc = self.scenario()
        via_key = list(iter_stream(sc, rng=rng_from_key(sc.seed, 0)))
        via_seed = list(iter_stream(sc))
        for s1, s2 in zip(via_key, via_seed):
            np.testing.assert_array_equal(s1.weights, s2.weights)

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    def test_zero_noise_returns_the_mean(self, convention):
        asg = assignment_from_sizes((2, 1), n=4)
        want = mean_matrix(build_indicator(asg))
        sc = self.scenario(assignment=asg, sigma=0.0, tau=0, convention=convention)
        for t, snap in enumerate(iter_stream(sc), start=1):
            assert np.array_equal(snap.weights, want)
            assert snap.t == t and snap.n == 4

    def test_symmetric_convention_is_bit_exact(self):
        sc = self.scenario(assignment=assignment_from_sizes((3, 2), n=6), seed=3)
        for snap in iter_stream(sc):
            assert np.array_equal(snap.weights, snap.weights.T)

    def test_iid_full_convention_breaks_symmetry(self):
        asg = assignment_from_sizes((3, 2), n=6)
        sc = self.scenario(assignment=asg, seed=3, convention=IID_FULL)
        for snap in iter_stream(sc):
            assert not np.array_equal(snap.weights, snap.weights.T)

    def test_sigma_stops_where_draws_could_overflow(self):
        """numpy's normals stay below 13.7 in size, so sigma up to float max
        / 16 draws finite weights about a mean of ones, and one ulp more is
        refused."""
        top = sys.float_info.max / 16
        for convention in (SYMMETRIC, IID_FULL):
            asg = assignment_from_sizes((3,))
            sc = self.scenario(assignment=asg, sigma=top, tau=0, seed=3, convention=convention)
            for snap in iter_stream(sc):
                assert np.isfinite(snap.weights).all()
        with pytest.raises(ValueError, match="at most"):
            self.scenario(sigma=math.nextafter(top, math.inf))

    def test_empirical_moments_match_the_model(self):
        """Mean and variance of many unit-noise draws sit near 0 and 1.

        5000 snapshots on 20 nodes give a per-entry standard error of about
        0.014 for the mean; the variance is pooled over the whole upper
        triangle, so its standard error is far below the band width.
        """
        n, reps = 20, 5000
        sc = self.scenario(assignment=assignment_from_sizes((), n=n), tau=None, horizon=reps)
        iu = np.triu_indices(n)
        total = np.zeros((n, n))
        sq = []
        for snap in iter_stream(sc, rng=rng_from_key(13)):
            total += snap.weights
            sq.append(snap.weights[iu])
        mean = total / reps
        assert float(np.abs(mean).max()) <= 0.05
        pooled = float(np.var(np.array(sq), ddof=1))
        assert 0.95 <= pooled <= 1.05

    def test_rejects_bad_scenarios(self):
        with pytest.raises(ValueError):
            self.scenario(horizon=0)
        with pytest.raises(ValueError, match="at most"):
            self.scenario(sigma=1e308)
        with pytest.raises(ValueError):
            self.scenario(tau=-1)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="nonnegative"):
            self.scenario(sigma=-0.5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        """NaN slips past a bare sigma < 0 check and would draw NaN weights."""
        with pytest.raises(ValueError, match="finite"):
            self.scenario(sigma=sigma)

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError, match="unknown convention 'lower'"):
            self.scenario(convention="lower")

    @pytest.mark.parametrize(
        "field, value", [("horizon", 5.5), ("horizon", True), ("tau", 2.5), ("tau", False)]
    )
    def test_rejects_a_time_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            self.scenario(**{field: value})

    @pytest.mark.parametrize("horizon", [2.5, True, "3"])
    def test_rejects_an_explicit_horizon_that_is_not_an_integer(self, horizon):
        """2.5 raised a bare TypeError, and True yielded one snapshot."""
        with pytest.raises(ValueError, match=re.escape(f"horizon must be an integer, got {horizon!r}")):
            list(iter_stream(self.scenario(), horizon=horizon))

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_an_explicit_horizon_below_one(self, horizon):
        """Both yielded no snapshot; the scenario's own horizon is refused
        with the same message."""
        stream = iter_stream(self.scenario(), horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            next(stream)

    def test_an_integral_float_horizon_draws_its_int(self):
        sc = self.scenario()
        got = list(iter_stream(sc, horizon=3.0))
        assert [s.t for s in got] == [1, 2, 3]
        for s1, s2 in zip(got, iter_stream(sc)):
            assert np.array_equal(s1.weights, s2.weights)

    def test_stores_integral_times_as_ints(self):
        sc = self.scenario(horizon=5.0, tau=np.int64(2))
        assert (sc.horizon, sc.tau) == (5, 2)
        assert type(sc.horizon) is int and type(sc.tau) is int


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


@pytest.mark.parametrize("n", [1, 2, 3, 20, 100])
def test_mirror_is_the_triangle_scatter(n):
    """_mirror(n) is where each matrix entry sits in the drawn triangle: a
    scatter of the triangle's positions into both halves of the matrix."""
    iu = np.triu_indices(n)
    want = np.empty((n, n), np.intp)
    want[iu] = np.arange(iu[0].size)
    want.T[iu] = np.arange(iu[0].size)
    assert np.array_equal(graph_model._mirror(n), want.ravel())


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

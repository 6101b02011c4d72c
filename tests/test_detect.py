"""Tests for increment definitions, the CUSUM recursion, and detector runs."""

import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cusum import (
    EXACT,
    IID_FULL,
    SPECTRAL,
    SYMMETRIC,
    TOP1,
    DetectorConfig,
    GraphSnapshot,
    NumericalError,
    StreamScenario,
    assignment_from_sizes,
    build_indicator,
    cusum_update,
    iter_statistic,
    iter_stream,
    mean_matrix,
    rng_from_key,
    run_detector,
    spectral,
)
from spectral_cusum.spectral import projector, top_m_eigs
from twins import cusum_maxform

A21 = build_indicator(assignment_from_sizes((2, 1)))
G21 = mean_matrix(A21)


def as_snapshots(matrices):
    from spectral_cusum import GraphSnapshot

    return [
        GraphSnapshot(t=t, weights=np.asarray(m, dtype=float))
        for t, m in enumerate(matrices, start=1)
    ]


def first_exact_increment(g, a):
    return next(iter_statistic([g], DetectorConfig(method=EXACT, b=math.inf, A=a)))[1]


class TestIncrements:
    def test_exact_increment_values(self):
        """An all-background indicator has AA^T = 0, so every snapshot
        scores exactly 0."""
        (g_post,) = as_snapshots([G21])
        (g_zero,) = as_snapshots([np.zeros((3, 3))])
        (g_half,) = as_snapshots([G21 / 2.0])
        (g_noise,) = as_snapshots([rng_from_key(1).standard_normal((3, 3))])
        a0 = build_indicator(assignment_from_sizes((), n=3))
        assert first_exact_increment(g_post, A21) == pytest.approx(5.0, rel=1e-12)
        assert first_exact_increment(g_zero, A21) == pytest.approx(-5.0, abs=1e-12)
        assert first_exact_increment(g_half, A21) == pytest.approx(0.0, abs=1e-12)
        assert first_exact_increment(g_noise, a0) == 0.0

    def test_exact_increment_of_a_non_finite_snapshot_raises(self):
        bad = G21.copy()
        bad[0, 1] = np.nan
        (g,) = as_snapshots([bad])
        with pytest.raises(NumericalError, match="non-finite increment"):
            first_exact_increment(g, A21)

    @staticmethod
    def first_increment(g, window_matrix, cfg):
        """iter_statistic's first increment: g scored against w copies of
        window_matrix, whose window mean is window_matrix itself."""
        ((_, inc, _),) = iter_statistic(as_snapshots([g] + [window_matrix] * cfg.w), cfg)
        return inc

    def test_spectral_increment_values(self):
        cfg = DetectorConfig(method=SPECTRAL, b=math.inf, m=2, w=3, d=1.0)
        for g, want in ((np.eye(3), 1.0), (np.zeros((3, 3)), -1.0), (G21, 2.0)):
            assert self.first_increment(g, G21, cfg) == pytest.approx(want, rel=1e-12)

    def test_top1_increment_values(self):
        """Window mean diag(3, 1) has leading vector e1; the exchange
        matrix has (1, 1)/sqrt(2), along which it has quadratic form 1."""
        cfg = DetectorConfig(method=TOP1, b=math.inf, w=2, d=0.5)
        diag, ex = np.diag([3.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        for g, window, want in ((diag, diag, 2.5), (np.zeros((2, 2)), diag, -0.5), (ex, ex, 0.5)):
            assert self.first_increment(g, window, cfg) == pytest.approx(want, rel=1e-12)


class TestCusumForms:
    @pytest.mark.parametrize(
        "prev,inc,want", [(-1.0, 2.0, 2.0), (3.0, -1.0, 2.0), (0.0, 0.0, 0.0)]
    )
    def test_update_examples(self, prev, inc, want):
        assert cusum_update(prev, inc) == want

    def test_maxform_examples(self):
        assert cusum_maxform([1.0, 1.0, 1.0]) == [1.0, 2.0, 3.0]
        assert cusum_maxform([-1.0, -1.0]) == [-1.0, -1.0]

    @given(
        incs=st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=30
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_forms_agree_wherever_the_recursion_is_positive(self, incs):
        brute = cusum_maxform(incs)
        s = 0.0
        for inc, bval in zip(incs, brute):
            s = cusum_update(s, inc)
            if s > 0:
                assert s == pytest.approx(bval, rel=1e-12, abs=1e-12)

    @given(
        incs=st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=30
        ),
        b=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_forms_share_alarm_times(self, incs, b):
        brute = cusum_maxform(incs)
        alarm_brute = next((t for t, v in enumerate(brute, 1) if v >= b), None)
        s, alarm_rec = 0.0, None
        for t, inc in enumerate(incs, 1):
            s = cusum_update(s, inc)
            if s >= b:
                alarm_rec = t
                break
        assert alarm_rec == alarm_brute


class TestDetectorConfig:
    def test_exact_needs_the_indicator(self):
        with pytest.raises(ValueError):
            DetectorConfig(method=EXACT, b=1.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            DetectorConfig(method=EXACT, b=0.0, A=A21)

    def test_spectral_needs_m_and_window(self):
        with pytest.raises(ValueError):
            DetectorConfig(method=SPECTRAL, b=1.0, w=5)
        with pytest.raises(ValueError):
            DetectorConfig(method=SPECTRAL, b=1.0, m=2)

    def test_drift_defaults_to_half_m(self):
        cfg = DetectorConfig(method=SPECTRAL, b=1.0, m=3, w=5)
        assert cfg.d == 1.5

    def test_drift_must_be_positive(self):
        with pytest.raises(ValueError):
            DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=5, d=0.0)

    @pytest.mark.parametrize(
        "d, message",
        [
            (-math.inf, "drift d must be positive"),
            (math.nan, "drift d must be positive"),
            (math.inf, "drift d must be finite, got inf"),
        ],
    )
    def test_drift_must_be_finite(self, d, message):
        """An infinite drift made every increment -inf, refused only at the
        first scored snapshot; d <= 0 and NaN keep their message."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=5, d=d)

    @pytest.mark.parametrize("m, w", [(2, 5.5), (2, True), (2.5, 5), (True, 5), (2, "5")])
    def test_m_and_w_must_be_integers(self, m, w):
        """w = 5.5 ran on a 5-snapshot window and reported stop times of
        t + 5.5; m = 2.5 got through to the kernel's bare TypeError."""
        bad = w if m == 2 else m
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            DetectorConfig(method=SPECTRAL, b=1.0, m=m, w=w)

    def test_integral_m_and_w_are_stored_as_ints(self):
        cfg = DetectorConfig(method=SPECTRAL, b=1.0, m=np.int64(2), w=5.0)
        assert (cfg.m, cfg.w) == (2, 5) and type(cfg.m) is int and type(cfg.w) is int

    def test_an_integral_float_window_alarms_at_an_int(self):
        sc = StreamScenario(assignment_from_sizes((5, 3), n=20), sigma=1.0, tau=50, horizon=200, seed=7)
        stream = list(iter_stream(sc))
        for w in (5, 5.0):
            res = run_detector(stream, DetectorConfig(method=SPECTRAL, b=25.0, m=2, w=w))
            assert res.stop_time == 61 and type(res.stop_time) is int

    def test_top1_forces_m_to_one(self):
        cfg = DetectorConfig(method=TOP1, b=1.0, m=7, w=5)
        assert cfg.m == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(method="cusum", b=1.0)


def degenerate_stream(horizon, sizes=(2, 1)):
    sc = StreamScenario(assignment=assignment_from_sizes(sizes), sigma=0.0, tau=0, horizon=horizon)
    return list(iter_stream(sc))


class TestRunDetector:
    def test_exact_on_a_noiseless_post_change_stream(self):
        cfg = DetectorConfig(method=EXACT, b=12.0, A=A21)
        res = run_detector(degenerate_stream(10), cfg)
        assert res.stop_time == 3
        assert res.trajectory == [(1, 5.0), (2, 10.0), (3, 15.0)]

    def test_spectral_alarm_lags_by_the_window(self):
        cfg = DetectorConfig(method=SPECTRAL, b=3.5, m=2, w=2, d=1.0)
        res = run_detector(degenerate_stream(10), cfg)
        assert res.stop_time == 4
        assert [t for t, _ in res.trajectory] == [1, 2]
        np.testing.assert_allclose([v for _, v in res.trajectory], [2.0, 4.0], atol=1e-9)

    def test_top1_matches_spectral_with_one_community(self):
        stream = degenerate_stream(8, sizes=(3,))
        spec = run_detector(stream, DetectorConfig(method=SPECTRAL, b=9.0, m=1, w=2, d=0.5))
        top = run_detector(stream, DetectorConfig(method=TOP1, b=9.0, w=2, d=0.5))
        assert spec.stop_time == top.stop_time
        assert spec.trajectory == top.trajectory

    def test_short_stream_scores_nothing(self):
        cfg = DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=5, d=1.0)
        res = run_detector(degenerate_stream(5), cfg)
        assert res.stop_time is None
        assert res.trajectory == []

    def test_a_node_count_change_mid_stream_raises(self):
        """The window holds one shape: the first 4-node snapshot of a
        generator after five 3-node ones raises ValueError, once the three
        windows before it are scored."""
        stream = (GraphSnapshot(t=t, weights=np.eye(3 if t <= 5 else 4)) for t in range(1, 9))
        stats = iter_statistic(stream, DetectorConfig(method=SPECTRAL, b=math.inf, m=1, w=2, d=0.5))
        assert [t for t, _, _ in itertools.islice(stats, 3)] == [1, 2, 3]
        with pytest.raises(ValueError, match=r"snapshot has shape \(4, 4\)"):
            next(stats)

    def test_statistic_never_falls_below_the_increment(self):
        sc = StreamScenario(
            assignment=assignment_from_sizes((2, 1)), sigma=1.0, tau=5, horizon=60, seed=4
        )
        res = run_detector(list(iter_stream(sc)), DetectorConfig(method=EXACT, b=1e9, A=A21))
        prev = 0.0
        for _, stat in res.trajectory:
            inc = stat - max(prev, 0.0)
            assert stat >= inc - 1e-12
            prev = stat

    def test_alarm_time_is_monotone_in_the_threshold(self):
        sc = StreamScenario(
            assignment=assignment_from_sizes((2, 1)), sigma=1.0, tau=0, horizon=80, seed=6
        )
        stream = list(iter_stream(sc))
        stops = []
        for b in (1.0, 4.0, 9.0):
            res = run_detector(stream, DetectorConfig(method=EXACT, b=b, A=A21))
            stops.append(res.stop_time if res.stop_time is not None else np.inf)
        assert stops[0] <= stops[1] <= stops[2]


@pytest.mark.usefixtures("solver")
class TestKeptSolveArrays:
    """A windowed statistic builds one _TopPairs, at its first solve, and
    solves every later window in that object's arrays."""

    CONFIG = DetectorConfig(method=SPECTRAL, b=math.inf, m=2, w=5)

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"built": 0, "calls": 0}
        init, call = spectral._TopPairs.__init__, spectral._TopPairs.__call__

        def counting_init(self, *args):
            counts["built"] += 1
            init(self, *args)

        def counting_call(self):
            counts["calls"] += 1
            return call(self)

        monkeypatch.setattr(spectral._TopPairs, "__init__", counting_init)
        monkeypatch.setattr(spectral._TopPairs, "__call__", counting_call)
        return counts

    def test_one_solver_for_a_run(self, counts):
        res = run_detector(degenerate_stream(30), self.CONFIG)
        assert len(res.trajectory) == 25
        assert counts == {"built": 1, "calls": 25}

    def test_no_solver_before_a_snapshot_is_scored(self, counts):
        assert run_detector(degenerate_stream(5), self.CONFIG).trajectory == []
        assert counts == {"built": 0, "calls": 0}

    def test_interleaved_generators_build_one_each(self, counts):
        stream = degenerate_stream(30)
        pairs = list(zip(iter_statistic(stream, self.CONFIG), iter_statistic(stream, self.CONFIG)))
        assert len(pairs) == 25
        assert all(first == second for first, second in pairs)
        assert counts == {"built": 2, "calls": 50}


def longhand_run(snaps, cfg, increments=None):
    """The detector loop spelled out as the oracle for run_detector.

    A separate deque holds the last w+1 snapshots (one for exact); the oldest
    is scored against the rest, whose mean comes from np.add.reduce, then
    top_m_eigs, the projector and an entrywise dot; top1 is spectral at
    m = 1. Each increment is appended to `increments` when a list is given.
    """
    lag = 0 if cfg.method == EXACT else cfg.w
    mm = mean_matrix(cfg.A) if cfg.method == EXACT else None
    held = deque()
    s, trajectory = 0.0, []
    for snap in snaps:
        held.append(snap)
        if len(held) < lag + 1:
            continue
        g = held.popleft()
        if cfg.method == EXACT:
            offset = float(np.dot(mm.ravel(), mm.ravel()))
            inc = 2.0 * float(np.dot(g.weights.ravel(), mm.ravel())) - offset
        else:
            acc = np.add.reduce([x.weights for x in held])
            p = projector(top_m_eigs((acc + acc.T) / (2.0 * cfg.w), cfg.m))
            inc = float(np.dot(g.weights.ravel(), p.ravel())) - cfg.d
        if increments is not None:
            increments.append(inc)
        s = max(s, 0.0) + inc
        trajectory.append((g.t, s))
        if s >= cfg.b:
            return g.t + lag, trajectory
    return None, trajectory


# a windowed statistic may differ from the longhand loop's, which re-sums
# every window, by this many eps per unit of the running sum of
# |increment| + d: the kernel's running window sum rounds differently
# between its re-sums. The largest ratio seen on these streams is about 9
# for statistics and 190 for single increments (symmetric spectral, eigh)
RUNNING_SUM_EPS = 1024


def assert_matches_longhand(got_traj, want_traj, want_incs, cfg, got_incs=None):
    """Exact matches the longhand loop bit for bit. The windowed methods
    match its scored indices and length, and its statistics (and increments,
    when given) within RUNNING_SUM_EPS."""
    if cfg.method == EXACT:
        assert got_traj == want_traj
        assert got_incs is None or got_incs == want_incs
        return
    assert len(got_traj) == len(want_traj) == len(want_incs)
    assert [t for t, _ in got_traj] == [t for t, _ in want_traj]
    unit = RUNNING_SUM_EPS * np.finfo(float).eps
    steps = np.abs(want_incs) + cfg.d
    for (_, s), (_, want_s), budget in zip(got_traj, want_traj, np.cumsum(steps)):
        assert abs(s - want_s) <= unit * budget
    for inc, want_inc, step in zip(got_incs or [], want_incs, steps):
        assert abs(inc - want_inc) <= unit * step


class TestRunDetectorMatchesTheLonghandLoop:
    SIZES = (3, 2)

    def config(self, method, b):
        if method == EXACT:
            a = build_indicator(assignment_from_sizes(self.SIZES, n=8))
            return DetectorConfig(method=EXACT, b=3.0 * b, A=a)
        if method == TOP1:
            return DetectorConfig(method=TOP1, b=b, w=4, d=0.7)
        return DetectorConfig(method=SPECTRAL, b=b, m=2, w=5)

    def scenario(self, convention):
        return StreamScenario(
            assignment=assignment_from_sizes(self.SIZES, n=8),
            sigma=1.0,
            tau=20,
            horizon=70,
            seed=13,
            convention=convention,
        )

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("method", [SPECTRAL, TOP1, EXACT])
    @pytest.mark.parametrize("b", [10.0, math.inf])
    def test_same_alarm_and_statistics(self, method, convention, b, solver):
        """run_detector on a list, an iterator and a lazy stream stops where
        the longhand loop does; exact gives its trajectory bit for bit, the
        windowed methods within RUNNING_SUM_EPS."""
        sc = self.scenario(convention)
        cfg = self.config(method, b)
        snaps = list(iter_stream(sc))
        want_incs = []
        want_stop, want_traj = longhand_run(snaps, cfg, want_incs)
        if math.isfinite(b):
            assert want_stop is not None
        for stream in (snaps, iter(snaps), iter_stream(sc)):
            res = run_detector(stream, cfg)
            assert res.stop_time == want_stop
            assert_matches_longhand(res.trajectory, want_traj, want_incs, cfg)

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("method", [SPECTRAL, TOP1, EXACT])
    def test_generator_yields_the_longhand_increments(self, method, convention, solver):
        """At b = +inf the generator's (t, statistic) pairs are run_detector's
        whole trajectory, and its increments are the longhand loop's (within
        RUNNING_SUM_EPS for the windowed methods)."""
        sc = self.scenario(convention)
        cfg = self.config(method, math.inf)
        snaps = list(iter_stream(sc))
        want_incs = []
        _, want_traj = longhand_run(snaps, cfg, want_incs)
        got = list(iter_statistic(iter_stream(sc), cfg))
        got_traj = [(t, s) for t, _, s in got]
        assert got_traj == run_detector(snaps, cfg).trajectory
        assert_matches_longhand(got_traj, want_traj, want_incs, cfg, [inc for _, inc, _ in got])
        assert len(got) == len(snaps) - cfg.lag

    @pytest.mark.parametrize("n2", [8, 13], ids=["same-n", "other-n"])
    def test_interleaved_generators_reproduce_their_separate_runs(self, n2, solver):
        """Each generator holds its own window kernel and solver arrays, so
        pulling two in turn changes neither one's yields."""
        cfg = self.config(SPECTRAL, math.inf)
        one = list(iter_stream(self.scenario(SYMMETRIC)))
        other = StreamScenario(
            assignment=assignment_from_sizes((4, 2), n=n2),
            sigma=0.9, tau=10, horizon=50, seed=14, convention=IID_FULL,
        )
        two = list(iter_stream(other))
        want = [list(iter_statistic(one, cfg)), list(iter_statistic(two, cfg))]
        got = [[], []]
        for pair in itertools.zip_longest(iter_statistic(one, cfg), iter_statistic(two, cfg)):
            for out, item in zip(got, pair):
                if item is not None:
                    out.append(item)
        assert got == want

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    def test_top1_increment_is_the_leading_quadratic_form(self, convention, solver):
        """Each top1 increment, scored through the rank-one projector, is
        v @ G @ v - d with v the leading eigenvector of its window mean."""
        cfg = self.config(TOP1, math.inf)
        snaps = list(iter_stream(self.scenario(convention)))
        got = list(iter_statistic(snaps, cfg))
        assert len(got) == len(snaps) - cfg.w
        for i, (t, inc, _) in enumerate(got):
            acc = np.add.reduce([x.weights for x in snaps[i + 1 : i + 1 + cfg.w]])
            v = top_m_eigs((acc + acc.T) / (2.0 * cfg.w), 1).eigenvectors[:, 0]
            assert t == snaps[i].t
            assert inc == pytest.approx(float(v @ snaps[i].weights @ v) - cfg.d, abs=1e-12)

    @pytest.mark.parametrize("method", [SPECTRAL, TOP1, EXACT])
    def test_generator_keeps_yielding_past_the_threshold(self, method):
        snaps = list(iter_stream(self.scenario(SYMMETRIC)))
        cfg = self.config(method, 10.0)
        res = run_detector(snaps, cfg)
        got = list(iter_statistic(snaps, cfg))
        assert res.stop_time is not None
        assert [(t, s) for t, _, s in got[: len(res.trajectory)]] == res.trajectory
        assert len(got) == len(snaps) - cfg.lag > len(res.trajectory)
        assert got == list(iter_statistic(snaps, self.config(method, math.inf)))

    def test_interleaved_generators_leave_the_error_state_alone(self):
        """iter_statistic sets no numpy error state of its own. Two generators
        pulled in turn, then run into data whose sums overflow, leave
        np.geterr() as their caller set it after every pull and after both
        close."""
        snaps = list(iter_stream(self.scenario(SYMMETRIC)))
        snaps[6] = GraphSnapshot(t=7, weights=np.full((8, 8), 1e308))
        before = np.geterr()
        gens = [
            iter_statistic(snaps, self.config(method, math.inf)) for method in (EXACT, SPECTRAL)
        ]
        for gen in gens:
            next(gen)
            assert np.geterr() == before
        with np.errstate(over="ignore", invalid="ignore"):
            inside = np.geterr()
            for gen in gens:
                with pytest.raises(NumericalError, match="non-finite"):
                    for _ in gen:
                        assert np.geterr() == inside
                assert np.geterr() == inside
        assert np.geterr() == before
        pending = [
            iter_statistic(snaps, self.config(method, math.inf)) for method in (TOP1, EXACT)
        ]
        for gen in pending:
            next(gen)
        for gen in pending:
            gen.close()
            assert np.geterr() == before

    @pytest.mark.parametrize("method", [SPECTRAL, EXACT])
    def test_non_finite_increment_raises(self, method):
        snaps = list(iter_stream(self.scenario(SYMMETRIC)))
        bad = snaps[0].weights.copy()
        bad[0, 1] = np.nan
        snaps[0] = GraphSnapshot(t=1, weights=bad)
        with pytest.raises(ValueError, match="non-finite increment"):
            run_detector(snaps, self.config(method, math.inf))

    @pytest.mark.parametrize("method", [SPECTRAL, TOP1])
    def test_overflowing_window_mean_raises(self, method):
        """Finite weights whose window sum overflows give a non-finite mean."""
        snaps = list(iter_stream(self.scenario(SYMMETRIC)))
        for i in (3, 4):
            snaps[i] = GraphSnapshot(t=i + 1, weights=np.full((8, 8), 1e308))
        with pytest.raises(NumericalError, match="window after t=1: .*non-finite"):
            run_detector(snaps, self.config(method, math.inf))

    @staticmethod
    def corner_stream(values):
        """3-node snapshots t = 1, 2, ... whose one nonzero weight, at
        (0, 1), is the given value: each window mean is finite exactly
        when its left-to-right sum is."""
        snaps = []
        for t, v in enumerate(values, start=1):
            weights = np.zeros((3, 3))
            weights[0, 1] = v
            snaps.append(GraphSnapshot(t=t, weights=weights))
        return snaps

    def test_a_window_a_running_sum_would_overflow_keeps_scoring(self):
        """The window after t=2 holds 0, 0, 1e308 and the one before it
        1e308, 0, 0. Adding the snapshot that entered to the previous sum
        before subtracting the one that left would overflow; the kernel
        re-sums such windows instead, so every window scores, bit for bit
        as in the longhand loop, with no overflow to silence."""
        cfg = DetectorConfig(method=TOP1, b=math.inf, w=3, d=0.5)
        snaps = self.corner_stream([0.0, 1e308, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0])
        want_incs = []
        _, want_traj = longhand_run(snaps, cfg, want_incs)
        got = list(iter_statistic(snaps, cfg))
        assert [inc for _, inc, _ in got] == want_incs
        assert [(t, s) for t, _, s in got] == want_traj
        assert len(got) == len(snaps) - cfg.w

    @pytest.mark.parametrize(
        "values",
        [[0.0, -1e308, 1e308, 1e308, -1e308, 0.0], [0.0, 0.0, 0.0, 1e308, 1e308, 0.0]],
        ids=["running-sum-finite", "running-sum-overflows"],
    )
    def test_a_later_window_whose_left_to_right_sum_overflows_raises(self, values):
        """The window after t=1 sums to a finite 1e308 and the window after
        t=2 overflows left to right. In the first case a running update
        (1e308 + -1e308 - -1e308) would come out finite; the left-to-right
        sum decides either way."""
        cfg = DetectorConfig(method=TOP1, b=math.inf, w=3, d=0.5)
        with pytest.raises(NumericalError, match="window after t=2: .*non-finite"):
            run_detector(self.corner_stream(values), cfg)

    def test_eigensolver_failure_is_a_numerical_error(self, monkeypatch):
        def failing(self):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spectral._TopPairs, "__call__", failing)
        snaps = list(iter_stream(self.scenario(SYMMETRIC)))
        with pytest.raises(NumericalError, match="did not converge") as info:
            run_detector(snaps, self.config(SPECTRAL, math.inf))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

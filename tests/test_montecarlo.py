"""Tests for the Monte Carlo harness: run-length estimation, calibration,
drift measurement, and the tilted-moment check.

The exact-method replication engine draws its increments in vectorized,
growing pieces and steps the detector's clamped recursion over them. Its
slow twin here draws whole _CHUNK-row blocks and scores each step with
cusum_update, and the two must give the same bits. The parity tests pin the
engine to the generic detector loop on shared seeds: the same alarm times,
and uncapped paths that differ only by the rounding of their increments.
That is what makes the remaining statistical tests meaningful.
"""

import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_cusum import (
    EXACT,
    IID_FULL,
    SPECTRAL,
    SYMMETRIC,
    TOP1,
    CalibrationError,
    DetectorConfig,
    IndicatorMatrix,
    McPlan,
    NumericalError,
    StreamScenario,
    ValidityError,
    assignment_from_sizes,
    build_indicator,
    calibrate_threshold,
    cusum_update,
    drift_for_delta,
    estimate_arl,
    estimate_drift_mc,
    estimate_edd,
    iter_stream,
    mean_matrix,
    oc_curve,
    rng_from_key,
    run_detector,
    verify_equalizer_mc,
)
from spectral_cusum.spectral import estimate_subspace, projector
from spectral_cusum import montecarlo
from spectral_cusum.montecarlo import _CHUNK, _rep_alarm, _rep_path, _summarize

A21 = assignment_from_sizes((2, 1))
A21_N4 = assignment_from_sizes((2, 1), n=4)


def h0_scenario(**kw):
    base = dict(assignment=A21, sigma=1.0, tau=None, horizon=1)
    base.update(kw)
    return StreamScenario(**base)


def exact_detector(b):
    return DetectorConfig(method=EXACT, b=b, A=build_indicator(A21))


class TestPlanValidation:
    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            McPlan(h0_scenario(), exact_detector(4.0), replications=0, cap=100)

    def test_rejects_cap_below_one(self):
        with pytest.raises(ValueError):
            McPlan(h0_scenario(), exact_detector(4.0), replications=10, cap=0)

    def test_rejects_cap_inside_the_window(self):
        det = DetectorConfig(method=SPECTRAL, b=2.0, m=2, w=10, d=1.0)
        with pytest.raises(ValueError):
            McPlan(h0_scenario(), det, replications=10, cap=10)

    def test_rejects_an_exact_detector_for_another_oracle(self):
        """The engine draws the scenario's increments whatever A says: with
        A from sizes (4,) against a (2, 1) scenario on 4 nodes it reported
        EDD 6.84 at b = 30 over 200 replications, where the detector itself
        alarmed in only 54 of them within the cap of 50."""
        sc = h0_scenario(assignment=assignment_from_sizes((2, 1), n=4), tau=0)
        det = DetectorConfig(method=EXACT, b=30.0, A=build_indicator(assignment_from_sizes((4,))))
        with pytest.raises(ValueError, match=r"AA\^T differs from the scenario's"):
            McPlan(sc, det, replications=200, cap=50)

    def test_rejects_an_exact_detector_with_another_node_count(self):
        det = DetectorConfig(
            method=EXACT, b=4.0, A=build_indicator(assignment_from_sizes((2, 1), n=5))
        )
        with pytest.raises(ValueError, match=r"AA\^T differs from the scenario's"):
            McPlan(h0_scenario(), det, replications=10, cap=100)

    def test_accepts_an_exact_detector_with_relabelled_communities(self):
        """The check compares AA^T, which does not see the order of A's
        columns: A with its two columns swapped is the same oracle."""
        a = build_indicator(A21)
        swapped = IndicatorMatrix(entries=a.entries[:, ::-1].copy(), sizes=a.sizes[::-1])
        assert not np.array_equal(swapped.entries, a.entries)
        det = DetectorConfig(method=EXACT, b=4.0, A=swapped)
        McPlan(h0_scenario(), det, replications=10, cap=100)

    @pytest.mark.parametrize(
        "field, value",
        [("replications", 2.5), ("replications", True), ("cap", 50.5), ("cap", "50")],
    )
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        """replications=True ran one replication, cap=50.5 was accepted, and
        replications=2.5 raised a bare TypeError."""
        kw = {"replications": 10, "cap": 100, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            McPlan(h0_scenario(), exact_detector(4.0), **kw)

    def test_stores_integral_counts_as_ints(self):
        plan = McPlan(h0_scenario(), exact_detector(4.0), replications=np.int64(10), cap=100.0)
        assert (plan.replications, plan.cap) == (10, 100)
        assert type(plan.replications) is int and type(plan.cap) is int


def block_at_a_time_path(plan, rep):
    """Slow twin of the exact engine: draw whole _CHUNK-step blocks, score
    each step with cusum_update, and cut the path after its first crossing
    of b. The blocks are the engine's pieces from entry 512 on; before that
    the engine draws smaller pieces of the same rows."""
    sc = plan.scenario
    mm = mean_matrix(build_indicator(sc.assignment))
    offset = float(np.dot(mm.ravel(), mm.ravel()))
    if sc.convention == SYMMETRIC:
        iu = np.triu_indices(mm.shape[0])
        coef = mm[iu] * np.where(iu[0] == iu[1], 1.0, 2.0)
    else:
        coef = mm.ravel()
    rng = rng_from_key(plan.master_seed, rep)
    path, statistic = [], 0.0
    for pos in range(0, plan.cap, _CHUNK):
        k = min(_CHUNK, plan.cap - pos)
        draws = rng.standard_normal((k, coef.size))
        t = np.arange(pos + 1, pos + k + 1)
        base = 0.0 if sc.tau is None else np.where(t > sc.tau, offset, 0.0)
        for inc in 2.0 * (base + sc.sigma * (draws @ coef)) - offset:
            statistic = cusum_update(statistic, float(inc))
            path.append(statistic)
            if statistic >= plan.detector.b:
                return np.array(path)
    return np.array(path)


def assert_matches_the_twin(plan, rep):
    assert np.array_equal(_rep_path(plan, rep), block_at_a_time_path(plan, rep))


def with_b(plan, b):
    return replace(plan, detector=replace(plan.detector, b=b))


def assert_stopped_path_is_a_prefix(plan, rep, k, exact=False):
    """Stop replication rep at the running max of its uncapped path at entry
    k: it must equal that path up to and including its first crossing, which
    is returned. Returns None when that max is not a valid threshold (b <= 0).
    For the exact engine, both paths must also match the block-at-a-time twin."""
    full = _rep_path(with_b(plan, math.inf), rep)
    k = min(k, full.size - 1)
    b = float(full[: k + 1].max())
    if b <= 0:
        return None
    first = int(np.argmax(full >= b))
    assert first <= k
    stopped = _rep_path(with_b(plan, b), rep)
    assert np.array_equal(stopped, full[: first + 1])
    if exact:
        assert_matches_the_twin(with_b(plan, math.inf), rep)
        assert_matches_the_twin(with_b(plan, b), rep)
    return first


# entries 15/16, 31/32, ... end and start the engine's growing pieces, 47/48,
# 111/112, ... would for pieces of 16, 32, 64, ...; 511/512 and 1023/1024
# end and start its largest, _CHUNK-row pieces and the twin's blocks
PIECE_EDGES = [15, 16, 31, 32, 47, 48, 63, 64, 111, 112, 127, 128, 239, 240, 255, 256, 495, 496]
BLOCK_EDGES = [510, 511, 512, 513, 1023, 1024]


class TestStoppedPaths:
    """Calibration's probes rest on this: a path stopped at b is the path run
    to cap, cut after its first crossing of b."""

    @given(
        rep=st.integers(min_value=0, max_value=50),
        k=st.one_of(st.sampled_from(PIECE_EDGES + BLOCK_EDGES), st.integers(0, 1099)),
        tau=st.sampled_from([None, 0]),
        convention=st.sampled_from([SYMMETRIC, IID_FULL]),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_engine(self, rep, k, tau, convention):
        sc = h0_scenario(tau=tau, convention=convention)
        plan = McPlan(sc, exact_detector(1.0), replications=1, cap=1100, master_seed=8)
        assume(assert_stopped_path_is_a_prefix(plan, rep, k, exact=True) is not None)

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("k", [0, 300] + PIECE_EDGES + BLOCK_EDGES)
    def test_exact_crossing_inside_a_chunk_and_on_its_boundaries(self, k, convention):
        """Post-change paths climb, so some replication sets a new record at
        entry k; stopping it there puts the crossing exactly at k."""
        sc = h0_scenario(tau=0, convention=convention)
        plan = McPlan(sc, exact_detector(1.0), replications=1, cap=1100)
        full = [_rep_path(with_b(plan, math.inf), rep) for rep in range(20)]
        rep = next(r for r, p in enumerate(full) if p[k] > p[:k].max(initial=0.0))
        assert assert_stopped_path_is_a_prefix(plan, rep, k, exact=True) == k

    @given(
        rep=st.integers(min_value=0, max_value=50),
        k=st.integers(min_value=0, max_value=60),
        tau=st.sampled_from([None, 0]),
        method=st.sampled_from([SPECTRAL, TOP1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_windowed_detectors(self, rep, k, tau, method):
        det = DetectorConfig(method=method, b=1.0, m=2, w=3)
        plan = McPlan(h0_scenario(tau=tau), det, replications=1, cap=60, master_seed=8)
        assume(assert_stopped_path_is_a_prefix(plan, rep, k) is not None)


class TestResumedPaths:
    """Each engine's path, extended to b1 < b2 and then to +inf, returns in
    pieces the path _rep_path runs to cap; a path at cap returns nothing
    more."""

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("method", [EXACT, SPECTRAL, TOP1])
    def test_extensions_concatenate_to_the_whole_path(self, method, convention):
        if method == EXACT:
            det, cap, engine = exact_detector(1.0), 1100, montecarlo._OraclePath
        else:
            det, cap, engine = DetectorConfig(method=method, b=1.0, m=2, w=3), 60, montecarlo._WindowedPath
        plan = McPlan(h0_scenario(convention=convention), det, replications=1, cap=cap, master_seed=8)
        for rep in range(6):
            full = _rep_path(with_b(plan, math.inf), rep)
            assert full.size == cap - det.lag
            top = float(full.max())
            assert top > 0
            path = montecarlo._path(plan, rep)
            assert type(path) is engine
            pieces = [path.extend(0.4 * top)]
            # between the first piece's last statistic and the maximum
            b2 = 0.5 * (pieces[0][-1] + top)
            pieces += [path.extend(b2), path.extend(math.inf)]
            assert 0.4 * top < b2 <= top
            assert np.array_equal(np.concatenate(pieces), full)
            assert path.extend(math.inf).size == 0
            assert path.extend(b2).size == 0
            # a finite threshold above the path's maximum also runs it to cap
            capped = montecarlo._path(plan, rep)
            assert np.array_equal(capped.extend(top + 1.0), full)
            assert capped.extend(math.inf).size == 0


class TestExactEngineMatchesTheBlockAtATimeTwin:
    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("tau", [None, 0, 37])
    @pytest.mark.parametrize("cap", [7, 101, 513, 1100])
    def test_bit_identical_paths(self, convention, tau, cap):
        for sizes, sigma in (((2, 1), 1.0), ((4, 2), 0.5)):
            a = assignment_from_sizes(sizes)
            sc = StreamScenario(assignment=a, sigma=sigma, tau=tau, horizon=1, convention=convention)
            det = DetectorConfig(method=EXACT, b=1.0, A=build_indicator(a))
            for b in (math.inf, 3.0, 9.0):
                plan = McPlan(sc, replace(det, b=b), replications=1, cap=cap, master_seed=12)
                for rep in range(8):
                    assert_matches_the_twin(plan, rep)

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("sizes, n", [((2, 1), 3), ((6, 3), 20), ((30, 15), 100)])
    def test_coefficients_are_the_hand_formula(self, convention, sizes, n):
        """The engine reads its coefficients off graph_model's mirror map; the
        twin's hand formula weights each symmetric off-diagonal draw by 2."""
        a = assignment_from_sizes(sizes, n=n)
        mm = mean_matrix(build_indicator(a))
        if convention == SYMMETRIC:
            iu = np.triu_indices(n)
            want = mm[iu] * np.where(iu[0] == iu[1], 1.0, 2.0)
        else:
            want = mm.ravel()
        coef, offset = montecarlo._exact_coefficients(a, convention)
        assert np.array_equal(coef, want)
        assert offset == float(np.dot(mm.ravel(), mm.ravel()))


class CountingGenerator:
    """Delegates to a numpy Generator and records the rows of each 2-D
    normal draw, as the benchmark's tracer counts simulated steps."""

    def __init__(self, rng, rows):
        self._rng = rng
        self._rows = rows

    def standard_normal(self, size=None, *args, **kwargs):
        if isinstance(size, tuple) and len(size) == 2:
            self._rows.append(size[0])
        return self._rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class PoisonedGenerator:
    """Delegates to a numpy Generator and sets one row of each 2-D normal
    draw to +inf."""

    def __init__(self, rng, row):
        self._rng = rng
        self._row = row

    def standard_normal(self, size=None, *args, **kwargs):
        draws = self._rng.standard_normal(size, *args, **kwargs)
        if isinstance(size, tuple) and len(size) == 2 and size[0] > self._row:
            draws[self._row] = np.inf
        return draws

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestExactEngineDraws:
    @pytest.mark.parametrize("k", [0, 1, 14, 15, 16, 17, 40, 100, 300, 497, 511])
    def test_a_path_crossing_at_entry_k_draws_at_most_twice_its_length(self, monkeypatch, k):
        rows = []
        monkeypatch.setattr(
            montecarlo, "rng_from_key", lambda seed, stream=0: CountingGenerator(rng_from_key(seed, stream), rows)
        )
        plan = McPlan(h0_scenario(tau=0), exact_detector(1.0), replications=1, cap=1100)
        full = [_rep_path(with_b(plan, math.inf), rep) for rep in range(20)]
        assert sum(rows) == 20 * plan.cap
        rep = next(r for r, p in enumerate(full) if p[k] > p[:k].max(initial=0.0))
        rows.clear()
        stopped = _rep_path(with_b(plan, float(full[rep][k])), rep)
        assert stopped.size == k + 1
        assert sum(rows) <= max(16, 2 * (k + 1))


    @pytest.mark.parametrize(
        "k", [0, 1, 14, 15, 16, 17, 40, 100, 300, 497, 511, 63, 64, 127, 128, 512, 1023]
    )
    def test_a_path_crossing_at_entry_k_draws_at_most_a_quarter_more(self, monkeypatch, k):
        """Pieces are 16 rows until 64 are drawn, then a quarter of the rows
        drawn so far, so the rows past entry k number at most max(16, k // 4)."""
        rows = []
        monkeypatch.setattr(
            montecarlo, "rng_from_key", lambda seed, stream=0: CountingGenerator(rng_from_key(seed, stream), rows)
        )
        plan = McPlan(h0_scenario(tau=0), exact_detector(1.0), replications=1, cap=1100)
        full = [_rep_path(with_b(plan, math.inf), rep) for rep in range(20)]
        rep = next(r for r, p in enumerate(full) if p[k] > p[:k].max(initial=0.0))
        rows.clear()
        stopped = _rep_path(with_b(plan, float(full[rep][k])), rep)
        assert stopped.size == k + 1
        assert sum(rows) <= k + max(16, k // 4)


class TestExactFastPathParity:
    @pytest.mark.parametrize("convention", ["symmetric", IID_FULL])
    @pytest.mark.parametrize("tau,b", [(None, 4.0), (0, 12.0)])
    def test_alarm_times_match_the_generic_loop(self, convention, tau, b):
        """The vectorized exact path and the snapshot-by-snapshot detector
        consume the same keyed generator, so their alarms must coincide."""
        sc = h0_scenario(convention=convention, tau=tau)
        plan = McPlan(sc, exact_detector(b), replications=6, cap=300, master_seed=42)
        for rep in range(plan.replications):
            fast = _rep_alarm(plan, rep)
            stream = iter_stream(sc, rng=rng_from_key(plan.master_seed, rep), horizon=plan.cap)
            slow = run_detector(stream, plan.detector).stop_time
            assert fast == slow

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("tau", [None, 0, 37])
    @pytest.mark.parametrize("sizes,n", [((2, 1), None), ((4, 2), None), ((2, 1), 20)])
    def test_uncapped_paths_match_the_generic_loop_entry_by_entry(self, convention, tau, sizes, n):
        """Both step the same recursion on the same draws; only the
        increments' arithmetic differs, the engine's coefficient dot product
        against the detector's trace over all n^2 entries. Each increment
        is 2x - offset with |2x| <= |z| + offset, so a few roundings a step
        of |z_j| + offset bound the drift: 8 eps, fixed from float64, not
        fitted to these paths. Scaling by |z_j| alone would not do: a first
        increment of -0.04 against an offset of 5 cancels 7 bits."""
        a = assignment_from_sizes(sizes, n=n)
        sc = StreamScenario(assignment=a, sigma=1.0, tau=tau, horizon=1, convention=convention)
        det = DetectorConfig(method=EXACT, b=math.inf, A=build_indicator(a))
        plan = McPlan(sc, det, replications=1, cap=600, master_seed=42)
        mm = mean_matrix(build_indicator(a))
        offset = float(np.dot(mm.ravel(), mm.ravel()))
        for rep in range(6):
            fast = _rep_path(plan, rep)
            stream = iter_stream(sc, rng=rng_from_key(plan.master_seed, rep), horizon=plan.cap)
            slow = np.array([s for _, s in run_detector(stream, plan.detector).trajectory])
            assert fast.size == slow.size == plan.cap
            z = slow - np.maximum(np.concatenate(([0.0], slow[:-1])), 0.0)
            tol = 8 * np.finfo(float).eps * np.cumsum(np.abs(z) + offset)
            assert np.all(np.abs(fast - slow) <= tol)

    def test_overflowing_increments_are_refused_like_the_detector(self):
        """sigma = 1e307 is inside the draws' bound, but tr(G AA^T) overflows.
        The engine used to alarm at once on +inf increments and clamp -inf
        ones away, reporting ARL 2.2; like the detector, it now raises,
        with no overflow warning first."""
        a = assignment_from_sizes((12, 6))
        sc = StreamScenario(assignment=a, sigma=1e307, tau=None, horizon=1)
        det = DetectorConfig(method=EXACT, b=5.0, A=build_indicator(a))
        plan = McPlan(sc, det, replications=200, cap=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite increment"):
                estimate_arl(plan)
            stream = iter_stream(sc, rng=rng_from_key(plan.master_seed, 0), horizon=plan.cap)
            with pytest.raises(NumericalError, match="non-finite increment"):
                run_detector(stream, det)

    def test_only_a_non_finite_increment_before_the_crossing_is_refused(self, monkeypatch):
        """Row 5 of each piece's draws is +inf, so increment 6 is not finite.
        Post-change paths climb about 5 a step: at b = 12 the path crosses
        before step 6 and stops, as the detector would; at b = inf the
        engine reaches step 6 and raises."""
        monkeypatch.setattr(
            montecarlo, "rng_from_key", lambda seed, stream=0: PoisonedGenerator(rng_from_key(seed, stream), 5)
        )
        plan = McPlan(h0_scenario(tau=0), exact_detector(12.0), replications=1, cap=100)
        assert _rep_path(plan, 0).size < 6
        with pytest.raises(NumericalError, match="non-finite increment nan at t=6"):
            _rep_path(with_b(plan, math.inf), 0)

    def test_finite_increments_whose_piece_sum_overflows_are_scored(self, monkeypatch):
        """Every draw is -1e307, so every increment is about -1e308, finite,
        but each piece's sum overflows to -inf: the index search finds no
        non-finite increment and the path runs on to the cap, with no
        overflow warning."""

        class Constant:
            def standard_normal(self, size):
                return np.full(size, -1e307)

        monkeypatch.setattr(montecarlo, "rng_from_key", lambda seed, stream=0: Constant())
        plan = McPlan(h0_scenario(), exact_detector(math.inf), replications=1, cap=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = _rep_path(plan, 0)
        assert path.size == 40 and np.isfinite(path).all() and (path == path[0]).all()
        assert abs(float(path[0])) > sys.float_info.max / 16


class TestArl:
    def test_requires_a_no_change_scenario(self):
        plan = McPlan(h0_scenario(tau=0), exact_detector(4.0), replications=5, cap=50)
        with pytest.raises(ValueError):
            estimate_arl(plan)

    def test_threshold_near_zero_alarms_right_after_the_lag(self):
        det = DetectorConfig(method=SPECTRAL, b=1e-9, m=2, w=5, d=1.0)
        plan = McPlan(h0_scenario(), det, replications=300, cap=100, master_seed=7)
        est = estimate_arl(plan)
        assert est.truncated == 0
        assert 6.0 <= est.mean <= 17.0

    def test_paired_seeds_make_alarm_times_monotone_in_b(self):
        plans = [
            McPlan(h0_scenario(), exact_detector(b), replications=50, cap=2000)
            for b in (2.0, 4.0, 8.0)
        ]
        for rep in range(50):
            times = [(_rep_alarm(plan, rep) or plan.cap + 1) for plan in plans]
            assert times[0] <= times[1] <= times[2]

    def test_matches_an_independent_reimplementation(self):
        """A plain-loop simulator with its own generator family lands within
        15% of the harness estimate."""
        plan = McPlan(
            h0_scenario(), exact_detector(4.0), replications=4000, cap=2000, master_seed=1
        )
        est = estimate_arl(plan)

        mm = mean_matrix(build_indicator(A21))
        offset = float(np.sum(mm * mm))
        iu = np.triu_indices(3)
        rng = np.random.default_rng(987)
        times = []
        for _ in range(4000):
            s, t = 0.0, 0
            while t < 2000:
                t += 1
                g = np.zeros((3, 3))
                vals = rng.standard_normal(iu[0].size)
                g[iu] = vals
                g.T[iu] = vals
                inc = 2.0 * float(np.sum(g * mm)) - offset
                s = max(s, 0.0) + inc
                if s >= 4.0:
                    break
            times.append(t)
        oracle = float(np.mean(times))
        assert est.mean == pytest.approx(oracle, rel=0.15)

    def test_truncation_is_reported_not_averaged(self):
        plan = McPlan(h0_scenario(), exact_detector(50.0), replications=20, cap=30)
        est = estimate_arl(plan)
        assert est.truncated == 20 and est.used == 0
        assert math.isnan(est.mean)


class TestEdd:
    def test_requires_an_immediate_change_scenario(self):
        plan = McPlan(h0_scenario(), exact_detector(4.0), replications=5, cap=50)
        with pytest.raises(ValueError):
            estimate_edd(plan)

    def test_noiseless_exact_delay_is_deterministic(self):
        sc = h0_scenario(sigma=0.0, tau=0)
        plan = McPlan(sc, exact_detector(12.0), replications=40, cap=50)
        est = estimate_edd(plan)
        assert est.mean == 3.0 and est.se == 0.0 and est.truncated == 0

    def test_noiseless_spectral_delay_includes_the_lag(self):
        sc = h0_scenario(sigma=0.0, tau=0)
        det = DetectorConfig(method=SPECTRAL, b=3.5, m=2, w=2, d=1.0)
        plan = McPlan(sc, det, replications=40, cap=50)
        est = estimate_edd(plan)
        assert est.mean == 4.0 and est.se == 0.0

    def test_delay_grows_with_the_threshold(self):
        sc = h0_scenario(tau=0)
        lo = McPlan(sc, exact_detector(2.0), replications=400, cap=500, master_seed=2)
        hi = McPlan(sc, exact_detector(9.0), replications=400, cap=500, master_seed=2)
        assert estimate_edd(lo).mean <= estimate_edd(hi).mean


class TestCalibration:
    def test_warm_start_within_tolerance_is_returned_unchanged(self):
        plan = McPlan(h0_scenario(), exact_detector(2.0), replications=500, cap=200)
        b = calibrate_threshold(plan, 10.0, rel_tol=0.45)
        assert b == math.log(10.0)

    def test_calibrated_threshold_reproduces_the_target(self):
        plan = McPlan(
            h0_scenario(), exact_detector(2.0), replications=800, cap=500, master_seed=3
        )
        b = calibrate_threshold(plan, 40.0, rel_tol=0.15)
        fresh = McPlan(
            h0_scenario(), exact_detector(b), replications=1500, cap=800, master_seed=91
        )
        est = estimate_arl(fresh)
        assert est.mean == pytest.approx(40.0, rel=0.2)

    def test_rejects_small_targets_and_bad_tolerances(self):
        plan = McPlan(h0_scenario(), exact_detector(2.0), replications=50, cap=200)
        with pytest.raises(ValueError):
            calibrate_threshold(plan, 5.0)
        with pytest.raises(ValueError):
            calibrate_threshold(plan, 20.0, rel_tol=0.6)

    def test_rejects_a_nan_target(self):
        plan = McPlan(h0_scenario(), exact_detector(2.0), replications=50, cap=200)
        with pytest.raises(ValueError, match="at least 10"):
            calibrate_threshold(plan, math.nan)
        with pytest.raises(ValueError, match="at least 10"):
            oc_curve(plan, [math.nan])

    def test_rejects_a_cap_too_small_to_observe_the_target(self):
        plan = McPlan(h0_scenario(), exact_detector(2.0), replications=50, cap=120)
        with pytest.raises(CalibrationError):
            calibrate_threshold(plan, 20.0)

    def test_rejects_scenarios_with_a_change(self):
        plan = McPlan(h0_scenario(tau=3), exact_detector(2.0), replications=50, cap=500)
        with pytest.raises(ValueError):
            calibrate_threshold(plan, 20.0)

    @staticmethod
    def confirm_with(monkeypatch, rewrite):
        """Calibrate an exact plan (40 replications, cap 200, seed 1) to
        gamma = 20 with the confirmation passes' alarm times rewritten by
        rewrite; returns the start id of each pass run."""
        starts = []
        map_reps = montecarlo._map_reps

        def spy(fn, plan, reps, workers):
            starts.append(reps.start)
            return rewrite(map_reps(fn, plan, reps, workers))

        monkeypatch.setattr(montecarlo, "_map_reps", spy)
        plan = McPlan(h0_scenario(), exact_detector(1.0), replications=40, cap=200, master_seed=1)
        with pytest.raises(CalibrationError) as err:
            calibrate_threshold(plan, 20.0, 0.1)
        return starts, str(err.value)

    def test_one_percent_of_confirmation_runs_at_cap_is_refused(self, monkeypatch):
        """One run of 80 that never alarms is 1.25% truncated."""
        starts, message = self.confirm_with(monkeypatch, lambda times: [None] + times[1:])
        assert starts == [40]
        assert message == "1 of 80 confirmation runs hit the cap: increase cap beyond 200"

    def test_a_second_missed_confirmation_is_refused(self, monkeypatch):
        """Both passes read a mean of 40 against the target 20: the retry
        moves the threshold, and the second miss ends the search."""
        starts, message = self.confirm_with(monkeypatch, lambda times: [40] * len(times))
        assert starts == [40, 120]
        assert message == "confirmation run length 40 missed the target 20.0 beyond rel_tol=0.1"


def full_cap_probe(paths, b, lag, cap):
    """Calibration's probe at b over paths run to cap: the mean of each
    path's first crossing of b plus 1 + lag, or cap if it never crosses."""
    total = 0.0
    for path in paths:
        hits = np.nonzero(path >= b)[0]
        total += hits[0] + 1 + lag if hits.size else cap
    return total / len(paths)


def full_cap_calibrate(plan, target_gamma, rel_tol):
    """Slow twin of calibrate_threshold: every path is run to cap, and a
    probe scans each path for its first crossing of b. The search, the
    confirmation and the retry are copied from the calibrator."""
    lag = 0 if plan.detector.method == EXACT else plan.detector.w
    paths = [_rep_path(with_b(plan, math.inf), i) for i in range(plan.replications)]

    def probe(b):
        return full_cap_probe(paths, b, lag, plan.cap)

    def within(value):
        return abs(value - target_gamma) <= rel_tol * target_gamma

    b0 = math.log(target_gamma)

    def solve(tval):
        lo = hi = b0
        value = probe(b0)
        if value < tval:
            for _ in range(80):
                lo, hi = hi, hi * 2.0
                if probe(hi) >= tval:
                    break
            else:
                raise CalibrationError("no threshold reaches the target")
        elif value > tval:
            for _ in range(300):
                hi, lo = lo, lo / 2.0
                if probe(lo) <= tval:
                    break
            else:
                raise CalibrationError("target is below the minimum")
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
        est = _summarize([_rep_alarm(with_b(plan, candidate), i) for i in ids])
        assert est.truncated / len(ids) < 0.01
        if within(est.mean):
            return candidate
        assert attempt == 0, "confirmation missed twice"
        candidate = solve(target_gamma * target_gamma / est.mean)


class TestPathSetDecide:
    """decide(b, test) is test applied to the probe of paths run to cap,
    whatever earlier calls left the paths at."""

    @pytest.mark.parametrize("method", [EXACT, SPECTRAL])
    def test_matches_the_full_cap_probe(self, method):
        if method == EXACT:
            det = exact_detector(1.0)
        else:
            det = DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=3, d=0.2)
        plan = McPlan(h0_scenario(), det, replications=30, cap=200, master_seed=5)
        full = [_rep_path(with_b(plan, math.inf), i) for i in range(plan.replications)]
        tops = sorted(float(path.max()) for path in full)
        assert tops[0] < tops[1]
        # the lowest maximum's path, then every path, must run to cap
        above_one = 0.5 * (tops[0] + tops[1])
        above_all = tops[-1] + 1.0
        grid = [tops[15], 0.5 * tops[0], above_one, tops[5], above_all, tops[25], tops[15]]
        paths = montecarlo._PathSet(plan)
        reps = plan.replications
        for b in grid:
            probe = full_cap_probe(full, b, det.lag, plan.cap)
            for t in (probe, probe - 1 / reps, probe + 1 / reps, 0.5 * probe, 2 * probe):
                assert paths.decide(b, lambda v: v < t) == (probe < t)
                assert paths.decide(b, lambda v: v > t) == (probe > t)
        assert full_cap_probe(full, above_all, det.lag, plan.cap) == plan.cap
        assert [paths.alarm_time(i, above_all) for i in range(reps)] == [plan.cap] * reps

    @pytest.mark.parametrize("method", [EXACT, SPECTRAL])
    def test_the_lower_bound_is_tight(self, method):
        """A path stopped at its crossing of b1, at entry k, can cross b2 on
        its very next step: its lower bound at b2 is k + 2 + lag, its alarm
        time there, and not one more."""
        if method == EXACT:
            det = exact_detector(1.0)
        else:
            det = DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=3, d=0.2)
        plan = McPlan(h0_scenario(tau=0), det, replications=1, cap=200, master_seed=5)
        full = _rep_path(with_b(plan, math.inf), 0)
        k = next(k for k in range(1, full.size - 1) if full[:k].max() < full[k] < full[k + 1])
        paths = montecarlo._PathSet(plan)
        at_k = k + 1 + det.lag
        assert not paths.decide(full[k], lambda v: v < at_k)
        assert paths.alarm_time(0, full[k]) == at_k
        assert not paths.decide(full[k + 1], lambda v: v > at_k + 1)
        assert paths.alarm_time(0, full[k + 1]) == at_k + 1


class TestCalibrationMatchesTheFullCapTwin:
    """Paths stopped at the highest threshold probed give the thresholds
    that paths run to cap give, bit for bit."""

    @pytest.mark.parametrize("convention", [SYMMETRIC, IID_FULL])
    @pytest.mark.parametrize("method", [EXACT, SPECTRAL, TOP1])
    def test_bit_identical_at_one_and_two_workers(self, method, convention):
        if method == EXACT:
            det = exact_detector(1.0)
        else:
            det = DetectorConfig(method=method, b=1.0, m=2, w=3, d=0.6 if method == TOP1 else None)
        sc = h0_scenario(convention=convention)
        plan = McPlan(sc, det, replications=60, cap=200, master_seed=5)
        want = full_cap_calibrate(plan, 20.0, 0.2)
        assert want != math.log(20.0)
        for workers in (1, 2):
            assert calibrate_threshold(plan, 20.0, 0.2, workers=workers) == want

    def test_paths_are_resumed_when_the_search_doubles_past_ln_gamma(self):
        plan = McPlan(h0_scenario(), exact_detector(1.0), replications=100, cap=500)
        want = full_cap_calibrate(plan, 50.0, 0.2)
        assert want > math.log(50.0)
        assert calibrate_threshold(plan, 50.0, 0.2) == want

    def test_each_oracle_generator_is_created_once(self, monkeypatch):
        """The search doubles past ln gamma and bisects back, yet each
        replication's generator is created once and its path resumed; the
        confirmation pass creates its own ids once each."""
        keys = []

        def counting(seed, stream=0):
            keys.append(stream)
            return rng_from_key(seed, stream)

        monkeypatch.setattr(montecarlo, "rng_from_key", counting)
        plan = McPlan(h0_scenario(), exact_detector(1.0), replications=100, cap=500)
        assert calibrate_threshold(plan, 50.0, 0.2) > math.log(50.0)
        path_phase = keys[: keys.index(plan.replications)]
        assert path_phase == list(range(plan.replications))
        assert sorted(keys) == list(range(len(keys)))

    def test_each_windowed_path_is_built_once(self, monkeypatch):
        """The same for the windowed engine's paths, counted as they are
        built: each extension re-draws from the path's key on purpose."""
        built = []
        init = montecarlo._WindowedPath.__init__

        def spy_init(self, plan, rep):
            built.append(rep)
            init(self, plan, rep)

        monkeypatch.setattr(montecarlo._WindowedPath, "__init__", spy_init)
        det = DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=3, d=0.2)
        plan = McPlan(h0_scenario(), det, replications=60, cap=200, master_seed=5)
        assert calibrate_threshold(plan, 20.0, 0.2) > math.log(20.0)
        path_phase = built[: built.index(plan.replications)]
        assert path_phase == list(range(plan.replications))
        assert sorted(built) == list(range(len(built)))

    @pytest.mark.parametrize(
        "det, replications, gamma, cap, seed, want",
        [
            (DetectorConfig(EXACT, b=1.0, A=build_indicator(A21_N4)), 1000, 50.0, 1000, 3, 66_726),
            (DetectorConfig(SPECTRAL, b=1.0, m=1, w=2), 100, 100.0, 2000, 0, 14_792),
        ],
        ids=[EXACT, SPECTRAL],
    )
    def test_the_path_phase_steps_a_pinned_count(
        self, monkeypatch, det, replications, gamma, cap, seed, want
    ):
        """The statistics the path phase steps, counted as extend returns
        them on the ids below replications. The thresholds alone cannot
        show this work: a lower bound in decide one step weaker (l + lag
        for l + 1 + lag) gives every verdict its bits but steps more."""
        stepped = []
        path = montecarlo._path

        class Counted:
            def __init__(self, inner):
                self.inner = inner

            def extend(self, b):
                out = self.inner.extend(b)
                stepped.append(out.size)
                return out

        def counting(plan, rep):
            return Counted(path(plan, rep)) if rep < plan.replications else path(plan, rep)

        monkeypatch.setattr(montecarlo, "_path", counting)
        sc = h0_scenario(assignment=A21_N4)
        plan = McPlan(sc, det, replications=replications, cap=cap, master_seed=seed)
        calibrate_threshold(plan, gamma, 0.2)
        assert sum(stepped) == want

    @staticmethod
    def assert_bit_identical(plan, gamma, rel_tol):
        want = full_cap_calibrate(plan, gamma, rel_tol)
        for workers in (1, 2):
            assert calibrate_threshold(plan, gamma, rel_tol, workers=workers) == want
        return want

    def test_warm_start_returned_early(self):
        plan = McPlan(h0_scenario(), exact_detector(2.0), replications=500, cap=200)
        assert self.assert_bit_identical(plan, 10.0, 0.45) == math.log(10.0)

    def test_windowed_upward_search(self):
        det = DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=3, d=0.2)
        plan = McPlan(h0_scenario(), det, replications=60, cap=200, master_seed=5)
        assert self.assert_bit_identical(plan, 20.0, 0.2) > math.log(20.0)

    def test_paths_that_reach_cap_without_crossing(self, monkeypatch):
        """The doubling search probes 2 ln 20, which one of these paths
        never reaches: the probe needs it, so it runs to cap and counts at
        cap. The path phase builds every path before the confirmation pass
        builds any, so its paths are the first 60 made."""
        plan = McPlan(h0_scenario(), exact_detector(1.0), replications=60, cap=200, master_seed=1)
        want = self.assert_bit_identical(plan, 20.0, 0.2)
        created, capped = [], []
        init, extend = montecarlo._OraclePath.__init__, montecarlo._OraclePath.extend

        def spy_init(self, plan, rep):
            created.append(self)
            init(self, plan, rep)

        def spy_extend(self, b):
            stepped = extend(self, b)
            if not stepped[-1] >= b and created.index(self) < plan.replications:
                capped.append(b)
            return stepped

        monkeypatch.setattr(montecarlo._OraclePath, "__init__", spy_init)
        monkeypatch.setattr(montecarlo._OraclePath, "extend", spy_extend)
        assert calibrate_threshold(plan, 20.0, 0.2) == want
        assert capped == [2 * math.log(20.0)]

    @pytest.mark.parametrize("method,seed", [(EXACT, 1), (SPECTRAL, 5)])
    def test_retry_after_a_missed_confirmation(self, monkeypatch, method, seed):
        starts = []
        map_reps = montecarlo._map_reps

        def spy(fn, plan, reps, workers):
            starts.append(reps.start)
            return map_reps(fn, plan, reps, workers)

        monkeypatch.setattr(montecarlo, "_map_reps", spy)
        if method == EXACT:
            det = exact_detector(1.0)
        else:
            det = DetectorConfig(method=SPECTRAL, b=1.0, m=2, w=3, d=0.2)
        plan = McPlan(h0_scenario(), det, replications=40, cap=200, master_seed=seed)
        self.assert_bit_identical(plan, 20.0, 0.1)
        assert starts == [40, 120] * 2


class TestOcCurve:
    def test_rows_are_calibrated_and_ordered(self):
        plan = McPlan(
            h0_scenario(), exact_detector(2.0), replications=500, cap=450, master_seed=4
        )
        rows = oc_curve(plan, [15.0, 45.0], rel_tol=0.2)
        assert [r.gamma for r in rows] == [15.0, 45.0]
        assert rows[0].b < rows[1].b
        assert rows[0].edd <= rows[1].edd
        assert all(r.se >= 0 for r in rows)

    def test_single_point_curve(self):
        plan = McPlan(
            h0_scenario(), exact_detector(2.0), replications=400, cap=300, master_seed=4
        )
        rows = oc_curve(plan, [25.0], rel_tol=0.2)
        assert len(rows) == 1 and rows[0].gamma == 25.0

    def test_rejects_non_ascending_gammas(self):
        plan = McPlan(h0_scenario(), exact_detector(2.0), replications=50, cap=500)
        with pytest.raises(ValueError):
            oc_curve(plan, [50.0, 50.0])
        with pytest.raises(ValueError):
            oc_curve(plan, [50.0, 20.0])

    def test_oracle_delay_beats_windowed_delay_at_a_matched_target(self):
        """At a run-length target both methods can actually attain, the
        oracle's delay is no worse than the windowed detector's (within two
        pooled standard errors); the window lag alone already separates them
        here."""
        exact_plan = McPlan(
            h0_scenario(), exact_detector(2.0), replications=300, cap=150, master_seed=21
        )
        spectral_plan = McPlan(
            h0_scenario(),
            DetectorConfig(method=SPECTRAL, b=2.0, m=2, w=5),
            replications=300,
            cap=150,
            master_seed=21,
        )
        (exact_row,) = oc_curve(exact_plan, [15.0], rel_tol=0.2)
        (spectral_row,) = oc_curve(spectral_plan, [15.0], rel_tol=0.2)
        pooled = math.hypot(exact_row.se, spectral_row.se)
        assert exact_row.edd <= spectral_row.edd + 2.0 * pooled


def snapshot_dot_projector_values(scenario, m, w, replications, master_seed, offset):
    """Slow twin of the first-increment sampler: replication i, drawn from key
    (master_seed, 2i + offset), dots the first snapshot with the projector
    of the window of the w snapshots after it, instead of scoring through
    the detector's statistic. Returns tr(G P) per replication."""
    sc = replace(scenario, horizon=w + 1)
    vals = np.empty(replications)
    for i in range(replications):
        rng = rng_from_key(master_seed, 2 * i + offset)
        snaps = list(iter_stream(sc, rng=rng))
        p = projector(estimate_subspace(snaps[1:], m))
        vals[i] = float(np.dot(snaps[0].weights.ravel(), p.ravel()))
    return vals


def snapshot_dot_projector_drift(scenario, m, w, replications, master_seed=0):
    """Slow twin of estimate_drift_mc over snapshot_dot_projector_values.
    Returns {phase: (mean, se)}."""
    means = {}
    for phase, tau, offset in (("pre", None, 0), ("post", 0, 1)):
        sc = replace(scenario, tau=tau)
        vals = snapshot_dot_projector_values(sc, m, w, replications, master_seed, offset)
        se = float(vals.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        means[phase] = (float(vals.mean()), se)
    return means


class TestDriftMc:
    @pytest.mark.parametrize(
        "sizes,n,sigma,convention",
        [
            ((), 8, 1.0, SYMMETRIC),
            ((12, 6), None, 1.0, SYMMETRIC),
            ((3, 2), 8, 0.7, IID_FULL),
            ((12, 6), None, 0.0, SYMMETRIC),
            ((3, 2), 8, 0.0, IID_FULL),
        ],
    )
    @pytest.mark.parametrize("m,w", [(2, 5), (1, 3)])
    def test_matches_the_snapshot_dot_projector_twin(self, sizes, n, sigma, convention, m, w):
        """Scoring through iter_statistic adds d back to the increment, which
        may move a value by an ulp; noiseless values are exact."""
        sc = StreamScenario(
            assignment=assignment_from_sizes(sizes, n=n),
            sigma=sigma,
            tau=None,
            horizon=1,
            convention=convention,
        )
        res = estimate_drift_mc(sc, m=m, w=w, replications=40, master_seed=9)
        want = snapshot_dot_projector_drift(sc, m, w, 40, master_seed=9)
        for est, (mean, se) in ((res.pre, want["pre"]), (res.post, want["post"])):
            assert est.used == 40 and est.truncated == 0
            if sigma == 0:
                assert (est.mean, est.se) == (mean, se)
            else:
                assert est.mean == pytest.approx(mean, rel=1e-12)
                assert est.se == pytest.approx(se, rel=1e-12)

    def test_pure_noise_projection_has_no_drift(self):
        sc = StreamScenario(
            assignment=assignment_from_sizes((), n=8), sigma=1.0, tau=None, horizon=1
        )
        res = estimate_drift_mc(sc, m=2, w=10, replications=400, master_seed=6)
        assert abs(res.pre.mean) <= 4.0 * max(res.pre.se, 1e-12)

    def test_noiseless_post_change_projection_is_the_eigenvalue_sum(self):
        sc = StreamScenario(
            assignment=assignment_from_sizes((12, 6)), sigma=0.0, tau=None, horizon=1
        )
        res = estimate_drift_mc(sc, m=2, w=5, replications=20)
        assert res.post.mean == pytest.approx(18.0, abs=1e-9)
        assert res.post.se == 0.0
        assert res.pre.mean == 0.0

    def test_longer_windows_recover_more_of_the_signal(self):
        sc = StreamScenario(
            assignment=assignment_from_sizes((12, 6)), sigma=1.0, tau=None, horizon=1
        )
        short = estimate_drift_mc(sc, m=2, w=5, replications=150, master_seed=8)
        long = estimate_drift_mc(sc, m=2, w=50, replications=150, master_seed=8)
        assert long.post.mean > short.post.mean

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            estimate_drift_mc(h0_scenario(), m=2, w=5, replications=0)


class TestEqualizerMc:
    def test_zero_tilt_is_exactly_one(self):
        assert verify_equalizer_mc(10, 2, 30, 0.5, 0.0, replications=1) == 1.0

    def test_noiseless_value_is_the_closed_form(self):
        """With sigma = 0 every replication contributes exp(-delta d) with
        d = m / delta, so the estimate equals exp(-m) without sampling."""
        got = verify_equalizer_mc(10, 2, 30, 0.0, 1.0, replications=5)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_heavy_tail_guard_warns_and_refuses(self):
        with pytest.warns(UserWarning, match="heavy-tailed"):
            with pytest.raises(ValidityError):
                verify_equalizer_mc(10, 2, 30, 1.0, 2.0, replications=10)

    def test_monte_carlo_matches_the_conditional_moment(self):
        """The scored snapshot is independent of the estimated projector, and
        the projector has rank m with Frobenius norm sqrt(m), so the tilted
        moment is exp(m sigma^2 delta^2 / 2 - delta d) regardless of the
        window: about 0.1396 at these parameters. The estimate must land
        within a few percent of that value."""
        sigma, delta, m = 0.5, 0.5, 2
        d = sigma * sigma * delta / 2.0 + m / delta
        want = math.exp(m * sigma * sigma * delta * delta / 2.0 - delta * d)
        got = verify_equalizer_mc(10, 2, 30, sigma, delta, replications=20000)
        assert want == pytest.approx(0.13963, rel=1e-4)
        assert got == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize(
        "n,m,w,sigma,delta,replications,seed",
        [
            (10, 2, 30, 0.5, 0.5, 300, 3),
            (6, 1, 4, 0.3, 1.2, 300, 7),
            (4, 4, 3, 0.5, 0.3, 100, 1),
            (5, 2, 1, 0.4, 0.8, 100, 2),
        ],
    )
    def test_matches_the_snapshot_dot_projector_twin(self, n, m, w, sigma, delta, replications, seed):
        """The moment is the mean of exp(delta (x - d)) over the twin's
        pre-change values x = tr(G P), on the same keys as estimate_drift_mc's
        pre phase; m = n and w = 1 are the edge cases."""
        sc = StreamScenario(
            assignment=assignment_from_sizes((), n=n),
            sigma=sigma,
            tau=None,
            horizon=1,
            convention=IID_FULL,
        )
        d = drift_for_delta(delta, sigma, m)
        x = snapshot_dot_projector_values(sc, m, w, replications, seed, 0)
        want = float(np.mean(np.exp(delta * (x - d))))
        got = verify_equalizer_mc(n, m, w, sigma, delta, replications, master_seed=seed)
        assert got == pytest.approx(want, rel=1e-12)

    def test_is_a_pure_function_of_the_seed(self):
        args = (6, 2, 4, 0.5, 0.5, 50)
        first = verify_equalizer_mc(*args, master_seed=5)
        assert verify_equalizer_mc(*args, master_seed=5) == first
        assert verify_equalizer_mc(*args, master_seed=6) != first

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            verify_equalizer_mc(10, 0, 30, 0.5, 0.5, replications=10)
        with pytest.raises(ValueError):
            verify_equalizer_mc(2, 3, 30, 0.5, 0.5, replications=10)
        with pytest.raises(ValueError):
            verify_equalizer_mc(10, 2, 0, 0.5, 0.5, replications=10)
        with pytest.raises(ValueError):
            verify_equalizer_mc(10, 2, 30, -0.5, 0.5, replications=10)
        with pytest.raises(ValueError):
            verify_equalizer_mc(10, 2, 30, 0.5, -0.5, replications=10)
        with pytest.raises(ValueError):
            verify_equalizer_mc(10, 2, 30, math.nan, 0.5, replications=10)
        with pytest.raises(ValueError):
            verify_equalizer_mc(10, 2, 30, 0.5, math.nan, replications=10)
        with pytest.raises(ValueError):
            verify_equalizer_mc(10, 2, 30, 0.0, math.inf, replications=10)
        with pytest.raises(ValueError):
            verify_equalizer_mc(10, 2, 30, 0.5, 0.5, replications=0)


    @pytest.mark.parametrize(
        "sigma, delta", [(0.0, 0.5), (0.5, 0.0), (0.5, 0.5)], ids=["sigma0", "delta0", "monte-carlo"]
    )
    @pytest.mark.parametrize("count", ["n", "m", "w", "replications"])
    @pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
    def test_counts_are_integers_on_every_path(self, sigma, delta, count, value):
        """The sigma = 0 and delta = 0 returns used to skip every integer
        check: m = 2.5 gave a drift built from 2.5, and replications = True
        returned 1.0."""
        args = dict(n=10, m=2, w=3, sigma=sigma, delta=delta, replications=5)
        args[count] = value
        with pytest.raises(ValueError, match=re.escape(f"{count} must be an integer, got {value!r}")):
            verify_equalizer_mc(**args)

    @pytest.mark.parametrize("sigma, delta", [(0.0, 0.5), (0.5, 0.0), (0.5, 0.5)])
    def test_integral_float_counts_run_as_their_ints(self, sigma, delta):
        got = verify_equalizer_mc(10.0, 2.0, 3.0, sigma, delta, 5.0, master_seed=1)
        assert got == verify_equalizer_mc(10, 2, 3, sigma, delta, 5, master_seed=1)


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_refused_before_any_replication(self, workers):
        plan = McPlan(h0_scenario(), exact_detector(3.0), replications=4, cap=200)
        post = replace(plan, scenario=h0_scenario(tau=0))
        calls = [
            lambda: estimate_arl(plan, workers=workers),
            lambda: estimate_edd(post, workers=workers),
            lambda: calibrate_threshold(plan, 10.0, workers=workers),
            lambda: oc_curve(plan, [10.0], workers=workers),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
                call()

    @pytest.mark.parametrize("workers", [1.5, True, "2"])
    def test_a_worker_count_that_is_not_an_integer_is_refused(self, workers):
        """1.5 raised a bare TypeError, and True ran as one worker."""
        plan = McPlan(h0_scenario(), exact_detector(3.0), replications=4, cap=200)
        post = replace(plan, scenario=h0_scenario(tau=0))
        calls = [
            lambda: estimate_arl(plan, workers=workers),
            lambda: estimate_edd(post, workers=workers),
            lambda: calibrate_threshold(plan, 10.0, workers=workers),
            lambda: oc_curve(plan, [10.0], workers=workers),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"workers must be an integer, got {workers!r}")):
                call()

    def test_an_integral_float_worker_count_runs_as_its_int(self):
        plan = McPlan(h0_scenario(), exact_detector(3.0), replications=4, cap=200)
        assert estimate_arl(plan, workers=1.0) == estimate_arl(plan, workers=1)


class TestWorkerDeterminism:
    def test_worker_count_does_not_change_the_estimate(self):
        plan = McPlan(
            h0_scenario(), exact_detector(3.0), replications=64, cap=400, master_seed=9
        )
        one = estimate_arl(plan, workers=1)
        two = estimate_arl(plan, workers=2)
        assert one == two

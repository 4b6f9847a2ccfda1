import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdsc import ChangePointSet, Penalty, SegStats, detect_changepoints, penalty_value, segment_cost
from lcdsc import changepoint


def alternating_instance(seed):
    """Bounded alternating-sign data with 0-2 strong variance regimes.

    The bounded magnitudes keep short-window variances away from zero, so
    exhaustive enumeration up to three changes stays the true optimum.
    """
    rng = np.random.default_rng([4242, seed])
    n = int(rng.integers(16, 41))
    mags = rng.uniform(0.7, 1.3, n)
    signs = np.ones(n)
    signs[1::2] = -1
    x = mags * signs
    kind = seed % 3
    if kind == 1:
        cut = int(rng.integers(5, n - 5))
        x[cut:] *= 3.0
    elif kind == 2:
        c1 = int(rng.integers(4, n // 2))
        c2 = int(rng.integers(n // 2 + 2, n - 4))
        x[c1:c2] *= 3.0
    return x


def enumerate_best(x, penalty, msl, max_m=3):
    """Brute-force minimum over every segmentation with at most max_m changes."""
    n = len(x)
    stats = SegStats.from_series(x)
    best = None
    for m in range(0, max_m + 1):
        for taus in itertools.combinations(range(msl - 1, n - msl), m):
            starts = [0] + [t + 1 for t in taus]
            ends = list(taus) + [n - 1]
            lengths = [e - s + 1 for s, e in zip(starts, ends)]
            if any(length < msl for length in lengths):
                continue
            total = sum(segment_cost(stats, s, e) for s, e in zip(starts, ends))
            total += penalty_value(penalty, lengths)
            key = (total, m, taus)
            if best is None or key < best:
                best = key
    return best


def unpruned_search(x, penalty, msl, penalty_scale=1.0):
    """Optimal partitioning over every admissible start, carrying whole tau tuples.

    The same arithmetic as ``detect_changepoints`` without pruning or
    back-pointers, so the two must agree bit for bit, ties included.
    """
    n = len(x)
    stats = SegStats.from_series(x)
    ps, pq = stats.prefix_sum, stats.prefix_sumsq
    per_change = {"aic": penalty.beta, "bic": math.log(n), "mbic": 3.0 * math.log(n)}[penalty.kind]
    per_change *= penalty_scale
    f_best, taus_of = {0: -per_change}, {0: ()}
    for t in range(msl, n + 1):
        starts = np.array([0, *range(msl, t - msl + 1)], dtype=np.intp)
        lengths = (t - starts).astype(float)
        mean = (ps[t] - ps[starts]) / lengths
        var = np.maximum((pq[t] - pq[starts]) / lengths - mean * mean, stats.var_floor)
        costs = lengths * np.log(var)
        if penalty.kind == "mbic":
            costs += penalty_scale * np.log(lengths)
        vals = np.array([f_best[s] for s in starts]) + costs + per_change
        f_best[t] = float(vals.min())
        tied = [taus_of[s] + ((s - 1,) if s else ()) for s in starts[vals == f_best[t]].tolist()]
        taus_of[t] = min(tied, key=lambda taus: (len(taus), taus))
    return taus_of[n]


class TestSegmentCost:
    def test_constant_segment_hits_floor(self):
        x = np.concatenate([np.full(10, 5.0), np.random.default_rng(0).normal(0, 1, 10)])
        stats = SegStats.from_series(x)
        assert segment_cost(stats, 0, 9) == pytest.approx(10 * math.log(stats.var_floor))

    def test_overflowing_sum_of_squares_is_named(self):
        with pytest.raises(OverflowError, match="sum of squares or variance overflows"):
            SegStats.from_series(np.full(10, 1e200))

    def test_prefix_sums_are_frozen_not_copied(self):
        n = 200000
        x = np.random.default_rng(2).normal(0, 1, n)
        SegStats.from_series(x[:10])
        tracemalloc.start()
        try:
            stats = SegStats.from_series(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # both prefix sums and one temporary: copying the two sums made it 4 rows
        assert peak < 3.5 * 8 * n, peak / (8 * n)
        for arr in (stats.prefix_sum, stats.prefix_sumsq):
            assert not arr.flags.writeable

    def test_unit_variance_pair(self):
        stats = SegStats.from_series([0.0, 2.0])
        assert segment_cost(stats, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_segment_matches_direct_variance(self):
        x = np.random.default_rng(1).normal(0, 2.0, 1000)
        stats = SegStats.from_series(x)
        got = segment_cost(stats, 0, 999)
        assert abs(got - 1000 * math.log(4.0)) < 0.05 * abs(1000 * math.log(4.0))

    def test_too_short(self):
        stats = SegStats.from_series(np.arange(10.0))
        with pytest.raises(ValueError, match="too short"):
            segment_cost(stats, 3, 3)

    def test_fractional_bounds(self):
        stats = SegStats.from_series(np.arange(10.0))
        with pytest.raises(ValueError, match="segment start must be an integer"):
            segment_cost(stats, 0.5, 5)
        with pytest.raises(ValueError, match="segment end must be an integer"):
            segment_cost(stats, 0, 5.0)
        assert segment_cost(stats, np.int64(0), np.int64(5)) == segment_cost(stats, 0, 5)


class TestChangePointSet:
    def test_segments_tile_the_series(self):
        assert ChangePointSet((4, 7), 0.0).segments(10) == [(0, 4), (5, 7), (8, 9)]
        assert ChangePointSet((), 0.0).segments(1) == [(0, 0)]

    def test_numpy_integer_taus_become_ints(self):
        cps = ChangePointSet([np.int64(2), np.intp(5)], 0.0)
        assert cps.taus == (2, 5) and all(type(tau) is int for tau in cps.taus)

    @pytest.mark.parametrize("taus", [(5, 3), (3, 3), (-1, 4)])
    def test_unordered_or_negative_taus(self, taus):
        with pytest.raises(ValueError, match="strictly increasing and nonnegative"):
            ChangePointSet(taus, 0.0)

    @pytest.mark.parametrize("tau", [1.5, 2.0, math.nan])
    def test_non_integer_tau(self, tau):
        with pytest.raises(ValueError, match="change point must be an integer"):
            ChangePointSet((tau,), 0.0)

    @pytest.mark.parametrize("n", [0, 5, 9])
    def test_segments_need_every_tau_before_the_last_sample(self, n):
        cps = ChangePointSet((3, 8), 0.0) if n else ChangePointSet((), 0.0)
        with pytest.raises(ValueError, match="do not split"):
            cps.segments(n)

    def test_fractional_length(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            ChangePointSet((3,), 0.0).segments(10.0)


class TestPenaltyValue:
    def test_no_change_baselines(self):
        assert penalty_value(Penalty("aic", 2.0), [100]) == 0.0
        assert penalty_value(Penalty("bic"), [100]) == 0.0
        assert penalty_value(Penalty("mbic"), [100]) == pytest.approx(math.log(100))

    def test_bic_formula(self):
        assert penalty_value(Penalty("bic"), [30, 30, 40]) == pytest.approx(
            9.210340371976184
        )

    def test_mbic_formula(self):
        # hand evaluation: 3*log(100) + log(40) + log(60)
        want = 3 * math.log(100) + math.log(40) + math.log(60)
        got = penalty_value(Penalty("mbic"), [40, 60])
        assert got == pytest.approx(want)
        assert got == pytest.approx(21.598734574300313)

    def test_aic_scales_with_beta(self):
        assert penalty_value(Penalty("aic", 2.5), [10, 10, 10, 20]) == pytest.approx(7.5)

    def test_lengths_must_be_positive(self):
        for lengths in ([40, 0, 60], [-1, 101], []):
            with pytest.raises(ValueError, match="at least 1"):
                penalty_value(Penalty("bic"), lengths)

    def test_lengths_must_be_integers(self):
        with pytest.raises(ValueError, match="segment length must be an integer"):
            penalty_value(Penalty("mbic"), [40.5, 59.5])

    def test_aic_requires_beta(self):
        with pytest.raises(ValueError, match="beta"):
            Penalty("aic")
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                Penalty("aic", bad)
        with pytest.raises(ValueError, match="unknown penalty"):
            Penalty("bogus")

    @pytest.mark.parametrize("kind", ["bic", "mbic"])
    @pytest.mark.parametrize("beta", [5.0, -1.0, math.nan, math.inf])
    def test_beta_applies_only_to_aic(self, kind, beta):
        with pytest.raises(ValueError, match="beta applies only to the aic penalty"):
            Penalty(kind, beta)
        assert Penalty(kind, 0.0) == Penalty(kind)


class TestDetect:
    def test_null_data_mostly_empty(self):
        empties = 0
        for seed in range(20):
            x = np.random.default_rng(seed).normal(0, 1, 400)
            if not detect_changepoints(x, Penalty("mbic"), 10).taus:
                empties += 1
        assert empties >= 18

    def test_single_variance_split(self):
        x = np.concatenate(
            [
                np.random.default_rng([21, 0]).normal(0, 1, 100),
                np.random.default_rng([21, 1]).normal(0, math.sqrt(10), 100),
            ]
        )
        got = detect_changepoints(x, Penalty("mbic"), 10)
        assert len(got.taus) == 1
        assert 95 <= got.taus[0] <= 105
        # independent oracle: scan every admissible single split
        stats = SegStats.from_series(x)
        best = None
        for tau in range(9, 190):
            total = (
                segment_cost(stats, 0, tau)
                + segment_cost(stats, tau + 1, 199)
                + penalty_value(Penalty("mbic"), [tau + 1, 199 - tau])
            )
            if best is None or total < best[0]:
                best = (total, tau)
        assert got.taus[0] == best[1]
        assert got.total_cost == best[0]

    def test_small_instance_matches_enumeration(self):
        x = alternating_instance(1)
        for penalty in (Penalty("bic"), Penalty("mbic")):
            got = detect_changepoints(x, penalty, 3)
            want = enumerate_best(x, penalty, 3)
            assert got.taus == want[2]
            assert got.total_cost == want[0]

    def test_oracle_equivalence_over_seeds(self):
        for seed in range(10):
            x = alternating_instance(seed)
            for penalty in (Penalty("bic"), Penalty("mbic")):
                got = detect_changepoints(x, penalty, 3)
                assert len(got.taus) <= 3
                want = enumerate_best(x, penalty, 3)
                assert got.taus == want[2]
                assert got.total_cost == want[0]

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(12, 40).flatmap(
            lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        ),
        st.integers(2, 4),
        st.sampled_from(["bic", "mbic", "aic"]),
        st.integers(1, 8),
    )
    def test_property_matches_enumeration(self, values, msl, kind, beta):
        # small integers force exact ties and constant runs at the variance floor
        x = np.array(values, dtype=float)
        penalty = Penalty("aic", float(beta)) if kind == "aic" else Penalty(kind)
        got = detect_changepoints(x, penalty, msl)
        want = enumerate_best(x, penalty, msl)
        # The search adds costs in another order than the enumeration, so splits
        # whose objectives differ only by rounding (|objective| < 3e4 here, so
        # far less than 1e-9) may be ranked either way.  A split with at most
        # three changes is among the enumerated ones, so this bounds it from
        # both sides; one with more can only beat the enumeration.
        assert got.total_cost <= want[0] + 1e-9

    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(2, 12).flatmap(
            lambda msl: st.tuples(
                st.integers(max(12, 2 * msl), 150).flatmap(
                    lambda n: st.one_of(
                        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                        st.lists(st.floats(-3, 3), min_size=n, max_size=n),
                    )
                ),
                st.just(msl),
            )
        ),
        st.sampled_from(["bic", "mbic", "aic"]),
        st.floats(0.5, 8.0),
        st.sampled_from([1.0, 2.0]),
    )
    def test_property_matches_unpruned_search(self, values_msl, kind, beta, scale):
        # min_seg_len sets the height of the blocks of ends, and n how full the last one is
        values, msl = values_msl
        x = np.array(values, dtype=float)
        penalty = Penalty("aic", beta) if kind == "aic" else Penalty(kind)
        got = detect_changepoints(x, penalty, msl, scale)
        assert got.taus == unpruned_search(x, penalty, msl, scale)

    def test_every_block_shape_matches_unpruned_search(self, monkeypatch):
        # ends are scored in blocks of min_seg_len rows unless a cell budget
        # caps them; cover full and partial last blocks, capped heights (the
        # first block among them) and one-row blocks wider than the budget
        rng = np.random.default_rng(41)
        for cells in (None, 1, 7, 40, 60):
            if cells is not None:
                monkeypatch.setattr(changepoint, "_BLOCK_CELLS", cells)
            for msl in range(2, 13):
                for n in range(2 * msl, 5 * msl + 1, 3):
                    for x in (rng.integers(-2, 3, n).astype(float), rng.normal(0, 1, n)):
                        for penalty in (Penalty("bic"), Penalty("mbic"), Penalty("aic", 1.5)):
                            got = detect_changepoints(x, penalty, msl, 2.0)
                            assert got.taus == unpruned_search(x, penalty, msl, 2.0)

    def test_exact_ties_follow_the_tie_rule(self):
        # periodic series tie exactly between splits with as many changes;
        # the earliest tied start is not the one the tie rule picks here
        cases = [
            (([0.0, 2.0, -1.0] * 6)[:17], Penalty("aic", 0.5), (1, 3, 7, 9, 14)),
            (([1.0, 0.0, -2.0] * 6)[:17], Penalty("aic", 0.5), (1, 5, 7, 12, 14)),
            (([1.0, 2.0, 2.0, -2.0, 1.0] * 5)[:21], Penalty("bic"), (1, 3, 5, 7, 10, 12, 18)),
        ]
        for values, penalty, want in cases:
            x = np.array(values)
            got = detect_changepoints(x, penalty, 2)
            assert got.taus == want
            assert got.taus == unpruned_search(x, penalty, 2)

    def test_memory_does_not_grow_with_min_seg_len(self):
        # a block of min_seg_len ends would be 3 x 500 x 5002 floats (60 MB);
        # the cell budget bounds every block
        x = np.random.default_rng(42).normal(0, 1, 6000)
        tracemalloc.start()
        try:
            detect_changepoints(x, Penalty("mbic"), 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            detect_changepoints(np.ones(15), Penalty("bic"), 10)
        with pytest.raises(ValueError, match="min_seg_len"):
            detect_changepoints(np.ones(15), Penalty("bic"), 1)
        for bad in (2.5, math.nan, 3.0):
            with pytest.raises(ValueError, match="min_seg_len must be an integer"):
                detect_changepoints(np.ones(30), Penalty("bic"), bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="penalty_scale"):
                detect_changepoints(np.ones(30), Penalty("bic"), 10, penalty_scale=bad)

    @pytest.mark.parametrize("penalty, scale", [
        (Penalty("aic", 1e308), 2.0),
        (Penalty("aic", 1e308), 1.0),
        (Penalty("bic"), 1e308),
        (Penalty("mbic"), 1e307),
    ])
    def test_overflowing_penalty_is_named(self, penalty, scale):
        x = alternating_instance(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=f"{penalty.kind} penalty overflows"):
                detect_changepoints(x, penalty, 5, scale)

    def test_huge_finite_penalty_finds_no_changes(self):
        x = alternating_instance(3)
        assert detect_changepoints(x, Penalty("aic", 1e300), 5).taus == ()

    def test_segments_layout(self):
        x = alternating_instance(1)
        cps = detect_changepoints(x, Penalty("mbic"), 3)
        segs = cps.segments(len(x))
        assert segs[0][0] == 0
        assert segs[-1][1] == len(x) - 1
        for (a, b), (c, _) in zip(segs, segs[1:]):
            assert c == b + 1
        assert all(b - a + 1 >= 3 for a, b in segs)


class TestInvariants:
    def test_shift_invariance(self):
        x = alternating_instance(4)
        base = detect_changepoints(x, Penalty("mbic"), 3)
        shifted = detect_changepoints(x + 42.0, Penalty("mbic"), 3)
        assert base.taus == shifted.taus

    def test_scale_shifts_cost_but_not_taus(self):
        x = alternating_instance(7)
        stats = SegStats.from_series(x)
        stats_scaled = SegStats.from_series(2.0 * x)
        shift = segment_cost(stats_scaled, 0, 9) - segment_cost(stats, 0, 9)
        assert shift == pytest.approx(10 * 2 * math.log(2.0))
        base = detect_changepoints(x, Penalty("mbic"), 3)
        scaled = detect_changepoints(2.0 * x, Penalty("mbic"), 3)
        assert base.taus == scaled.taus

    def test_larger_penalty_never_adds_changes(self):
        for seed in range(8):
            x = alternating_instance(seed)
            n = len(x)
            small = detect_changepoints(x, Penalty("bic"), 3)
            big = detect_changepoints(x, Penalty("aic", 2.5 * math.log(n)), 3)
            assert len(big.taus) <= len(small.taus)

    def test_penalty_scale_monotone(self):
        x = np.concatenate(
            [
                np.random.default_rng([31, 0]).normal(0, 1, 60),
                np.random.default_rng([31, 1]).normal(0, 3, 60),
            ]
        )
        base = detect_changepoints(x, Penalty("bic"), 5)
        assert detect_changepoints(x, Penalty("bic"), 5, penalty_scale=1.0).taus == base.taus
        scaled = detect_changepoints(x, Penalty("bic"), 5, penalty_scale=4.0)
        assert len(scaled.taus) <= len(base.taus)

    def test_pruning_disabled_on_floor_risk(self):
        # constant run forces the variance floor; result must still be exact
        x = np.concatenate([np.full(12, 1.0), alternating_instance(2)])
        for penalty in (Penalty("bic"), Penalty("mbic")):
            got = detect_changepoints(x, penalty, 3)
            want = enumerate_best(x, penalty, 3)
            if len(got.taus) <= 3:
                assert got.total_cost <= want[0]

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from lcdsc import (
    SegmentDecision,
    f_cdf,
    f_test_segment,
    holm_bonferroni,
    holm_thresholds,
    sample_variance,
)


def f_cdf_quadrature(x, df1, df2):
    """Independent oracle: adaptive quadrature of the beta integrand with
    the endpoint singularity folded into the integration weight."""
    a, b = df1 / 2, df2 / 2
    z = df1 * x / (df1 * x + df2)
    ln_beta = special.betaln(a, b)

    def regularized(a_, b_, z_):
        val, _ = integrate.quad(
            lambda t: (1 - t) ** (b_ - 1) / math.exp(ln_beta),
            0,
            z_,
            weight="alg",
            wvar=(a_ - 1, 0),
            limit=200,
        )
        return val

    if z <= 0.5:
        return regularized(a, b, z)
    return 1 - regularized(b, a, 1 - z)


DF = st.integers(1, 10**6)
P_VALUES = st.lists(st.floats(0.0, 1.0), max_size=30)
ALPHAS = st.floats(0.001, 0.999)


def holm_walk(ps, alpha):
    """Reference Holm: walk the p-values in stable ascending order and
    reject until the first one that fails ``alpha / (K - rank)``."""
    k = len(ps)
    flags = [False] * k
    for rank, idx in enumerate(sorted(range(k), key=ps.__getitem__)):
        if not ps[idx] < alpha / (k - rank):
            break
        flags[idx] = True
    return flags


@st.composite
def holm_cases(draw):
    """(p-values, alpha) with ties, p-values on and next to the thresholds,
    and alpha down to the smallest subnormal, where thresholds round to ties."""
    alpha = draw(st.one_of(st.floats(1e-300, 0.999999), st.floats(5e-324, 1e-300)))
    k = draw(st.integers(0, 12))
    on = [alpha / m for m in range(1, k + 1)]
    near = on + [math.nextafter(t, 2.0) for t in on] + [math.nextafter(t, -1.0) for t in on]
    pool = [0.0, 1.0] + [min(max(v, 0.0), 1.0) for v in near]
    p = st.one_of(st.floats(0.0, 1.0), st.sampled_from(pool))
    return draw(st.lists(p, min_size=k, max_size=k)), alpha


class TestSampleVariance:
    def test_constant(self):
        assert sample_variance([5.0, 5.0, 5.0], 0, 2) == 0.0

    def test_hand_arithmetic(self):
        assert sample_variance([0.0, 2.0], 0, 1) == pytest.approx(1.0)

    def test_monte_carlo(self):
        x = np.random.default_rng(0).normal(0, 3.0, 1000)
        assert abs(sample_variance(x, 0, 999) - 9.0) < 0.9

    def test_empty_segment(self):
        with pytest.raises(ValueError, match="empty"):
            sample_variance([1.0, 2.0], 1, 0)

    def test_fractional_bounds(self):
        x = np.arange(5.0)
        with pytest.raises(ValueError, match="segment start must be an integer"):
            sample_variance(x, 1.5, 3)
        with pytest.raises(ValueError, match="segment end must be an integer"):
            sample_variance(x, 1, 3.0)
        assert sample_variance(x, np.int64(1), np.int64(3)) == sample_variance(x, 1, 3)


class TestFCdf:
    def test_symmetry_point(self):
        for d in (*range(1, 21), 10**6):
            assert abs(f_cdf(1.0, d, d) - 0.5) < 1e-12

    def test_limits(self):
        assert f_cdf(0.0, 5, 12) == 0.0
        assert f_cdf(float("inf"), 5, 12) == 1.0
        assert f_cdf(1e12, 5, 12) > 1 - 1e-9

    def test_against_quadrature(self):
        got = f_cdf(2.5, 5, 12)
        want = f_cdf_quadrature(2.5, 5, 12)
        assert abs(got - want) < 1e-8

    def test_monotone_in_x(self):
        xs = [0.01, 0.1, 0.3, 0.7, 1.0, 1.5, 3.0, 10.0, 50.0]
        vals = [f_cdf(x, 7, 9) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_reciprocal_symmetry(self):
        for x in (0.2, 0.7, 1.3, 4.0, 11.0):
            for d1, d2 in ((3, 8), (10, 10), (50, 7)):
                assert abs(f_cdf(x, d1, d2) - (1 - f_cdf(1 / x, d2, d1))) < 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            f_cdf(1.0, 0, 5)
        with pytest.raises(ValueError):
            f_cdf(-0.5, 5, 5)

    def test_degrees_of_freedom_are_integers(self):
        with pytest.raises(ValueError, match="df1 must be an integer"):
            f_cdf(0.5, 2.5, 3)
        with pytest.raises(ValueError, match="df2 must be an integer"):
            f_cdf(0.5, 2, math.nan)
        with pytest.raises(ValueError, match="at least 1"):
            f_cdf(0.5, 2, 0)
        assert f_cdf(0.5, np.int64(2), np.int64(3)) == f_cdf(0.5, 2, 3)

    def test_nan_x_is_named(self):
        with pytest.raises(ValueError, match="x is NaN"):
            f_cdf(math.nan, 2, 3)

    @settings(deadline=None)
    @given(st.floats(0.0, 1e12), st.floats(0.0, 1e12), DF, DF)
    def test_property_bounded_and_nondecreasing(self, x1, x2, d1, d2):
        lo, hi = sorted((x1, x2))
        assert 0.0 <= f_cdf(lo, d1, d2) <= f_cdf(hi, d1, d2) <= 1.0

    @settings(deadline=None)
    @given(st.floats(1e-6, 1e6), DF, DF)
    def test_property_reciprocal_complement(self, x, d1, d2):
        assert abs(f_cdf(x, d1, d2) + f_cdf(1 / x, d2, d1) - 1.0) < 1e-12


class TestFTestSegment:
    def test_null_configuration(self):
        t = f_test_segment((1.0, 100), (1.0, 100), (1.0, 100), 1.0)
        assert t.f_stat == pytest.approx(1.0)
        assert t.p_value == pytest.approx(0.5, abs=0.01)

    def test_hot_segment(self):
        t = f_test_segment((1.0, 100), (100.0, 100), (1.0, 100), 1.0)
        assert t.f_stat == pytest.approx(0.01)
        assert t.p_value < 1e-6
        assert t.p_value == pytest.approx(f_cdf(0.01, 100, 100))

    def test_gamma_gate(self):
        t = f_test_segment((1.0, 100), (100.0, 100), (1.0, 100), 200.0)
        assert t.f_stat == pytest.approx(2.0)
        assert t.p_value > 0.5

    def test_single_neighbor_fallback(self):
        t = f_test_segment(None, (4.0, 50), (2.0, 80), 1.0)
        assert t.s2_before is None
        assert t.f_stat == pytest.approx(0.5)
        assert t.p_value == pytest.approx(f_cdf(0.5, 50, 80))

    def test_reference_is_max_neighbor(self):
        t = f_test_segment((3.0, 30), (6.0, 40), (1.0, 90), 1.0)
        assert t.f_stat == pytest.approx(0.5)
        assert t.n_during == 40
        assert t.p_value == pytest.approx(f_cdf(0.5, 40, 90))

    def test_degenerate_zero_variances(self):
        t = f_test_segment((0.0, 50), (0.0, 50), None, 1.0)
        assert t.p_value == 1.0

    def test_gamma_monotonicity(self):
        ps = [
            f_test_segment((1.0, 60), (5.0, 60), (2.0, 60), g).p_value
            for g in (1.0, 1.5, 2.0, 4.0, 8.0)
        ]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="neighbor"):
            f_test_segment(None, (1.0, 10), None, 1.0)
        with pytest.raises(ValueError, match="gamma"):
            f_test_segment((1.0, 10), (1.0, 10), None, 0.5)
        with pytest.raises(ValueError, match="gamma"):
            f_test_segment((1.0, 10), (1.0, 10), None, float("nan"))
        for bad in (True, np.True_):
            with pytest.raises(ValueError, match="gamma must be a real number"):
                f_test_segment((1.0, 10), (1.0, 10), None, bad)
        with pytest.raises(ValueError):
            f_test_segment((1.0, 10), (1.0, 1), None, 1.0)

    @pytest.mark.parametrize("before, during, after, match", [
        (None, (1.0, 2.5), (2.0, 3), "during length must be an integer"),
        ((1.0, 10.0), (1.0, 10), None, "before length must be an integer"),
        (None, (1.0, 10), (1.0, 0), "after length must be at least 1"),
        ((1.0, 10), (-1.0, 10), (1.0, 10), "during variance must be finite and nonnegative"),
        ((1.0, 10), (float("nan"), 10), None, "during variance must be finite and nonnegative"),
        ((float("inf"), 10), (1.0, 10), None, "before variance must be finite and nonnegative"),
        (None, (1.0, 10), (-0.5, 10), "after variance must be finite and nonnegative"),
    ], ids=["fractional-length", "float-length", "empty-neighbor", "negative-variance",
            "nan-variance", "infinite-variance", "negative-neighbor-variance"])
    def test_bad_pairs_are_rejected(self, before, during, after, match):
        with pytest.raises(ValueError, match=match):
            f_test_segment(before, during, after, 1.0)

    def test_numpy_lengths_pass(self):
        t = f_test_segment((1.0, np.int64(30)), (2.0, np.int32(20)), None, 1.0)
        assert (t.n_before, t.n_during) == (30, 20)

    def test_numpy_gamma_tests_as_its_value(self):
        # a float32 gamma once made a float32 statistic that overflowed on the cast
        t = f_test_segment((2.0, 40), (1.0, 40), None, gamma=np.float32(1.1))
        assert t == f_test_segment((2.0, 40), (1.0, 40), None, gamma=float(np.float32(1.1)))
        assert type(t.f_stat) is float


class TestHolm:
    def test_both_rejected(self):
        assert holm_bonferroni([0.001, 0.04], 0.05) == [True, True]

    def test_stops_at_first_failure(self):
        assert holm_bonferroni([0.03, 0.04, 0.05], 0.05) == [False, False, False]

    def test_empty(self):
        assert holm_bonferroni([], 0.05) == []

    def test_rejects_prefix_only(self):
        flags = holm_bonferroni([0.2, 0.001, 0.03, 0.011], 0.05)
        assert flags == [False, True, False, True]

    def test_thresholds_follow_ranks(self):
        thresholds = holm_thresholds([0.03, 0.001, 0.02], 0.05)
        assert thresholds == pytest.approx([0.05, 0.05 / 3, 0.025])

    def test_bonferroni_subset(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ps = rng.uniform(0, 0.2, 12).tolist()
            holm = holm_bonferroni(ps, 0.05)
            bonf = [p < 0.05 / len(ps) for p in ps]
            assert all(h or not b for h, b in zip(holm, bonf))

    @settings(deadline=None)
    @given(P_VALUES, ALPHAS)
    def test_property_rejects_a_prefix_of_the_sorted_p_values(self, ps, alpha):
        flags = holm_bonferroni(ps, alpha)
        by_p = [flags[i] for i in sorted(range(len(ps)), key=ps.__getitem__)]
        assert by_p == sorted(by_p, reverse=True)

    @settings(deadline=None)
    @given(P_VALUES, ALPHAS)
    def test_property_rejections_lie_below_their_thresholds(self, ps, alpha):
        flags = holm_bonferroni(ps, alpha)
        thresholds = holm_thresholds(ps, alpha)
        assert all(p < t for p, t, f in zip(ps, thresholds, flags) if f)

    @settings(deadline=None, max_examples=500)
    @given(holm_cases())
    @example(([0.0, 0.0, 5e-324, 0.5, 0.5], 1.5e-323))  # three thresholds round to 5e-324
    @example(([0.01, 0.01, 0.02, 0.0125], 0.05))  # tied p-values, one on its threshold
    def test_property_equals_the_step_down_walk(self, case):
        ps, alpha = case
        assert holm_bonferroni(ps, alpha) == holm_walk(ps, alpha)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            holm_bonferroni([0.1], 0.0)
        with pytest.raises(ValueError):
            holm_bonferroni([0.1], 1.0)

    @pytest.mark.parametrize("holm", [holm_bonferroni, holm_thresholds])
    @pytest.mark.parametrize("bad", [1.5, -0.01, float("nan"), float("inf")])
    def test_p_values_must_lie_in_the_unit_interval(self, holm, bad):
        with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
            holm([bad, 0.01], 0.05)

    def test_family_wise_error_under_global_null(self):
        # K independent true-null segments per run; the fraction of runs
        # with any rejection stays within Monte Carlo slack of alpha
        rng = np.random.default_rng(99)
        runs = 500
        k = 10
        alpha = 0.05
        n_seg = 50
        false_hits = 0
        for _ in range(runs):
            ps = []
            for _ in range(k):
                during = np.var(rng.normal(0, 1, n_seg))
                before = np.var(rng.normal(0, 1, n_seg))
                after = np.var(rng.normal(0, 1, n_seg))
                test = f_test_segment((before, n_seg), (during, n_seg), (after, n_seg), 1.0)
                ps.append(test.p_value)
            if any(holm_bonferroni(ps, alpha)):
                false_hits += 1
        bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / runs)
        assert false_hits / runs <= bound


_TEST = f_test_segment((1.0, 20), (1.0, 20), None)


@pytest.mark.parametrize("call, match", [
    (lambda: replace(_TEST, p_value=1.5), r"p_value must lie in \[0, 1\]"),
    (lambda: replace(_TEST, p_value=math.nan), r"p_value must lie in \[0, 1\]"),
    (lambda: replace(_TEST, f_stat=-1.0), "f_stat must be nonnegative"),
    (lambda: SegmentDecision(_TEST, True, _TEST.p_value), "significant decisions require"),
    (lambda: sample_variance(np.arange(5.0), 0, 5), "segment out of bounds"),
    (lambda: sample_variance(np.arange(5.0), -1, 2), "segment out of bounds"),
], ids=["p-above-one", "p-nan", "negative-statistic", "significant-at-threshold",
        "end-past-the-series", "negative-start"])
def test_each_rejection_is_reached(call, match):
    with pytest.raises(ValueError, match=match):
        call()

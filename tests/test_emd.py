import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv

import lcdsc
import lcdsc.emd as emd_module
from lcdsc import (
    Decomposition,
    EmdConfig,
    MonotonicComponent,
    TimeSeries,
    eemd,
    find_extrema,
    reconstruct,
    sift,
)
from lcdsc.emd import _envelope_from_extrema, _envelope_work, _zero_crossings, emd


def bitwise_equal(a: Decomposition, b: Decomposition) -> bool:
    if a.n_imfs != b.n_imfs or not np.array_equal(a.residual, b.residual):
        return False
    return np.array_equal(a.imfs, b.imfs)


def direct_extrema(x):
    """Independent oracle: walk runs of equal values, compare run ends."""
    n = len(x)
    maxima, minima = [], []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        if i > 0 and j < n - 1:
            if x[i - 1] < x[i] and x[j + 1] < x[i]:
                maxima.append((i + j) // 2)
            elif x[i - 1] > x[i] and x[j + 1] > x[i]:
                minima.append((i + j) // 2)
        i = j + 1
    return maxima, minima


def direct_zero_crossings(x):
    """Independent oracle: sign changes between consecutive nonzero samples."""
    signs = [v > 0 for v in x if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


NO_TIES = st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=300, unique=True)
FLAT_RUNS = st.lists(st.integers(-3, 3), min_size=3, max_size=300)


class TestFindExtrema:
    def test_single_interior_peak(self):
        maxima, minima = find_extrema([1, 2, 1])
        assert maxima.tolist() == [1]
        assert minima.tolist() == []

    def test_monotone_has_no_extrema(self):
        maxima, minima = find_extrema([0, 1, 2, 3])
        assert maxima.tolist() == []
        assert minima.tolist() == []

    def test_sine_counts_match_direct_enumeration(self):
        t = np.arange(200)
        x = np.sin(2 * np.pi * t / 50)
        maxima, minima = find_extrema(x)
        want_max, want_min = direct_extrema(x)
        assert maxima.tolist() == want_max
        assert minima.tolist() == want_min
        assert len(want_max) == 4 and len(want_min) == 4
        merged = sorted([(i, "M") for i in want_max] + [(i, "m") for i in want_min])
        kinds = [k for _, k in merged]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))  # alternating

    def test_plateau_reports_midpoint_once(self):
        maxima, minima = find_extrema([0, 1, 1, 0])
        assert maxima.tolist() == [1]
        assert minima.tolist() == []
        maxima, minima = find_extrema([0, 2, 2, 2, 0])
        assert maxima.tolist() == [2]

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            find_extrema([1, 2])

    @settings(deadline=None)
    @given(NO_TIES)
    def test_property_matches_enumeration_without_ties(self, values):
        x = np.array(values)
        assert np.diff(x).all()  # the path for series without flat runs
        maxima, minima = find_extrema(x)
        assert (maxima.tolist(), minima.tolist()) == direct_extrema(x)

    @settings(deadline=None)
    @given(FLAT_RUNS)
    def test_property_matches_enumeration_with_flat_runs(self, values):
        x = np.array(values, dtype=float)
        assume(not np.diff(x).all())  # the path that walks flat runs
        maxima, minima = find_extrema(x)
        assert (maxima.tolist(), minima.tolist()) == direct_extrema(x)


class TestZeroCrossings:
    @settings(deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6).filter(bool), min_size=1, max_size=300))
    def test_property_matches_count_without_zeros(self, values):
        x = np.array(values)
        assert _zero_crossings(x) == direct_zero_crossings(values)

    @settings(deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=300))
    def test_property_matches_count_with_zeros(self, values):
        assume(0 in values)
        x = np.array(values, dtype=float)
        assert _zero_crossings(x) == direct_zero_crossings(values)


def natural_spline_on_grid(xk, yk, n_query):
    """One natural cubic spline through integer knots, evaluated at 0..n_query-1."""
    k = xk.size
    h = np.diff(xk)
    dy = np.diff(yk) / h
    diag = np.empty(k)
    diag[0] = diag[-1] = 1.0
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    upper = np.zeros(k - 1)
    upper[1:] = h[1:]
    lower = np.zeros(k - 1)
    lower[:-1] = h[:-1]
    rhs = np.zeros(k)
    rhs[1:-1] = 6.0 * (dy[1:] - dy[:-1])
    _, _, _, m, info = dgtsv(lower, diag, upper, rhs)
    assert info == 0
    a1 = dy - h * (2.0 * m[:-1] + m[1:]) / 6.0
    a2 = 0.5 * m[:-1]
    a3 = (m[1:] - m[:-1]) / (6.0 * h)
    i = np.repeat(np.arange(k - 1), np.diff(np.clip(xk.astype(np.intp), 0, n_query)))
    t = np.arange(n_query, dtype=float) - xk[i]
    return yk[:-1][i] + t * (a1[i] + t * (a2[i] + t * a3[i]))


def two_spline_envelope_mean(x, maxima, minima):
    """Reference: fit the upper and lower envelopes one at a time."""
    end = x.size - 1

    def fit(ext):
        knots = np.concatenate(([ext[1], ext[0]], ext, [ext[-1], ext[-2]]))
        pos = knots.astype(float)
        pos[:2] = -pos[:2]
        pos[-2:] = 2 * end - pos[-2:]
        return natural_spline_on_grid(pos, x[knots], x.size)

    return 0.5 * (fit(maxima) + fit(minima))


class TestFusedEnvelope:
    def check(self, x, maxima, minima):
        got = _envelope_from_extrema(x, np.asarray(maxima), np.asarray(minima),
                                     _envelope_work(x.size))
        want = two_spline_envelope_mean(x, np.asarray(maxima), np.asarray(minima))
        assert got.tobytes() == want.tobytes()

    def test_random_extrema_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(6, 2000))
            x = rng.normal(0, 1, n) * 10.0 ** rng.uniform(-3, 3)
            interior = np.arange(1, n - 1)
            maxima = np.sort(rng.choice(interior, int(rng.integers(2, min(n - 2, 60) + 1)), replace=False))
            minima = np.sort(rng.choice(interior, int(rng.integers(2, min(n - 2, 60) + 1)), replace=False))
            self.check(x, maxima, minima)

    def test_extrema_of_noise(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = rng.normal(0, 1, int(rng.integers(20, 3000)))
            self.check(x, *find_extrema(x))

    def test_exactly_two_of_each(self):
        x = np.sin(2 * np.pi * np.arange(40) / 19)
        maxima, minima = find_extrema(x)
        assert maxima.size == 2 and minima.size == 2
        self.check(x, maxima, minima)
        self.check(np.random.default_rng(23).normal(0, 1, 30), [4, 20], [9, 13])

    def test_extrema_next_to_the_endpoints(self):
        rng = np.random.default_rng(24)
        for n in (6, 7, 50, 501):
            x = rng.normal(0, 1, n)
            self.check(x, [1, n - 2], [2, n - 3])
            self.check(x, [1, n - 3], [2, n - 2])
            self.check(x, [1, 2, n - 3, n - 2], [1, n - 2])

    def test_flat_runs(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            x = np.round(rng.normal(0, 1.5, int(rng.integers(12, 600))))
            maxima, minima = find_extrema(x)
            if maxima.size >= 2 and minima.size >= 2:
                self.check(x, maxima, minima)


class TestEnvelopeWork:
    def test_reused_work_matches_fresh_arrays(self):
        for n in (300, 9000):
            t = np.arange(n)
            work = _envelope_work(n)
            grid = work[0].copy()
            dense = []
            # noise and short periods gather through a segment index, long
            # periods repeat the coefficients: both paths must agree bit for bit
            for x in (np.random.default_rng(27).normal(0, 1, n),
                      *(np.sin(2 * np.pi * t / period + 0.3) for period in (7, 40, n / 20))):
                maxima, minima = find_extrema(x)
                dense.append(8 * (maxima.size + minima.size + 8) > 2 * n)
                got = _envelope_from_extrema(x, maxima, minima, work).copy()
                fresh = _envelope_from_extrema(x, maxima, minima, _envelope_work(n))
                assert got.tobytes() == fresh.tobytes()
                assert got.tobytes() == two_spline_envelope_mean(x, maxima, minima).tobytes()
            assert dense == [True, True, False, False]
            assert work[0].tobytes() == grid.tobytes()  # the grid row is only read


    def test_sparse_sift_never_allocates_the_gather_block(self, monkeypatch):
        n = 20000
        x = np.sin(2 * np.pi * np.arange(n) / 500.0)  # 80 extrema: every knot set stays sparse
        works = []

        def recorded(size):
            works.append(_envelope_work(size))
            return works[-1]

        monkeypatch.setattr(emd_module, "_envelope_work", recorded)
        sift(x)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            imf = sift(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(works) == 2 and all(work[1] is None for work in works)
        assert imf.samples.tobytes() == sift(x, EmdConfig()).samples.tobytes()
        # the grid, one repeated (5, 2n) table and a few rows of n: about 13 rows
        # of n floats, where a (5, 2n) block beside them made it about 23
        assert peak < 18 * 8 * n, peak / (8 * n)


def envelope_mean(x):
    return _envelope_from_extrema(x, *find_extrema(x), _envelope_work(x.size))


class TestEnvelopeMean:
    def test_pure_sine_mean_near_zero(self):
        t = np.arange(400)
        x = np.sin(2 * np.pi * t / 40)
        mean = envelope_mean(x)
        assert np.max(np.abs(mean[40:-40])) < 0.05

    def test_shift_invariance(self):
        t = np.arange(400)
        x = np.sin(2 * np.pi * t / 40) + 3.25
        mean = envelope_mean(x)
        assert np.max(np.abs(mean[40:-40] - 3.25)) < 0.05

    def test_tracks_slow_trend(self):
        t = np.arange(500)
        trend = 0.004 * t
        x = np.sin(2 * np.pi * t / 25) + trend
        mean = envelope_mean(x)
        assert np.max(np.abs(mean[50:-50] - trend[50:-50])) < 0.1

    def test_monotonic_component_error(self):
        with pytest.raises(MonotonicComponent, match="monotonic"):
            sift(np.linspace(0, 1, 50))


class TestSift:
    def test_sine_is_fixed_point(self):
        t = np.arange(600)
        x = np.sin(2 * np.pi * t / 30)
        out = sift(x, EmdConfig()).samples
        rel = np.sqrt(np.sum((out - x) ** 2) / np.sum(x**2))
        assert rel < 1e-3

    def test_removes_slow_trend(self):
        t = np.arange(800)
        x = np.sin(2 * np.pi * t / 40) + 0.002 * t
        out = sift(x, EmdConfig()).samples
        corr = np.corrcoef(out, np.sin(2 * np.pi * t / 40))[0, 1]
        assert corr > 0.99

    def test_imf_like_input_near_identical(self):
        t = np.arange(600)
        x = np.sin(2 * np.pi * t / 30)
        imf = sift(x, EmdConfig(s_number=3))
        assert not imf.truncated
        assert np.max(np.abs(imf.samples - x)) < 0.05


class TestSiftCallCounts:
    """One sift looks up ``find_extrema`` in the module once before its loop
    and once per iteration; the benchmark's trace counts those calls."""

    def run_counted(self, monkeypatch, x, config):
        calls = {"find_extrema": 0, "_envelope_from_extrema": 0}
        for name in calls:
            original = getattr(emd_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(emd_module, name, counted)
        imf = sift(x, config)
        # every iteration subtracts exactly one envelope mean
        return imf, calls["find_extrema"], calls["_envelope_from_extrema"]

    def test_s_stoppage(self, monkeypatch):
        x = np.sin(2 * np.pi * np.arange(600) / 30)
        config = EmdConfig()
        imf, extrema_calls, iterations = self.run_counted(monkeypatch, x, config)
        maxima, minima = find_extrema(imf.samples)
        assert not imf.truncated and maxima.size >= 2 and minima.size >= 2
        assert config.s_number <= iterations < config.max_sift_iters
        assert extrema_calls == 1 + iterations

    def test_iteration_cap(self, monkeypatch):
        x = np.random.default_rng(26).normal(0, 1, 500)
        config = EmdConfig(s_number=4, max_sift_iters=3)  # a streak of 4 cannot happen
        imf, extrema_calls, iterations = self.run_counted(monkeypatch, x, config)
        assert imf.truncated
        assert iterations == config.max_sift_iters
        assert extrema_calls == 1 + config.max_sift_iters


class TestEmd:
    def test_two_tone_separation(self):
        t = np.arange(1000)
        fast = np.sin(2 * np.pi * t / 20)
        slow = np.sin(2 * np.pi * t / 200)
        d = emd(fast + slow)
        assert d.n_imfs >= 2
        assert np.corrcoef(d.imfs[0], fast)[0, 1] > 0.95
        assert np.corrcoef(d.imfs[1], slow)[0, 1] > 0.95

    def test_two_tone_emd_nearly_orthogonal(self):
        t = np.arange(1000)
        d = emd(np.sin(2 * np.pi * t / 20) + np.sin(2 * np.pi * t / 200))
        # sum over t and j != k of imf_j(t) * imf_k(t), relative to the signal energy
        matrix = d.imf_matrix()
        total = np.sum(matrix, axis=0)
        cross = float(np.sum(total * total - np.sum(matrix * matrix, axis=0)))
        x = reconstruct(d)
        assert abs(cross / float(np.sum(x * x))) < 0.1

    def test_ramp_has_no_imfs(self):
        ramp = np.linspace(0, 5, 100)
        d = emd(ramp)
        assert d.n_imfs == 0
        assert np.array_equal(d.residual, ramp)

    def test_additive_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(0, 1, int(rng.integers(64, 1025)))
            d = emd(x)
            err = np.max(np.abs(x - reconstruct(d)))
            assert err < 1e-9 * (x.max() - x.min())

    def test_invalid_samples(self):
        x = np.ones(50)
        x[3] = np.nan
        with pytest.raises(ValueError, match="invalid samples"):
            emd(x)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            emd([1.0, 2.0, 1.0])

    def test_imf_property_at_convergence(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, 512)
        d = emd(x)
        for imf, truncated in zip(d.imfs, d.truncated):
            if truncated:
                continue
            maxima, minima = find_extrema(imf)
            n_ext = maxima.size + minima.size
            assert abs(n_ext - _zero_crossings(imf)) <= 1

    def test_residual_cannot_be_enveloped_after_exhaustion(self):
        # termination by extrema exhaustion leaves a residual with fewer
        # than two maxima or fewer than two minima (nothing left to sift)
        from lcdsc.emd import _imf_cap

        for seed in range(8):
            x = np.random.default_rng(seed).normal(0, 1, 300)
            d = emd(x)
            assert d.n_imfs < _imf_cap(EmdConfig(), 300)  # stopped by exhaustion, not the cap
            maxima, minima = find_extrema(d.residual)
            assert maxima.size < 2 or minima.size < 2


class TestEemd:
    def test_degenerate_ensemble_matches_emd_bitwise(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 300)
        cfg = EmdConfig(ensemble_size=1, noise_amplitude=0.0, seed=9)
        assert bitwise_equal(emd(x, cfg), eemd(x, cfg))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 256)
        cfg = EmdConfig(ensemble_size=6, seed=123)
        assert bitwise_equal(eemd(x, cfg), eemd(x, cfg))

    def test_doppler_fixture_has_many_imfs(self):
        from lcdsc import LocalSignalSpec, local_doppler

        noisy, truth, _ = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed=4))
        d = eemd(noisy, EmdConfig(ensemble_size=4, seed=4))
        assert d.n_imfs >= 6
        # burst energy visible in several components
        inside = [float(np.sum(imf[1000:1501] ** 2)) for imf in d.imfs]
        outside = [float(np.sum(imf[:1000] ** 2) + np.sum(imf[1501:] ** 2)) for imf in d.imfs]
        hot = sum(1 for i, o in zip(inside, outside) if i > o)
        assert hot >= 3

    @pytest.mark.parametrize("max_imfs", [None, 3, 40, 10**9])
    def test_mean_of_the_zero_padded_trial_stack(self, max_imfs):
        # trials of unequal width, some truncated; the automatic cap (6 imfs
        # at 200 samples), 40 and 10**9 lie above the widest trial, 3 below
        # it; 10**9 rows of 200 samples would not fit in memory
        x = np.random.default_rng(1).normal(0, 1, 200)
        cfg = EmdConfig(ensemble_size=6, seed=1, max_imfs=max_imfs, max_sift_iters=4)
        scale = cfg.noise_amplitude * float(np.std(x))
        trials = [emd(x + np.random.default_rng([1, k]).normal(0.0, scale, x.size), cfg)
                  for k in range(6)]
        width = max(t.n_imfs for t in trials)
        stack = np.zeros((6, width, x.size))
        flags = np.zeros(width, dtype=bool)
        for layer, t in zip(stack, trials):
            layer[: t.n_imfs] = t.imfs
            flags[: t.n_imfs] |= np.array(t.truncated, dtype=bool)
        d = eemd(x, cfg)
        assert d.imfs.tobytes() == np.mean(stack, axis=0).tobytes()
        assert d.truncated == tuple(flags.tolist()) and any(d.truncated)
        short = sum(t.n_imfs < width for t in trials)
        if max_imfs is None:
            assert short and d.diagnostics[0].startswith(f"{short} of 6 trials produced fewer than")
        if max_imfs in (40, 10**9):
            assert bitwise_equal(d, eemd(x, replace(cfg, max_imfs=None)))

    def test_closure_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 300)
        d = eemd(x, EmdConfig(ensemble_size=4, seed=2))
        err = np.max(np.abs(x - reconstruct(d)))
        assert err < 1e-9 * (x.max() - x.min())

    @pytest.mark.parametrize(
        "cfg", [EmdConfig(ensemble_size=4), EmdConfig(ensemble_size=1, noise_amplitude=0.0)]
    )
    def test_variance_overflow_is_named(self, cfg):
        # finite samples whose squares overflow: the noise scale cannot be formed
        x = np.random.default_rng(6).normal(0, 1, 100) * 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="sum of squared deviations overflows"):
                eemd(x, cfg)

    def test_noise_scale_overflow_is_named(self):
        x = np.random.default_rng(6).normal(0, 1, 100)
        with pytest.raises(OverflowError, match="noise scale .* overflows"):
            eemd(x, EmdConfig(ensemble_size=2, noise_amplitude=1e308))


class TestWhiteNoiseFilterBank:
    """EEMD of white noise acts as a dyadic filter bank (Flandrin, Rilling &
    Gonçalves 2004): each IMF's mean period, 2n over its zero crossings, is
    about twice the one before."""

    def test_mean_period_doubles_per_imf(self):
        n = 2500
        ratios = []
        for seed in range(8):
            x = np.random.default_rng(seed).normal(0.0, 1.0, n)
            imfs = eemd(x, EmdConfig(ensemble_size=12, seed=seed)).imfs[:5]
            periods = np.array([2 * n / _zero_crossings(imf) for imf in imfs])
            ratios.append(periods[1:] / periods[:-1])
        medians = np.median(ratios, axis=0)
        # over 40 seeds, 8-seed medians of IMFs 2/1 to 5/4 span 1.88-2.18; a sift
        # capped at 2 iterations gives 2.20-2.68, a single-iteration one 2.31-3.09
        assert np.all((1.75 <= medians) & (medians <= 2.25)), medians


@st.composite
def finite_series(draw):
    """Finite series of at least 4 samples: constant runs of small integers or
    bounded floats."""
    value = st.one_of(st.integers(-5, 5).map(float), st.floats(-1e6, 1e6))
    runs = draw(st.lists(st.tuples(value, st.integers(1, 12)), min_size=1, max_size=40))
    x = np.repeat([v for v, _ in runs], [k for _, k in runs])
    return np.resize(x, max(4, x.size))


class TestAdditiveIdentityProperty:
    @staticmethod
    def assert_reconstructs(x, d):
        tol = 1e-9 * max(1.0, float(np.max(np.abs(x))))
        assert np.max(np.abs(reconstruct(d) - x)) <= tol

    @settings(deadline=None, max_examples=60)
    @given(finite_series())
    def test_emd(self, x):
        self.assert_reconstructs(x, emd(x))

    @settings(deadline=None, max_examples=40)
    @given(finite_series(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_eemd(self, x, trials, seed):
        self.assert_reconstructs(x, eemd(x, EmdConfig(ensemble_size=trials, seed=seed)))


def stacked_mean_eemd(x, cfg):
    """Reference ensemble: keep every trial and average a zero-padded stack."""
    scale = cfg.noise_amplitude * float(np.std(x))
    trials = []
    for k in range(cfg.ensemble_size):
        rng = np.random.default_rng([cfg.seed & (2**64 - 1), k])
        trials.append(emd(TimeSeries(x + rng.normal(0.0, scale, x.size)), cfg))
    width = max(t.n_imfs for t in trials)
    stack = np.zeros((cfg.ensemble_size, width, x.size))
    # the same sums row by row, in trial order, one trial's rows at a time
    sums = [np.zeros(x.size) for _ in range(width)]
    for k, trial in enumerate(trials):
        for j in range(trial.n_imfs):
            stack[k, j] = trial.imfs[j]
            sums[j] += trial.imfs[j]
    mean = stack.mean(axis=0)
    assert mean.tobytes() == (np.array(sums) / cfg.ensemble_size).tobytes()
    truncated = [any(t.n_imfs > j and t.truncated[j] for t in trials) for j in range(width)]
    residual = x.copy()
    for j in range(width):
        residual = residual - mean[j]
    short = sum(1 for t in trials if t.n_imfs < width)
    truncations = sum(sum(t.truncated) for t in trials)
    return mean, truncated, residual, short, truncations


class TestStreamingEnsemble:
    def test_matches_stacked_mean_bitwise(self):
        seen = {"short": 0, "truncated": set()}
        for seed, n, iters in ((0, 150, 3), (5, 150, 50), (8, 257, 6), (11, 90, 50)):
            x = np.random.default_rng(seed).normal(0, 1, n)
            cfg = EmdConfig(ensemble_size=7, max_sift_iters=iters, seed=seed)
            mean, truncated, residual, short, truncations = stacked_mean_eemd(x, cfg)
            d = eemd(x, cfg)
            assert d.imfs.shape == mean.shape
            assert d.imfs.tobytes() == mean.tobytes()
            assert d.truncated == tuple(truncated)
            assert d.residual.tobytes() == residual.tobytes()
            want = []
            if short:
                want.append(f"{short} of 7 trials produced fewer than {mean.shape[0]} imfs; "
                            "missing entries averaged as zeros")
            if truncations:
                want.append(f"{truncations} trial imfs hit max_sift_iters during sifting")
            assert d.diagnostics == tuple(want)
            seen["short"] += short
            seen["truncated"].update(truncated)
        # the cases cover short trials and both truncation flags
        assert seen["short"] > 0 and seen["truncated"] == {False, True}

    @staticmethod
    def eemd_peak(**settings) -> int:
        """Traced peak of ``eemd`` on a 2500-sample recording."""
        from lcdsc import LocalSignalSpec, local_doppler

        noisy, _, _ = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed=3))
        eemd(noisy, EmdConfig(ensemble_size=1, seed=3))  # warm caches outside the window
        tracemalloc.start()
        try:
            eemd(noisy, EmdConfig(seed=3, **settings))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_ensemble_size(self):
        assert self.eemd_peak(ensemble_size=100) < 2 * self.eemd_peak(ensemble_size=4)

    def test_memory_does_not_grow_with_the_imf_cap(self):
        # a cap far above the widest trial reserves nothing for the indices no trial reaches
        capped = self.eemd_peak(ensemble_size=2, max_imfs=10**5)
        assert capped < 2 * self.eemd_peak(ensemble_size=2), capped


class TestReconstruct:
    def test_all_zero_imfs_gives_residual(self):
        residual = np.linspace(0, 1, 50)
        zeros = np.zeros(50)
        d = Decomposition((zeros, zeros), residual)
        assert np.array_equal(reconstruct(d), residual)


class TestDecompositionRecord:
    def test_accepts_a_matrix_equal_rows_and_no_rows(self):
        rows = np.arange(12.0).reshape(3, 4)
        for imfs in (rows, list(rows), tuple(rows.tolist())):
            d = Decomposition(imfs, np.zeros(4), truncated=(True, False, True))
            assert d.imfs.shape == (3, 4) and d.n_imfs == 3
            assert d.imfs.tobytes() == rows.tobytes()
            assert d.truncated == (True, False, True)
        for imfs in ((), [], np.zeros((0, 4))):
            d = Decomposition(imfs, np.ones(4))
            assert d.imfs.shape == (0, 4) and d.n_imfs == 0 and d.truncated == ()
            assert np.array_equal(reconstruct(d), np.ones(4))
        assert Decomposition(rows, np.zeros(4)).truncated == (False,) * 3

    def test_copies_once_and_is_read_only(self):
        rows = np.arange(12.0).reshape(3, 4)
        residual = np.zeros(4)
        d = Decomposition(rows, residual)
        rows[0, 0] = residual[0] = 99.0
        assert d.imfs[0, 0] == 0.0 and d.residual[0] == 0.0
        assert d.imf_matrix() is d.imfs
        for arr in (d.imfs, d.imfs[1], d.residual):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # rows or matrix, the constructor holds one copy of them at a time
        big, residual = np.ones((4, 50000)), np.zeros(50000)
        for imfs in (big, list(big)):
            tracemalloc.start()
            try:
                Decomposition(imfs, residual)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * big.nbytes + residual.nbytes

    @pytest.mark.parametrize("imfs, truncated, match", [
        ([np.zeros(4), np.zeros(3)], None, "imfs|inhomogeneous"),
        (np.zeros((2, 5)), None, "imfs must be"),
        (np.zeros(4), None, "imfs must be"),
        (np.zeros((2, 2, 4)), None, "imfs must be"),
        (np.zeros((2, 4)), (False,), "one flag per imf"),
        (np.zeros((2, 4)), (False, True, False), "one flag per imf"),
        ((), (True,), "one flag per imf"),
    ])
    def test_rejects_bad_shapes(self, imfs, truncated, match):
        with pytest.raises(ValueError, match=match):
            Decomposition(imfs, np.zeros(4), truncated=truncated)


class TestPackageNames:
    def test_lcdsc_emd_is_the_module(self):
        assert lcdsc.emd is emd_module
        assert emd_module.emd is emd and callable(emd_module.emd)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EmdConfig(s_number=0)
        with pytest.raises(ValueError):
            EmdConfig(ensemble_size=0)
        with pytest.raises(ValueError):
            EmdConfig(noise_amplitude=-0.1)
        nan = float("nan")
        for name, bad in (("s_number", nan), ("max_sift_iters", nan), ("ensemble_size", 2.5),
                          ("max_imfs", nan), ("max_imfs", 3.0), ("max_sift_iters", 0),
                          ("seed", 1.5), ("seed", nan), ("seed", 3.0),
                          # a bool is no count: True once ran a one-trial ensemble
                          ("ensemble_size", True), ("s_number", np.True_), ("max_imfs", True),
                          ("max_sift_iters", np.True_), ("seed", False), ("noise_amplitude", True),
                          ("noise_amplitude", np.False_)):
            with pytest.raises(ValueError, match=name):
                EmdConfig(**{name: bad})
        EmdConfig(s_number=np.int64(3), ensemble_size=np.int32(2), max_imfs=np.int64(4))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_amplitude"):
                EmdConfig(noise_amplitude=bad)
        EmdConfig(seed=-(2**70))  # any sign and size; its low 64 bits seed the ensemble
        for bad in (0.0, -1.0, nan, float("inf")):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                TimeSeries([1.0, 2.0], dt=bad)
        for bad in (True, np.True_):
            with pytest.raises(ValueError, match="dt must be a real number"):
                TimeSeries([1.0, 2.0], dt=bad)

    def test_numpy_scalars_are_stored_as_plain_numbers(self):
        config = EmdConfig(s_number=np.int64(3), max_sift_iters=np.int16(40), max_imfs=np.int64(4),
                           ensemble_size=np.int32(2), noise_amplitude=np.float32(0.5),
                           seed=np.uint64(7))
        assert config == EmdConfig(3, 40, 4, 2, 0.5, 7)
        assert all(type(getattr(config, name)) is int
                   for name in ("s_number", "max_sift_iters", "max_imfs", "ensemble_size", "seed"))
        assert type(config.noise_amplitude) is float
        assert type(TimeSeries([1.0, 2.0], dt=np.float32(0.5)).dt) is float

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_time_series_samples_are_finite(self, bad):
        with pytest.raises(ValueError, match="invalid samples: input contains non-finite values"):
            TimeSeries([1.0, bad, 2.0, 3.0])

    def test_numpy_integer_seed_is_its_value(self):
        x = np.sin(np.arange(300) / 3.0) + np.random.default_rng(0).normal(0.0, 0.3, 300)
        a = eemd(x, EmdConfig(ensemble_size=3, seed=np.int64(3)))
        assert bitwise_equal(a, eemd(x, EmdConfig(ensemble_size=3, seed=3)))


@pytest.mark.parametrize("call, match", [
    (lambda: emd(np.ones((4, 4))), "series must be one-dimensional"),
    (lambda: eemd(np.ones((2, 8)), EmdConfig(ensemble_size=1)), "series must be one-dimensional"),
    (lambda: find_extrema(np.ones((3, 3))), "series must be one-dimensional"),
    (lambda: TimeSeries(np.ones((2, 4))), "samples must be one-dimensional"),
], ids=["emd", "eemd", "find_extrema", "TimeSeries"])
def test_each_rejection_is_reached(call, match):
    with pytest.raises(ValueError, match=match):
        call()

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv

from lcdsc import (
    Decomposition,
    EmdConfig,
    Imf,
    MonotonicComponent,
    TimeSeries,
    eemd,
    emd,
    envelope_mean,
    find_extrema,
    orthogonality_index,
    reconstruct,
    sift,
)
from lcdsc.emd import _envelope_from_extrema, _zero_crossings


def bitwise_equal(a: Decomposition, b: Decomposition) -> bool:
    if a.n_imfs != b.n_imfs or not np.array_equal(a.residual, b.residual):
        return False
    return all(
        np.array_equal(x.samples, y.samples) and x.index == y.index
        for x, y in zip(a.imfs, b.imfs)
    )


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
        # independent oracle: walk runs of equal values, compare run ends
        want_max, want_min = [], []
        i = 0
        while i < 200:
            j = i
            while j + 1 < 200 and x[j + 1] == x[i]:
                j += 1
            if i > 0 and j < 199:
                if x[i - 1] < x[i] and x[j + 1] < x[i]:
                    want_max.append((i + j) // 2)
                elif x[i - 1] > x[i] and x[j + 1] > x[i]:
                    want_min.append((i + j) // 2)
            i = j + 1
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
        got = _envelope_from_extrema(x, np.asarray(maxima), np.asarray(minima))
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
            envelope_mean(np.linspace(0, 1, 50))


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


class TestEmd:
    def test_two_tone_separation(self):
        t = np.arange(1000)
        fast = np.sin(2 * np.pi * t / 20)
        slow = np.sin(2 * np.pi * t / 200)
        d = emd(fast + slow)
        assert d.n_imfs >= 2
        assert np.corrcoef(d.imfs[0].samples, fast)[0, 1] > 0.95
        assert np.corrcoef(d.imfs[1].samples, slow)[0, 1] > 0.95

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
        for imf in d.imfs:
            if imf.truncated:
                continue
            maxima, minima = find_extrema(imf.samples)
            n_ext = maxima.size + minima.size
            assert abs(n_ext - _zero_crossings(imf.samples)) <= 1

    def test_residual_cannot_be_enveloped_after_exhaustion(self):
        # termination by extrema exhaustion leaves a residual with fewer
        # than two maxima or fewer than two minima (nothing left to sift)
        from lcdsc.emd import _auto_max_imfs

        for seed in range(8):
            x = np.random.default_rng(seed).normal(0, 1, 300)
            d = emd(x)
            assert d.n_imfs < _auto_max_imfs(300)  # stopped by exhaustion, not the cap
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
        inside = [float(np.sum(imf.samples[1000:1501] ** 2)) for imf in d.imfs]
        outside = [float(np.sum(imf.samples[:1000] ** 2) + np.sum(imf.samples[1501:] ** 2))
                   for imf in d.imfs]
        hot = sum(1 for i, o in zip(inside, outside) if i > o)
        assert hot >= 3

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
    for k, trial in enumerate(trials):
        for j, imf in enumerate(trial.imfs):
            stack[k, j] = imf.samples
    mean = stack.mean(axis=0)
    truncated = [any(t.n_imfs > j and t.imfs[j].truncated for t in trials) for j in range(width)]
    residual = x.copy()
    for j in range(width):
        residual = residual - mean[j]
    short = sum(1 for t in trials if t.n_imfs < width)
    truncations = sum(1 for t in trials for imf in t.imfs if imf.truncated)
    return mean, truncated, residual, short, truncations


class TestStreamingEnsemble:
    def test_matches_stacked_mean_bitwise(self):
        seen = {"short": 0, "truncated": set()}
        for seed, n, iters in ((0, 150, 3), (5, 150, 50), (8, 257, 6), (11, 90, 50)):
            x = np.random.default_rng(seed).normal(0, 1, n)
            cfg = EmdConfig(ensemble_size=7, max_sift_iters=iters, seed=seed)
            mean, truncated, residual, short, truncations = stacked_mean_eemd(x, cfg)
            d = eemd(x, cfg)
            assert d.n_imfs == mean.shape[0]
            for j, imf in enumerate(d.imfs):
                assert imf.samples.tobytes() == mean[j].tobytes()
                assert imf.truncated == truncated[j]
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

    def test_memory_does_not_grow_with_ensemble_size(self):
        from lcdsc import LocalSignalSpec, local_doppler

        noisy, _, _ = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed=3))

        def peak(size):
            eemd(noisy, EmdConfig(ensemble_size=1, seed=3))  # warm caches outside the window
            tracemalloc.start()
            try:
                eemd(noisy, EmdConfig(ensemble_size=size, seed=3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100) < 2 * peak(4)


class TestReconstruct:
    def test_all_zero_imfs_gives_residual(self):
        residual = np.linspace(0, 1, 50)
        zeros = np.zeros(50)
        d = Decomposition((Imf(zeros, 1), Imf(zeros, 2)), residual, 50)
        assert np.array_equal(reconstruct(d), residual)


class TestOrthogonality:
    def test_constructed_orthogonal_components(self):
        t = np.arange(256)
        a = np.sin(2 * np.pi * t / 16)
        b = np.sin(2 * np.pi * t / 64)
        assert abs(float(np.sum(a * b))) < 1e-9
        d = Decomposition((Imf(a, 1), Imf(b, 2)), np.zeros(256), 256)
        assert abs(orthogonality_index(d)) < 1e-12

    def test_two_tone_emd_nearly_orthogonal(self):
        t = np.arange(1000)
        d = emd(np.sin(2 * np.pi * t / 20) + np.sin(2 * np.pi * t / 200))
        assert abs(orthogonality_index(d)) < 0.1

    def test_duplicated_imfs_give_half(self):
        t = np.arange(128)
        u = np.sin(2 * np.pi * t / 8)
        d = Decomposition((Imf(u, 1), Imf(u, 2)), np.zeros(128), 128)
        assert orthogonality_index(d) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_signal(self):
        zeros = np.zeros(64)
        d = Decomposition((Imf(zeros, 1), Imf(zeros, 2)), zeros, 64)
        with pytest.raises(ValueError, match="degenerate"):
            orthogonality_index(d)

    def test_needs_two_imfs(self):
        d = Decomposition((Imf(np.ones(16), 1),), np.zeros(16), 16)
        with pytest.raises(ValueError):
            orthogonality_index(d)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EmdConfig(s_number=0)
        with pytest.raises(ValueError):
            EmdConfig(ensemble_size=0)
        with pytest.raises(ValueError):
            EmdConfig(noise_amplitude=-0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_amplitude"):
                EmdConfig(noise_amplitude=bad)
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], dt=0.0)

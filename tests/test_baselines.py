import numpy as np
import pytest

from lcdsc import (
    Decomposition,
    Imf,
    keep_subset,
    noise_sigma,
    oracle_select,
    rss,
    wavelet_hard_threshold,
    wavelet_interval_threshold,
)
from lcdsc.baselines import _family_subsets


def make_decomposition(rows):
    rows = [np.asarray(r, dtype=float) for r in rows]
    imfs = tuple(Imf(r, i + 1) for i, r in enumerate(rows))
    return Decomposition(imfs, np.zeros(rows[0].size), rows[0].size)


@pytest.fixture()
def seven_imfs():
    rng = np.random.default_rng(0)
    return make_decomposition([rng.normal(0, 1, 40) for _ in range(7)])


class TestKeepSubset:
    def test_explicit_all_is_reconstruction_minus_residual(self, seven_imfs):
        rule = (1, 2, 3, 4, 5, 6, 7)
        want = np.sum(seven_imfs.imf_matrix(), axis=0)
        assert np.allclose(keep_subset(seven_imfs, rule), want)

    def test_explicit_empty_is_zero(self, seven_imfs):
        assert np.all(keep_subset(seven_imfs, ()) == 0)

    def test_k_highest_keeps_last_indices(self, seven_imfs):
        got = keep_subset(seven_imfs, (6, 7))
        want = seven_imfs.imfs[5].samples + seven_imfs.imfs[6].samples
        assert np.allclose(got, want)
        assert list(_family_subsets("khigh", 7))[2] == (6, 7)

    def test_l_lowest_keeps_first_indices(self, seven_imfs):
        assert list(_family_subsets("llow", 7))[3] == (1, 2, 3)

    def test_band_window(self, seven_imfs):
        bands = list(_family_subsets("band", 7))
        assert (2, 3, 4) in bands
        assert bands[0] == ()

    def test_linearity(self, seven_imfs):
        rng = np.random.default_rng(1)
        other = make_decomposition([rng.normal(0, 1, 40) for _ in range(7)])
        summed = make_decomposition(
            [a.samples + b.samples for a, b in zip(seven_imfs.imfs, other.imfs)]
        )
        rule = (2, 3, 4, 5)
        lhs = keep_subset(summed, rule)
        rhs = keep_subset(seven_imfs, rule) + keep_subset(other, rule)
        assert np.allclose(lhs, rhs)

    def test_validation(self, seven_imfs):
        with pytest.raises(ValueError):
            keep_subset(seven_imfs, (8,))
        with pytest.raises(ValueError):
            keep_subset(seven_imfs, (0,))


class TestOracleSelect:
    def test_singleton_truth_recovered_exactly(self, seven_imfs):
        truth = seven_imfs.imfs[3].samples
        rule, value = oracle_select(seven_imfs, truth, "powerset")
        assert value == 0.0
        assert rule == (4,)

    def test_powerset_never_worse_than_windowed_families(self, seven_imfs):
        rng = np.random.default_rng(2)
        truth = rng.normal(0, 1, 40)
        _, best_power = oracle_select(seven_imfs, truth, "powerset")
        for family in ("khigh", "llow", "band"):
            _, value = oracle_select(seven_imfs, truth, family)
            assert best_power <= value

    def test_band_never_worse_than_khigh_or_llow(self, seven_imfs):
        rng = np.random.default_rng(3)
        truth = rng.normal(0, 1, 40)
        _, band_val = oracle_select(seven_imfs, truth, "band")
        assert band_val <= oracle_select(seven_imfs, truth, "khigh")[1]
        assert band_val <= oracle_select(seven_imfs, truth, "llow")[1]

    def test_tie_prefers_smaller_set(self):
        zeros = np.zeros(20)
        # two identical IMFs fit equally well: the lexicographically smaller tuple wins
        x = np.random.default_rng(15).normal(0, 1, 20)
        cases = [([zeros, zeros, zeros], zeros, ()), ([x, x], x, (1,))]
        for rows, truth, want in cases:
            rule, value = oracle_select(make_decomposition(rows), truth, "powerset")
            assert value == 0.0
            assert rule == want

    def test_powerset_guard(self):
        rng = np.random.default_rng(4)
        d = make_decomposition([rng.normal(0, 1, 8) for _ in range(21)])
        with pytest.raises(ValueError, match="subset explosion"):
            oracle_select(d, np.zeros(8), "powerset")

    def test_non_finite_truth(self, seven_imfs):
        truth = seven_imfs.imfs[1].samples.copy()
        truth[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            oracle_select(seven_imfs, truth, "powerset")

    def test_unknown_family(self, seven_imfs):
        with pytest.raises(ValueError, match="unknown rule family"):
            oracle_select(seven_imfs, np.zeros(40), "median")


class TestNoiseSigma:
    def test_standard_normal(self):
        x = np.random.default_rng(5).normal(0, 1, 10000)
        assert abs(noise_sigma(x) - 1.0) < 0.05

    def test_constant_series(self):
        assert noise_sigma(np.full(100, 3.3)) == 0.0

    def test_scale_equivariance(self):
        x = np.random.default_rng(6).normal(0, 1, 500)
        assert noise_sigma(2.5 * x) == pytest.approx(2.5 * noise_sigma(x))

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            noise_sigma([])


class TestWaveletHardThreshold:
    def test_all_below_threshold_zeroed(self):
        x = np.random.default_rng(7).normal(0, 1, 400)
        assert np.all(wavelet_hard_threshold(x * 1e-3) * 1e3 == wavelet_hard_threshold(x))
        out = wavelet_hard_threshold(x)
        # pure noise: essentially everything sits below the universal threshold
        assert np.count_nonzero(out) < 0.02 * x.size

    def test_spike_survives(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 1000)
        x[500] = 25.0
        out = wavelet_hard_threshold(x)
        assert out[500] == 25.0
        assert np.count_nonzero(out) <= 1 + 0.01 * x.size

    def test_idempotent_on_sparse_output(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, 1000)
        x[100] = 30.0
        x[700] = -28.0
        once = wavelet_hard_threshold(x)
        assert np.array_equal(wavelet_hard_threshold(once), once)

    def test_support_subset_of_input(self):
        x = np.random.default_rng(10).normal(0, 1, 300)
        out = wavelet_hard_threshold(x)
        assert np.all(x[out != 0] != 0)


class TestWaveletIntervalThreshold:
    def test_every_lobe_above_threshold_is_identity(self):
        # a sparse tone leaves the robust noise estimate at zero, so every
        # nonzero lobe clears the threshold and the series passes verbatim
        x = np.zeros(512)
        t = np.arange(48)
        x[100:148] = 10.0 * np.sin(2 * np.pi * (t + 0.5) / 16)
        assert np.array_equal(wavelet_interval_threshold(x), x)

    def test_signal_dominated_tone_is_its_own_noise_estimate(self):
        # full-duration oscillation: the robust scale tracks the tone itself,
        # the threshold lands above every lobe, and the whole series is zeroed
        t = np.arange(512)
        x = 10.0 * np.sin(2 * np.pi * t / 16)
        assert np.all(wavelet_interval_threshold(x) == 0)

    def test_subthreshold_noise_zeroed(self):
        x = np.random.default_rng(11).normal(0, 1, 256)
        out = wavelet_interval_threshold(x)
        assert np.count_nonzero(out) == 0

    def test_support_is_union_of_whole_lobes(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, 600)
        x[200:260] += 8 * np.sin(2 * np.pi * np.arange(60) / 12)
        out = wavelet_interval_threshold(x)
        kept = out != 0
        for i in np.flatnonzero(kept):
            assert out[i] == x[i]
        assert np.any(kept[200:260])
        # kept samples arrive in whole zero-bounded lobes: each kept run is
        # flanked by sign changes or series ends in the raw data
        runs = np.flatnonzero(np.diff(kept.astype(int)) != 0)
        assert runs.size > 0

    def test_burst_keeps_whole_lobes_and_zeroes_most_noise(self):
        rng = np.random.default_rng(14)
        x = rng.normal(0, 1, 4000)
        t = np.arange(300)
        x[2000:2300] += 9 * np.sin(2 * np.pi * t / 20) * np.sin(np.pi * t / 300)
        out = wavelet_interval_threshold(x)
        outside = np.count_nonzero(out[:2000]) + np.count_nonzero(out[2300:])
        assert np.any(out[2000:2300] != 0)
        assert outside < 0.01 * 3700

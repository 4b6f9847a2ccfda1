import itertools

import numpy as np
import pytest

from lcdsc import (
    Decomposition,
    keep_subset,
    noise_sigma,
    oracle_select,
    rss,
    wavelet_hard_threshold,
    wavelet_interval_threshold,
)
from lcdsc import baselines
from lcdsc.baselines import ORACLE_FAMILIES, _family_subsets


def make_decomposition(rows):
    rows = [np.asarray(r, dtype=float) for r in rows]
    return Decomposition(rows, np.zeros(rows[0].size))


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
        want = seven_imfs.imfs[5] + seven_imfs.imfs[6]
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
            [a + b for a, b in zip(seven_imfs.imfs, other.imfs)]
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
        with pytest.raises(ValueError, match="imf index must be an integer"):
            keep_subset(seven_imfs, (1.5,))


class TestOracleSelect:
    def test_singleton_truth_recovered_exactly(self, seven_imfs):
        truth = seven_imfs.imfs[3]
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
        truth = seven_imfs.imfs[1].copy()
        truth[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            oracle_select(seven_imfs, truth, "powerset")

    def test_unknown_family(self, seven_imfs):
        with pytest.raises(ValueError, match="unknown rule family"):
            oracle_select(seven_imfs, np.zeros(40), "median")


def reference_family(family, n_imfs):
    """Every index tuple of a rule family, written out independently."""
    everything = range(1, n_imfs + 1)
    if family == "powerset":
        return [s for k in range(n_imfs + 1) for s in itertools.combinations(everything, k)]
    bands = [()] + [tuple(range(lo, hi + 1)) for lo in everything for hi in range(lo, n_imfs + 1)]
    if family == "band":
        return bands
    if family == "khigh":
        return [s for s in bands if not s or s[-1] == n_imfs]
    return [s for s in bands if not s or s[0] == 1]


def reference_oracle(d, truth, family):
    """One keep_subset and one rss per subset, the direct form of the search."""
    value, _, best = min((rss(keep_subset(d, s), truth), len(s), s)
                         for s in reference_family(family, d.n_imfs))
    return best, value


class TestOracleMatchesPerSubsetSearch:
    """oracle_select's running sums give the per-subset search's rule and rss bits."""

    def check(self, d, truth):
        for family in ORACLE_FAMILIES:
            got_rule, got_value = oracle_select(d, truth, family)
            want_rule, want_value = reference_oracle(d, truth, family)
            assert got_rule == want_rule, family
            assert got_value.hex() == want_value.hex(), family

    def test_family_enumerations(self):
        for n_imfs in range(8):
            for family in ORACLE_FAMILIES:
                got = list(_family_subsets(family, n_imfs))
                assert len(got) == len(set(got))
                assert sorted(got) == sorted(reference_family(family, n_imfs))

    def test_random_decompositions(self):
        rng = np.random.default_rng(16)
        for width in range(11):
            n = int(rng.integers(5, 300))
            rows = [rng.normal(0, 1, n) * 10.0 ** rng.uniform(-2, 2) for _ in range(width)]
            d = Decomposition(rows, rng.normal(0, 1, n))
            self.check(d, rng.normal(0, 1, n) * float(width))

    def test_duplicated_imfs_force_ties(self):
        rng = np.random.default_rng(17)
        a, b = rng.normal(0, 1, 64), rng.normal(0, 1, 64)
        d = make_decomposition([a, b, a, np.zeros(64), b, a])
        for truth in (a, a + b, np.zeros(64), 2 * a):
            self.check(d, truth)

    def test_truth_equal_to_one_imf(self):
        rng = np.random.default_rng(18)
        rows = [rng.normal(0, 1, 50) for _ in range(7)]
        d = make_decomposition(rows)
        for j in range(7):
            self.check(d, rows[j])
            assert oracle_select(d, rows[j], "powerset") == ((j + 1,), 0.0)


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


def _oracle(family):
    """The oracle over one IMF against a zero truth, as a one-IMF estimator."""
    return lambda imf: oracle_select(make_decomposition([imf]), np.zeros(len(imf)), family)


@pytest.mark.parametrize("estimator", [noise_sigma, wavelet_hard_threshold,
                                       wavelet_interval_threshold]
                         + [_oracle(family) for family in ORACLE_FAMILIES],
                         ids=["noise_sigma", "wavelet_hard_threshold", "wavelet_interval_threshold"]
                         + [f"oracle-{family}" for family in ORACLE_FAMILIES])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_imf_is_rejected(estimator, bad):
    with pytest.raises(ValueError, match="invalid samples: input contains non-finite values"):
        estimator([bad, 1.0, -2.0, 3.0])


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


def reference_interval_threshold(x):
    """The per-interval form: zero each inter-zero-crossing interval whose
    largest magnitude does not exceed the universal threshold."""
    x = np.asarray(x, dtype=float)
    threshold = baselines._universal_threshold(x)
    signs = np.sign(x)
    idx = np.where(signs != 0, np.arange(x.size), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, signs[np.maximum(idx, 0)], 0.0)
    cuts = np.flatnonzero((filled[:-1] != filled[1:]) & (filled[:-1] != 0) & (filled[1:] != 0)) + 1
    bounds = np.concatenate(([0], cuts, [x.size]))
    out = np.zeros_like(x)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if np.abs(x[a:b]).max() > threshold:
            out[a:b] = x[a:b]
    return out


class TestIntervalThresholdMatchesPerIntervalLoop:
    def check(self, x):
        x = np.asarray(x, dtype=float)
        got = wavelet_interval_threshold(x)
        assert got.dtype == x.dtype and got.shape == x.shape
        assert got.tobytes() == reference_interval_threshold(x).tobytes()

    def test_edge_cases(self):
        self.check([0.0])
        self.check([-2.5])
        self.check(np.zeros(40))
        self.check([0.0, 0.0, 0.0, 3.0, -1.0, 0.0, 0.0, 2.0, -0.0, 0.0])
        self.check([-0.0, 5.0, 0.0, -5.0, -0.0])
        spike = np.zeros(300)
        spike[150] = -9.0
        self.check(spike)

    def test_peak_equal_to_threshold_is_zeroed(self, monkeypatch):
        # an interval survives only when its peak exceeds the threshold
        monkeypatch.setattr(baselines, "_universal_threshold", lambda x: 2.0)
        x = np.array([1.0, 2.0, -1.0, -2.5, 0.0, 2.0, 1.5, -2.0])
        want = np.array([0.0, 0.0, -1.0, -2.5, 0.0, 0.0, 0.0, 0.0])
        assert wavelet_interval_threshold(x).tobytes() == want.tobytes()
        self.check(x)

    def test_sign_runs(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            run = int(rng.choice([1, 2, 5, 40, 200]))
            signs = np.repeat(rng.choice([-1.0, 0.0, 1.0], n // run + 1, p=[0.45, 0.1, 0.45]), run)[:n]
            x = signs * np.round(rng.exponential(1.0, n) * 10.0 ** rng.uniform(-1, 2), 2)
            if rng.random() < 0.3:
                x[: int(rng.integers(0, n + 1))] = 0.0  # leading zeros
            self.check(x)

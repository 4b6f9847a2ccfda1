import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdsc import (
    ChangePointSet,
    EmdConfig,
    LcdscConfig,
    LocalSignalSpec,
    Penalty,
    SegmentDecision,
    TimeSeries,
    clean_imf,
    f_test_segment,
    gamma_sweep,
    lcdsc_clean,
    local_doppler,
    run_benchmark,
)

FAST_EMD = EmdConfig(ensemble_size=6, seed=0)


def decision_for(imf_index, start, end, significant, p=0.001):
    test = f_test_segment(
        (1.0, 20), (100.0 if significant else 1.0, 20), (1.0, 20), 1.0,
        imf_index=imf_index, seg_start=start, seg_end=end,
    )
    return SegmentDecision(test=test, significant=significant, holm_threshold=0.05)


class TestCleanImf:
    def test_no_change_points_zeroes_everything(self):
        x = np.random.default_rng(0).normal(0, 1, 60)
        cps = ChangePointSet((), 0.0, Penalty.mbic(), 5)
        out = clean_imf(x, cps, [])
        assert np.all(out == 0)

    def test_one_significant_segment_kept_verbatim(self):
        x = np.random.default_rng(1).normal(0, 1, 60)
        cps = ChangePointSet((19, 39), 0.0, Penalty.mbic(), 5)
        decisions = [
            decision_for(1, 0, 19, False),
            decision_for(1, 20, 39, True),
            decision_for(1, 40, 59, False),
        ]
        out = clean_imf(x, cps, decisions)
        assert np.array_equal(out[20:40], x[20:40])
        assert np.all(out[:20] == 0)
        assert np.all(out[40:] == 0)

    def test_all_segments_significant_is_identity(self):
        x = np.random.default_rng(2).normal(0, 1, 60)
        cps = ChangePointSet((29,), 0.0, Penalty.mbic(), 5)
        decisions = [decision_for(1, 0, 29, True), decision_for(1, 30, 59, True)]
        assert np.array_equal(clean_imf(x, cps, decisions), x)

    def test_rejects_wrong_coverage(self):
        x = np.ones(60)
        cps = ChangePointSet((29,), 0.0, Penalty.mbic(), 5)
        with pytest.raises(ValueError, match="cover"):
            clean_imf(x, cps, [decision_for(1, 0, 29, True)])


@pytest.fixture(scope="module")
def doppler_report():
    noisy, truth, active = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed=1))
    config = LcdscConfig(emd=EmdConfig(ensemble_size=8, seed=1))
    return lcdsc_clean(noisy, config), noisy, truth


class TestPipeline:
    def test_doppler_onset_near_burst_start(self, doppler_report):
        report, _, _ = doppler_report
        nonzero = np.flatnonzero(report.cleaned_signal)
        assert nonzero.size > 0
        assert 975 <= nonzero[0] <= 1050

    def test_report_self_consistency(self, doppler_report):
        report, _, _ = doppler_report
        resum = np.sum(np.stack(report.cleaned_imfs), axis=0)
        assert np.array_equal(resum, report.cleaned_signal)

    def test_support_subset_of_significant_segments(self, doppler_report):
        report, _, _ = doppler_report
        keep = np.zeros(2500, dtype=bool)
        for dec in report.decisions:
            if dec.significant:
                keep[dec.test.seg_start : dec.test.seg_end + 1] = True
        assert np.all(keep[report.cleaned_signal != 0])

    def test_imf_without_changepoints_is_zero(self, doppler_report):
        report, _, _ = doppler_report
        for cps, cleaned in zip(report.changepoints, report.cleaned_imfs):
            if not cps.taus:
                assert np.all(cleaned == 0)

    def test_eta_matches_decisions(self, doppler_report):
        report, _, _ = doppler_report
        want = {d.test.imf_index for d in report.decisions if d.significant}
        assert report.significant_imfs == frozenset(want)
        for dec in report.decisions:
            if dec.significant:
                assert dec.test.p_value < dec.holm_threshold

    def test_deterministic(self, doppler_report):
        report, noisy, _ = doppler_report
        config = LcdscConfig(emd=EmdConfig(ensemble_size=8, seed=1))
        again = lcdsc_clean(noisy, config)
        assert np.array_equal(report.cleaned_signal, again.cleaned_signal)
        assert report.significant_imfs == again.significant_imfs
        assert [d.test.p_value for d in report.decisions] == [
            d.test.p_value for d in again.decisions
        ]

    def test_full_rate_amplitudes_reported(self, doppler_report):
        report, _, _ = doppler_report
        assert len(report.amplitudes) == report.decomposition.n_imfs
        assert all(a.size == 2500 for a in report.amplitudes)

    def test_changepoint_bounds_are_full_rate(self, doppler_report):
        report, _, _ = doppler_report
        for cps in report.changepoints:
            for tau in cps.taus:
                assert 1 <= tau <= 2499
            assert list(cps.taus) == sorted(set(cps.taus))

    def test_white_noise_mostly_zero(self):
        zero_runs = 0
        for seed in range(5):
            x = np.random.default_rng([555, seed]).normal(0, 1, 700)
            config = LcdscConfig(emd=EmdConfig(ensemble_size=6, seed=seed))
            report = lcdsc_clean(TimeSeries(x), config)
            if not np.any(report.cleaned_signal != 0):
                zero_runs += 1
        assert zero_runs >= 4

    def test_include_residual_flag(self, doppler_report):
        report, noisy, _ = doppler_report
        config = LcdscConfig(emd=EmdConfig(ensemble_size=8, seed=1), include_residual=True)
        with_res = lcdsc_clean(noisy, config)
        base = np.sum(np.stack(with_res.cleaned_imfs), axis=0)
        assert np.array_equal(with_res.cleaned_signal, base + with_res.decomposition.residual)


class TestGammaSweep:
    def test_single_gamma_matches_clean(self):
        noisy, _, _ = local_doppler(LocalSignalSpec(600, 240, 360, 0.2, seed=3))
        config = LcdscConfig(emd=EmdConfig(ensemble_size=6, seed=3))
        sweep = gamma_sweep(noisy, [1.0], config)
        single = lcdsc_clean(noisy, config)
        assert len(sweep) == 1
        assert np.array_equal(sweep[0].cleaned_signal, single.cleaned_signal)

    def test_sparsity_monotone_and_nested(self):
        noisy, _, _ = local_doppler(LocalSignalSpec(900, 300, 600, 0.25, seed=5))
        config = LcdscConfig(emd=EmdConfig(ensemble_size=6, seed=5))
        reports = gamma_sweep(noisy, [1.0, 2.0, 4.0], config)
        counts = [int(np.count_nonzero(r.cleaned_signal)) for r in reports]
        assert counts[0] >= counts[1] >= counts[2]
        sig_sets = [
            {(d.test.imf_index, d.test.seg_start) for d in r.decisions if d.significant}
            for r in reports
        ]
        assert sig_sets[2] <= sig_sets[1] <= sig_sets[0]

    def test_gamma_stored_per_report(self):
        noisy, _, _ = local_doppler(LocalSignalSpec(600, 240, 360, 0.2, seed=3))
        config = LcdscConfig(emd=EmdConfig(ensemble_size=4, seed=3))
        reports = gamma_sweep(noisy, [1.0, 3.0], config)
        assert [r.config.gamma for r in reports] == [1.0, 3.0]

    def test_validation(self):
        noisy, _, _ = local_doppler(LocalSignalSpec(600, 240, 360, 0.2, seed=3))
        with pytest.raises(ValueError, match="nonempty"):
            gamma_sweep(noisy, [], LcdscConfig(emd=FAST_EMD))
        with pytest.raises(ValueError, match="at least 1"):
            gamma_sweep(noisy, [0.5], LcdscConfig(emd=FAST_EMD))


recordings = st.builds(
    lambda seed, sigma: local_doppler(LocalSignalSpec(400, 150, 250, sigma, seed=seed))[0],
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 0.5),
)


class TestProperties:
    @settings(deadline=None, max_examples=8)
    @given(recordings, st.lists(st.floats(1.0, 16.0), min_size=2, max_size=4))
    def test_significant_sets_nest_as_gamma_grows(self, noisy, gammas):
        gammas = sorted(gammas)
        reports = gamma_sweep(noisy, gammas, LcdscConfig(emd=EmdConfig(ensemble_size=2)))
        sig_sets = [
            {(d.test.imf_index, d.test.seg_start) for d in r.decisions if d.significant}
            for r in reports
        ]
        for larger, smaller in zip(sig_sets, sig_sets[1:]):
            assert smaller <= larger

    @settings(deadline=None, max_examples=8)
    @given(recordings, st.floats(1.0, 4.0))
    def test_each_segment_is_kept_whole_or_zeroed_whole(self, noisy, gamma):
        report = lcdsc_clean(noisy, LcdscConfig(emd=EmdConfig(ensemble_size=2), gamma=gamma))
        n = len(noisy)
        for pos, imf in enumerate(report.decomposition.imfs):
            cleaned = report.cleaned_imfs[pos]
            cps = report.changepoints[pos]
            decisions = [d for d in report.decisions if d.test.imf_index == pos + 1]
            if not cps.taus:
                assert not decisions and not cleaned.any()
                continue
            segments = cps.segments(n)
            assert [(d.test.seg_start, d.test.seg_end) for d in decisions] == segments
            for (lo, hi), d in zip(segments, decisions):
                want = imf.samples[lo : hi + 1] if d.significant else np.zeros(hi - lo + 1)
                assert np.array_equal(cleaned[lo : hi + 1], want)


class TestConfigValidation:
    def test_non_finite_values_are_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma"):
                LcdscConfig(gamma=bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="penalty_scale"):
                LcdscConfig(penalty_scale=bad)
        with pytest.raises(ValueError, match="alpha"):
            LcdscConfig(alpha=math.nan)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LcdscConfig(gamma=0.5)
        with pytest.raises(ValueError):
            LcdscConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LcdscConfig(min_seg_len=1)
        with pytest.raises(ValueError):
            LcdscConfig(penalty_scale=0.0)

    @pytest.mark.parametrize("workers", [2, 0, -3])
    def test_workers_other_than_one_is_rejected(self, workers):
        # the ensemble has one path, on the calling thread
        noisy, _, _ = local_doppler(LocalSignalSpec(600, 240, 360, 0.2, seed=3))
        with pytest.raises(ValueError, match="workers must be 1"):
            lcdsc_clean(noisy, LcdscConfig(emd=FAST_EMD), workers=workers)
        with pytest.raises(ValueError, match="workers must be 1"):
            run_benchmark(["lcdsc"], [(600, 0.2, 0.25)], 1, 0, LcdscConfig(emd=FAST_EMD),
                          workers=workers)

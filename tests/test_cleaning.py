import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdsc import (
    ChangePointSet,
    Decomposition,
    EmdConfig,
    LcdscConfig,
    LocalSignalSpec,
    SegmentDecision,
    TimeSeries,
    clean_decomposition,
    clean_imf,
    f_test_segment,
    gamma_sweep,
    lcdsc_clean,
    local_doppler,
    run_benchmark,
)

from lcdsc.changepoint import Penalty, detect_changepoints
from lcdsc.cleaning import _cycle_stride, _effective_count
from lcdsc.inference import holm_bonferroni, holm_thresholds, sample_variance
from lcdsc.spectral import instantaneous_amplitude

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
        cps = ChangePointSet((), 0.0)
        out = clean_imf(x, cps, [])
        assert np.all(out == 0)

    def test_one_significant_segment_kept_verbatim(self):
        x = np.random.default_rng(1).normal(0, 1, 60)
        cps = ChangePointSet((19, 39), 0.0)
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
        cps = ChangePointSet((29,), 0.0)
        decisions = [decision_for(1, 0, 29, True), decision_for(1, 30, 59, True)]
        assert np.array_equal(clean_imf(x, cps, decisions), x)

    def test_rejects_wrong_coverage(self):
        x = np.ones(60)
        cps = ChangePointSet((29,), 0.0)
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


def stack_sum(rows, n):
    """The reference for the cleaned signal: ``np.sum`` over a stacked copy."""
    return np.sum(np.stack(rows), axis=0) if len(rows) else np.zeros(n)


def bursty_rows(rng, width, n):
    """IMF-like rows, each with a variance burst to detect, and a few signed zeros."""
    t = np.arange(n)
    rows = []
    for j in range(width):
        period = 4.0 * 2**j
        gain = np.where((t > n // 3) & (t < n // 2 + 37 * j), 8.0, 1.0)
        row = gain * np.sin(2 * np.pi * t / period + rng.uniform(0, 6)) * rng.uniform(0.5, 2, n)
        row[rng.random(n) < 0.01] = -0.0
        rows.append(row)
    return rows


class TestCleanedSum:
    """The cleaned signal adds the cleaned IMFs in order, without a stacked copy."""

    @pytest.mark.parametrize("width", [0, 1, 2, 6])
    @pytest.mark.parametrize("include_residual", [False, True])
    def test_cleaned_signal_matches_stack_sum(self, width, include_residual):
        n = 1200
        rng = np.random.default_rng(width)
        rows = bursty_rows(rng, width, n)
        d = Decomposition(rows, rng.normal(size=n) * 0.1)
        config = LcdscConfig(include_residual=include_residual)
        report = clean_decomposition(d, config)
        assert len(report.cleaned_imfs) == width
        if width:
            assert any(np.any(c) for c in report.cleaned_imfs)  # something was kept
        want = stack_sum(report.cleaned_imfs, n)
        if include_residual:
            want = want + d.residual
        assert report.cleaned_signal.tobytes() == want.tobytes()

    def test_stage_arrays_are_read_only(self):
        rng = np.random.default_rng(5)
        d = Decomposition(bursty_rows(rng, 3, 1200), np.zeros(1200))
        for config in (LcdscConfig(), LcdscConfig(include_residual=True)):
            report = clean_decomposition(d, config)
            for arr in (report.cleaned_signal, *report.cleaned_imfs, *report.amplitudes):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0


class TestReportMatrices:
    """Amplitudes and cleaned IMFs are read-only (n_imfs, n) matrices, row j - 1 for IMF j."""

    @staticmethod
    def cleaned(width):
        d = Decomposition(bursty_rows(np.random.default_rng(width), width, 1200), np.zeros(1200))
        return d, clean_decomposition(d)

    @pytest.mark.parametrize("width", [0, 1, 6])
    def test_read_only_float_matrices(self, width):
        _, report = self.cleaned(width)
        for matrix in (report.amplitudes, report.cleaned_imfs):
            assert isinstance(matrix, np.ndarray)
            assert matrix.dtype == np.float64 and matrix.shape == (width, 1200)
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[...] = 1.0

    @pytest.mark.parametrize("width", [0, 1, 6])
    def test_rows_are_clean_imf_of_each_imf(self, width):
        d, report = self.cleaned(width)
        want = np.zeros((width, 1200))
        for j in range(1, width + 1):
            decisions = [dec for dec in report.decisions if dec.test.imf_index == j]
            want[j - 1] = clean_imf(d.imfs[j - 1], report.changepoints[j - 1], decisions)
        assert report.cleaned_imfs.tobytes() == want.tobytes()

    def test_gamma_sweep_shares_one_amplitude_matrix(self):
        noisy, _, _ = local_doppler(LocalSignalSpec(600, 240, 360, 0.2, seed=3))
        reports = gamma_sweep(noisy, [1.0, 2.0, 4.0], LcdscConfig(emd=FAST_EMD))
        assert all(r.amplitudes is reports[0].amplitudes for r in reports)
        assert reports[0].amplitudes.shape == (reports[0].decomposition.n_imfs, 600)


def sine_with_samples(n, size):
    """A sine whose amplitude the detection stage samples at ``size`` per-cycle points."""
    t = np.arange(n)
    for period in range(2, n):
        imf = np.sin(2 * np.pi * t / period + 0.3)
        if -(-n // _cycle_stride(imf, n)[0]) == size:
            return imf
    raise AssertionError(f"no period gives {size} samples")


def parent_stages(d, config):
    """The detection and testing stages written out the long way: a full-length
    edge-held amplitude copy per IMF, and decisions regrouped by IMF index."""
    n, msl = d.residual.size, config.min_seg_len
    amplitudes, changepoints, tables, diagnostics = [], [], [], list(d.diagnostics)
    for j, imf in enumerate(d.imfs, start=1):
        amp = instantaneous_amplitude(imf)
        amplitudes.append(amp)
        stride, factor = _cycle_stride(imf, n)
        guarded = amp.copy()
        if n > 2 * stride:
            guarded[:stride] = guarded[stride]
            guarded[n - stride :] = guarded[n - stride - 1]
        sampled = guarded[::stride]
        if sampled.size < 2 * msl:
            diagnostics.append(f"imf {j}: amplitude too short to segment; component zeroed")
            changepoints.append(ChangePointSet((), 0.0))
            tables.append(())
            continue
        cps = detect_changepoints(sampled, Penalty(config.penalty, config.beta), msl,
                                  config.penalty_scale)
        full = ChangePointSet(tuple(int((t + 1) * stride - 1) for t in cps.taus), cps.total_cost)
        table = ()
        if cps.taus:
            table = tuple(
                (lo, hi, sample_variance(sampled, a, b), _effective_count(b - a + 1, factor))
                for (a, b), (lo, hi) in zip(cps.segments(sampled.size), full.segments(n))
            )
        changepoints.append(full)
        tables.append(table)
    tests = [
        f_test_segment(table[q - 1][2:] if q else None, (s2, count),
                       table[q + 1][2:] if q + 1 < len(table) else None, config.gamma,
                       imf_index=j, seg_start=lo, seg_end=hi)
        for j, table in enumerate(tables, start=1)
        for q, (lo, hi, s2, count) in enumerate(table)
    ]
    p = [t.p_value for t in tests]
    flags = holm_bonferroni(p, config.alpha) if tests else []
    thresholds = holm_thresholds(p, config.alpha) if tests else []
    decisions = tuple(map(SegmentDecision, tests, flags, thresholds))
    per_imf = [[] for _ in d.imfs]
    for dec in decisions:
        per_imf[dec.test.imf_index - 1].append(dec)
    cleaned = np.zeros_like(d.imfs)
    for row, imf, cps, decs in zip(cleaned, d.imfs, changepoints, per_imf):
        row[:] = clean_imf(imf, cps, decs)
    return np.array(amplitudes), changepoints, decisions, cleaned, diagnostics


class TestStageLayout:
    """Each IMF's decisions are a contiguous run in table order, and only the
    first and last per-cycle samples are held at interior values."""

    @pytest.mark.parametrize("msl", [2, 3, 5])
    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_matches_the_stages_written_out(self, msl, gamma):
        n = 1200
        bursty = bursty_rows(np.random.default_rng(msl), 2, n)
        # per-cycle series of 2 * msl - 1, 2 * msl and 2 * msl + 1 samples, and
        # zeroed IMFs between the two IMFs with segments
        short = [sine_with_samples(n, 2 * msl + k) for k in (-1, 0, 1)]
        zero = np.zeros(n)
        d = Decomposition([bursty[0], zero, short[0], zero, bursty[1], *short[1:], zero],
                          np.zeros(n), diagnostics=("from the decomposition",))
        config = LcdscConfig(min_seg_len=msl, gamma=gamma)
        report = clean_decomposition(d, config)
        amplitudes, changepoints, decisions, cleaned, diagnostics = parent_stages(d, config)

        assert report.amplitudes.tobytes() == amplitudes.tobytes()
        assert [(c.taus, c.total_cost.hex()) for c in report.changepoints] == [
            (c.taus, c.total_cost.hex()) for c in changepoints
        ]
        assert report.decisions == decisions
        assert report.cleaned_imfs.tobytes() == cleaned.tobytes()
        assert report.diagnostics == tuple(diagnostics)
        # the layout the test is about: segments on IMFs 1 and 5, none on those between
        segmented = sorted({dec.test.imf_index for dec in decisions})
        assert segmented[:2] == [1, 5]
        # detection ran on the IMFs with 2 * msl and 2 * msl + 1 samples too
        assert sum(1 for c in changepoints if c.total_cost != 0.0) == 4


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

    def test_gammas_are_checked_unconverted_before_decomposing(self, monkeypatch):
        def no_decomposition(*args):
            raise AssertionError("decomposed before every gamma was checked")

        monkeypatch.setattr("lcdsc.cleaning.eemd", no_decomposition)
        noisy = np.sin(np.arange(200.0))
        with pytest.raises(ValueError, match="gamma must be a real number, not bool"):
            gamma_sweep(noisy, [2.0, True])
        with pytest.raises(ValueError, match="gamma must be a real number, not str"):
            gamma_sweep(noisy, ["2"])

    def test_numpy_scalar_gamma_sweeps_as_a_plain_float(self):
        noisy, _, _ = local_doppler(LocalSignalSpec(600, 240, 360, 0.2, seed=3))
        config = LcdscConfig(emd=EmdConfig(ensemble_size=4, seed=3))
        (narrow,), (plain,) = (gamma_sweep(noisy, [g], config) for g in (np.float32(2.5), 2.5))
        assert type(narrow.config.gamma) is float and narrow.config == plain.config
        assert narrow.cleaned_signal.tobytes() == plain.cleaned_signal.tobytes()


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
                want = imf[lo : hi + 1] if d.significant else np.zeros(hi - lo + 1)
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
        for bad in (2.5, math.nan, 3.0, True, np.True_):
            with pytest.raises(ValueError, match="min_seg_len must be an integer"):
                LcdscConfig(min_seg_len=bad)
        with pytest.raises(ValueError):
            LcdscConfig(penalty_scale=0.0)
        for name in ("gamma", "alpha", "penalty_scale"):
            for bad in (True, np.True_):  # True passed every range check as 1
                with pytest.raises(ValueError, match=f"{name} must be a real number"):
                    LcdscConfig(**{name: bad})

    def test_numpy_scalars_are_stored_as_plain_numbers(self):
        config = LcdscConfig(min_seg_len=np.int16(5), gamma=np.float32(1.5), alpha=np.float64(0.05),
                             penalty_scale=np.int64(2))
        assert config == LcdscConfig(min_seg_len=5, gamma=1.5, alpha=0.05, penalty_scale=2.0)
        assert [type(config.min_seg_len), type(config.gamma), type(config.alpha),
                type(config.penalty_scale)] == [int, float, float, float]

    def test_numpy_integer_min_seg_len_cleans_as_its_value(self):
        noisy, _, _ = local_doppler(LocalSignalSpec(600, 240, 360, 0.2, seed=3))
        got = lcdsc_clean(noisy, LcdscConfig(emd=FAST_EMD, min_seg_len=np.int16(5)))
        want = lcdsc_clean(noisy, LcdscConfig(emd=FAST_EMD, min_seg_len=5))
        assert got.changepoints == want.changepoints and got.decisions == want.decisions
        assert np.array_equal(got.cleaned_signal, want.cleaned_signal)

    @pytest.mark.parametrize("penalty, beta", [("bic", 0.0), ("aic", 2.5), ("aic", 0.5)])
    def test_each_penalty_kind_reaches_detection(self, penalty, beta):
        n = 1200
        rows = bursty_rows(np.random.default_rng(7), 3, n)
        d = Decomposition(list(rows), np.zeros(n))
        config = LcdscConfig(penalty=penalty, beta=beta)
        report = clean_decomposition(d, config)
        _, changepoints, decisions, _, _ = parent_stages(d, config)
        assert [(c.taus, c.total_cost.hex()) for c in report.changepoints] == [
            (c.taus, c.total_cost.hex()) for c in changepoints
        ]
        assert report.decisions == decisions and report.config.penalty == penalty

    @pytest.mark.parametrize("settings, message", [
        ({"penalty": Penalty("bic")}, "unknown penalty kind"),
        ({"penalty": "bogus"}, "unknown penalty kind 'bogus'"),
        ({"beta": 5}, "beta applies only to the aic penalty"),
        ({"penalty": "bic", "beta": 5}, "beta applies only to the aic penalty"),
        ({"penalty": "aic"}, "aic penalty requires a finite beta > 0"),
        ({"penalty": "aic", "beta": math.inf}, "aic penalty requires a finite beta > 0"),
        ({"penalty": "aic", "beta": True}, "beta must be a real number, not bool"),
        ({"emd": None}, "emd must be an EmdConfig, not NoneType"),
        ({"emd": {"seed": 1}}, "emd must be an EmdConfig, not dict"),
    ])
    def test_penalty_and_emd_are_checked_when_the_config_is_built(self, settings, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LcdscConfig(**settings)

    def test_beta_is_stored_as_a_plain_float(self):
        config = LcdscConfig(penalty="aic", beta=np.float32(2.5))
        assert type(config.beta) is float and config == LcdscConfig(penalty="aic", beta=2.5)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_include_residual_is_stored_as_a_bool(self, value):
        config = LcdscConfig(include_residual=value)
        assert type(config.include_residual) is bool and config.include_residual == value

    @pytest.mark.parametrize("value", ["no", "false", 1, 0, None, 1.0, np.int64(1)])
    def test_include_residual_other_than_a_bool_is_rejected(self, value):
        with pytest.raises(ValueError, match="include_residual must be a bool"):
            LcdscConfig(include_residual=value)

    @pytest.mark.parametrize("workers", [2, 0, -3])
    def test_workers_other_than_one_is_rejected(self, workers):
        # the ensemble has one path, on the calling thread
        noisy, _, _ = local_doppler(LocalSignalSpec(600, 240, 360, 0.2, seed=3))
        with pytest.raises(ValueError, match="workers must be 1"):
            lcdsc_clean(noisy, LcdscConfig(emd=FAST_EMD), workers=workers)
        with pytest.raises(ValueError, match="workers must be 1"):
            run_benchmark(["lcdsc"], [(600, 0.2, 0.25)], 1, 0, LcdscConfig(emd=FAST_EMD),
                          workers=workers)


@pytest.mark.parametrize("decisions", [
    [decision_for(1, 0, 28, True), decision_for(1, 29, 59, True)],
    [decision_for(1, 0, 29, True), decision_for(2, 30, 58, True)],
], ids=["first-segment-short", "last-segment-short"])
def test_each_rejection_is_reached(decisions):
    with pytest.raises(ValueError, match="decision bounds do not match the segment layout"):
        clean_imf(np.ones(60), ChangePointSet((29,), 0.0), decisions)

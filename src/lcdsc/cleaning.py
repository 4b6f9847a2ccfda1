"""The local change detection and signal cleaning pipeline.

Decompose a recording, detect variance change points in each IMF's
instantaneous amplitude, F-test every inter-change-point segment against
its neighbors, apply the Holm correction across all segments of all IMFs
jointly, zero whatever is not significant, and rebuild the cleaned
signal.  An IMF without change points carries no identifiable local
signal and is zeroed entirely.

Change point analysis of an amplitude envelope needs care: the envelope
is only informative once per oscillation cycle, and treating every raw
sample as an observation makes both the segmentation likelihood and the
F-test wildly anti-conservative for slow components.  The pipeline
therefore samples each IMF's amplitude once per mean oscillation period
(estimated from the IMF's zero-crossing count) before detection, holds
the first and last period at the nearest interior value to suppress
analytic-transform edge spikes, and tests segment variances of that same
per-cycle series.  Components carrying fewer than ``2 * min_seg_len``
cycles in total cannot support the segment model at all and are zeroed
with a diagnostic.  Segment bounds map back to raw sample indices for
the zeroing step, so reports and cleaned output are always full
resolution.

Only the F-tests and what follows them depend on ``gamma``: each IMF's
segment table (full-rate bounds, per-cycle variance and effective count
of every segment) is computed once for each decomposition and reused
for every gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .changepoint import ChangePointSet, Penalty, detect_changepoints
from .emd import (
    Decomposition,
    EmdConfig,
    _as_1d_float,
    _frozen,
    _integer,
    _real,
    _zero_crossings,
    eemd,
)
from .inference import (
    SegmentDecision,
    f_test_segment,
    holm_bonferroni,
    holm_thresholds,
    sample_variance,
)
from .spectral import instantaneous_amplitude


@dataclass(frozen=True)
class LcdscConfig:
    """Settings for one cleaning run.

    ``penalty`` is the change-point penalty kind (``"aic"``, ``"bic"`` or
    ``"mbic"``) and ``beta`` its per-change cost, above 0 for ``aic`` and 0
    otherwise; both are checked as ``Penalty(penalty, beta)``.
    ``min_seg_len`` counts per-cycle amplitude samples (oscillation
    cycles), so it is scale-free across components.  ``penalty_scale``
    inflates the change-point penalty to offset the residual serial
    correlation of per-cycle amplitude samples; 1.0 recovers the plain
    information criterion.  Every number is stored as a plain Python
    ``int`` or ``float``: NumPy scalars are converted, and a bool raises
    ``ValueError``.
    """

    emd: EmdConfig = EmdConfig()
    penalty: str = "mbic"
    beta: float = 0.0
    min_seg_len: int = 5
    gamma: float = 1.0
    alpha: float = 0.05
    include_residual: bool = False
    penalty_scale: float = 2.0

    def __post_init__(self):
        if not isinstance(self.emd, EmdConfig):
            raise ValueError(f"emd must be an EmdConfig, not {type(self.emd).__name__}")
        object.__setattr__(self, "beta", Penalty(self.penalty, self.beta).beta)
        for name in ("gamma", "alpha", "penalty_scale"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        # each check is written so that NaN fails it
        if not 1 <= self.gamma < math.inf:
            raise ValueError("gamma must be at least 1 and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        object.__setattr__(self, "min_seg_len", _integer(self.min_seg_len, "min_seg_len"))
        if self.min_seg_len < 2:
            raise ValueError("min_seg_len must be at least 2")
        if not 0 < self.penalty_scale < math.inf:
            raise ValueError("penalty_scale must be positive and finite")
        if not isinstance(self.include_residual, (bool, np.bool_)):  # "no" is truthy
            raise ValueError("include_residual must be a bool")
        object.__setattr__(self, "include_residual", bool(self.include_residual))


@dataclass(frozen=True, eq=False)
class CleaningReport:
    """Everything one cleaning run produced."""

    decomposition: Decomposition
    amplitudes: np.ndarray         # read-only (n_imfs, n); row j - 1 is IMF j's
    changepoints: tuple[ChangePointSet, ...]
    decisions: tuple[SegmentDecision, ...]
    cleaned_imfs: np.ndarray       # read-only (n_imfs, n); row j - 1 is IMF j's
    cleaned_signal: np.ndarray
    significant_imfs: frozenset[int]
    config: LcdscConfig
    diagnostics: tuple[str, ...] = ()


def clean_imf(imf, cps: ChangePointSet, decisions) -> np.ndarray:
    """Zero every segment not flagged significant.

    Significant segments are copied verbatim; with no change points the
    whole component is zeroed.  ``decisions`` must cover every segment
    induced by ``cps`` in order.
    """
    x = _as_1d_float(imf, "imf")
    out = np.zeros_like(x)
    if not cps.taus:
        return out
    segments = cps.segments(x.size)
    decisions = list(decisions)
    if len(decisions) != len(segments):
        raise ValueError("decisions do not cover every segment")
    for (start, end), decision in zip(segments, decisions):
        if (decision.test.seg_start, decision.test.seg_end) != (start, end):
            raise ValueError("decision bounds do not match the segment layout")
        if decision.significant:
            out[start : end + 1] = x[start : end + 1]
    return out


def _cycle_stride(imf_samples: np.ndarray, n: int) -> tuple[int, float]:
    """Amplitude sampling stride (one sample per mean oscillation period)
    and the period/stride rounding ratio."""
    crossings = _zero_crossings(imf_samples)
    if not crossings:
        return n, float(n)
    period = 2.0 * n / crossings
    stride = max(1, int(round(period)))
    return stride, max(1.0, period / stride)


def _detect_stage(
    d: Decomposition, config: LcdscConfig
) -> tuple[np.ndarray, tuple[tuple[ChangePointSet, tuple], ...], tuple[str, ...]]:
    """Per-IMF amplitudes, change points and segment tables (the gamma-independent work).

    Each IMF gets its full-rate change points and its segment table: the
    full-rate start, end, per-cycle variance and effective count of every
    segment, empty when the IMF has no change points.
    """
    n = d.residual.size
    msl = config.min_seg_len
    penalty = Penalty(config.penalty, config.beta)
    diagnostics = list(d.diagnostics)
    detected = []
    empty = ChangePointSet((), 0.0)
    amplitudes = np.empty_like(d.imfs)
    for j, (imf, amp) in enumerate(zip(d.imfs, amplitudes), start=1):
        amp[:] = instantaneous_amplitude(imf)
        stride, factor = _cycle_stride(imf, n)
        sampled = amp[::stride].copy()
        if sampled.size < 2 * msl:
            diagnostics.append(f"imf {j}: amplitude too short to segment; component zeroed")
            detected.append((empty, ()))
            continue
        # hold the first and last period at interior values: the analytic
        # amplitude spikes at the series edges.  Here n > 3 * stride, so
        # one sample lies in each of those periods
        sampled[0], sampled[-1] = amp[stride], amp[n - stride - 1]
        cps = detect_changepoints(sampled, penalty, msl, config.penalty_scale)
        taus_full = tuple(int((tau + 1) * stride - 1) for tau in cps.taus)
        full_view = ChangePointSet(taus_full, cps.total_cost)
        segments = ()
        if cps.taus:
            segments = tuple(
                (lo, hi, sample_variance(sampled, a, b), _effective_count(b - a + 1, factor))
                for (a, b), (lo, hi) in zip(cps.segments(sampled.size), full_view.segments(n))
            )
        detected.append((full_view, segments))
    return _frozen(amplitudes), tuple(detected), tuple(diagnostics)


def _effective_count(samples: int, factor: float) -> int:
    return max(2, int(round(samples / factor)))


def _testing_stage(
    d: Decomposition,
    amplitudes: np.ndarray,
    detected: tuple[tuple[ChangePointSet, tuple], ...],
    diagnostics: tuple[str, ...],
    config: LcdscConfig,
) -> CleaningReport:
    """F-tests, Holm correction, zeroing, and report assembly for one gamma."""
    tests = []
    for j, (_, segs) in enumerate(detected, start=1):
        for q, (lo, hi, s2, count) in enumerate(segs):
            before = segs[q - 1][2:] if q > 0 else None
            after = segs[q + 1][2:] if q + 1 < len(segs) else None
            tests.append(
                f_test_segment(
                    before,
                    (s2, count),
                    after,
                    config.gamma,
                    imf_index=j,
                    seg_start=lo,
                    seg_end=hi,
                )
            )

    p_values = [t.p_value for t in tests]
    flags = holm_bonferroni(p_values, config.alpha)
    thresholds = holm_thresholds(p_values, config.alpha)
    decisions = tuple(
        SegmentDecision(test=t, significant=flag, holm_threshold=thr)
        for t, flag, thr in zip(tests, flags, thresholds)
    )

    cleaned_imfs = np.zeros_like(d.imfs)
    first = 0  # IMF j's decisions follow those of IMFs 1 .. j - 1, one per table row
    for row, imf, (cps, segs) in zip(cleaned_imfs, d.imfs, detected):
        row[:] = clean_imf(imf, cps, decisions[first : first + len(segs)])
        first += len(segs)
    # rows are added in order from +0.0: the bits of np.sum over a stacked copy
    cleaned = cleaned_imfs.sum(axis=0)
    if config.include_residual:
        cleaned += d.residual
    eta = frozenset(dec.test.imf_index for dec in decisions if dec.significant)
    return CleaningReport(
        decomposition=d,
        amplitudes=amplitudes,
        changepoints=tuple(cps for cps, _ in detected),
        decisions=decisions,
        cleaned_imfs=_frozen(cleaned_imfs),
        cleaned_signal=_frozen(cleaned),
        significant_imfs=eta,
        config=config,
        diagnostics=diagnostics,
    )


def clean_decomposition(d: Decomposition, config: LcdscConfig | None = None) -> CleaningReport:
    """Run the cleaning stages on an existing decomposition."""
    config = config or LcdscConfig()
    return _testing_stage(d, *_detect_stage(d, config), config)


def lcdsc_clean(series, config: LcdscConfig | None = None, workers: int = 1) -> CleaningReport:
    """Full pipeline: decompose, segment, test, zero, reconstruct.

    Parameters
    ----------
    series : TimeSeries or array_like
        The noisy recording.
    config : LcdscConfig, optional
        Pipeline settings; defaults follow the module defaults.
    workers : int, optional
        Must be 1: the decomposition ensemble runs on the calling thread.
        The parameter stays only until the benchmark stops passing it.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}: the ensemble runs on "
                         "the calling thread")
    config = config or LcdscConfig()
    d = eemd(series, config.emd)
    return clean_decomposition(d, config)


def gamma_sweep(series, gammas, config: LcdscConfig | None = None) -> list[CleaningReport]:
    """Clean once per gamma, reusing one decomposition and one segment table per IMF.

    Only the testing stage depends on gamma, so larger values can only
    shrink the set of significant segments.  Every gamma is checked by
    ``LcdscConfig`` before the decomposition runs.
    """
    config = config or LcdscConfig()
    configs = [replace(config, gamma=g) for g in gammas]
    if not configs:
        raise ValueError("gammas must be nonempty")
    d = eemd(series, config.emd)
    detected = _detect_stage(d, config)
    return [_testing_stage(d, *detected, c) for c in configs]

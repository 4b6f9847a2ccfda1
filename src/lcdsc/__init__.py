"""Local change point detection and signal cleaning for EEMD signals."""

from .baselines import (
    keep_subset,
    noise_sigma,
    oracle_select,
    wavelet_hard_threshold,
    wavelet_interval_threshold,
)
from .changepoint import (
    ChangePointSet,
    Penalty,
    SegStats,
    detect_changepoints,
    penalty_value,
    segment_cost,
)
from .cleaning import (
    CleaningReport,
    LcdscConfig,
    clean_decomposition,
    clean_imf,
    gamma_sweep,
    lcdsc_clean,
)
from .emd import (
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
from .inference import (
    SegmentDecision,
    SegmentTest,
    f_cdf,
    f_test_segment,
    holm_bonferroni,
    holm_thresholds,
    sample_variance,
)
from .simulation import (
    BenchResult,
    LocalSignalSpec,
    bench_table,
    chirp,
    doppler,
    doppler_grid,
    double_doppler,
    local_doppler,
    locality_ratio,
    rss,
    run_benchmark,
    separability_check,
)
from .spectral import (
    analytic_signal,
    instantaneous_amplitude,
    instantaneous_frequency,
)

__version__ = "0.1.0"

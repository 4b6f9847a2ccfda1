"""Synthetic signals, error metrics, and the seeded benchmark runner.

The generators place a variable-frequency burst (or two) inside Gaussian
background noise; every generator is a pure function of its parameters
including the seed.  The benchmark runner builds instances on a grid of
length, noise level, and signal locality, runs each requested cleaning
method on the same instance, and scores everything by residual sum of
squares against the known truth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

# called as module attributes, so the wrappers perfbench/tracing.py installs are called
from . import baselines, cleaning
from .emd import (TimeSeries, _as_1d_float, _at_least, _integer, _MIN_SAMPLES, _nonnegative,
                  _one_worker, _positive, _real, _seed_bits, eemd)

METHOD_NAMES = ("lcdsc", "khigh", "llow", "band", "powerset", "wht", "wit", "none")


@dataclass(frozen=True)
class LocalSignalSpec:
    """A burst on the inclusive sample interval [a_start, a_end] inside
    noise of length total_len."""

    total_len: int
    a_start: int
    a_end: int
    noise_sigma: float
    seed: int = 0

    def __post_init__(self):
        for name in ("total_len", "a_start", "a_end", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not 0 <= self.a_start < self.a_end < self.total_len:
            raise ValueError("active interval must satisfy 0 <= a_start < a_end < total_len")
        object.__setattr__(self, "noise_sigma", _nonnegative(self.noise_sigma, "noise_sigma"))


@dataclass(frozen=True)
class BenchResult:
    """One method's score on one simulated instance."""

    method: str
    t_len: int
    sigma: float
    param: float
    replicate: int
    seed: int
    rss: float
    seconds: float


def doppler(u):
    """Variable-frequency test burst on [0, 1], zero at both endpoints.

    ``7*sqrt(u*(1-u)) * sin(2*pi*1.05/(u+0.05))``; accepts scalars or
    arrays.
    """
    arr = np.asarray(u, dtype=float)
    if not np.all((arr >= 0) & (arr <= 1)):  # NaN fails it
        raise ValueError("u must lie in [0, 1]")
    value = 7.0 * np.sqrt(arr * (1.0 - arr)) * np.sin(2.0 * np.pi * 1.05 / (arr + 0.05))
    return float(value) if np.isscalar(u) else value


def _with_noise(signal: np.ndarray, sigma: float, seed: int, dt: float = 1.0) -> TimeSeries:
    """``signal`` plus white Gaussian noise of sd ``sigma``, drawn from ``seed``."""
    rng = np.random.default_rng(_seed_bits(seed))
    return TimeSeries(signal + rng.normal(0.0, _nonnegative(sigma, "sigma"), signal.size), dt)


def local_doppler(spec: LocalSignalSpec) -> tuple[TimeSeries, np.ndarray, tuple[int, int]]:
    """Doppler burst rescaled onto the active window plus white noise.

    Returns ``(noisy, truth, (a_start, a_end))``.  The burst argument is
    normalized over the window, ``u = (t - a_start)/(a_end - a_start)``,
    so the full burst appears inside the window.
    """
    t = np.arange(spec.total_len)
    truth = np.zeros(spec.total_len)
    window = slice(spec.a_start, spec.a_end + 1)
    u = (t[window] - spec.a_start) / (spec.a_end - spec.a_start)
    truth[window] = doppler(u)
    return _with_noise(truth, spec.noise_sigma, spec.seed), truth, (spec.a_start, spec.a_end)


def chirp(t_len: int, f0: float, f1: float, sigma: float = 0.0, seed: int = 0, dt: float = 1.0) -> TimeSeries:
    """Unit-amplitude linear chirp sweeping f0 to f1, plus white noise."""
    dt = _positive(dt, "dt")
    t_len = _at_least(t_len, "t_len", 4)
    f0, f1 = _real(f0, "f0"), _real(f1, "f1")
    if not (abs(f0) <= 0.5 / dt and abs(f1) <= 0.5 / dt):
        raise ValueError("chirp frequencies must be numbers within the Nyquist limit")
    t = np.arange(t_len) * dt
    duration = t_len * dt
    phase = 2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * duration))
    return _with_noise(np.sin(phase), sigma, seed, dt)


def double_doppler(
    delta: int, sigma: float, seed: int = 0
) -> tuple[TimeSeries, np.ndarray, tuple[int, int], tuple[int, int]]:
    """Two 500-sample bursts separated by a noise gap of length delta.

    Layout: 500 noise, burst, ``delta`` noise, burst, 500 noise; total
    length ``2000 + delta``.  Returns ``(noisy, truth, a1, a2)`` with the
    active windows as half-open ``(start, stop)`` pairs.
    """
    delta = _at_least(delta, "delta", 0)
    n = 2000 + delta
    a1 = (500, 1000)
    a2 = (1000 + delta, 1500 + delta)
    truth = np.zeros(n)
    for start, stop in (a1, a2):
        t = np.arange(start, stop)
        truth[start:stop] = doppler((t - start) / (stop - start))
    return _with_noise(truth, sigma, seed), truth, a1, a2


def rss(estimate, truth) -> float:
    """Residual sum of squares between an estimate and the truth."""
    est = _as_1d_float(estimate, "estimate")
    tru = _as_1d_float(truth, "truth")
    if est.size != tru.size:
        raise ValueError("estimate and truth lengths differ")
    diff = tru - est
    return float(np.sum(diff * diff))


def separability_check(cleaned_imf, a1: tuple[int, int], a2: tuple[int, int]) -> bool:
    """True when both bursts survive and at least half the gap is zeroed.

    ``a1`` and ``a2`` are half-open sample windows; the gap is everything
    between them and must be nonempty.
    """
    x = _as_1d_float(cleaned_imf, "cleaned_imf")
    s1, e1, s2, e2 = (_integer(bound, "a window bound") for bound in (*a1, *a2))
    if not (s1 < e1 <= s2 < e2 <= x.size):
        raise ValueError("windows must be ordered and inside the series")
    if s2 == e1:
        raise ValueError("empty gap between the windows")
    spike1 = bool(np.any(x[s1:e1] != 0))
    spike2 = bool(np.any(x[s2:e2] != 0))
    gap = x[e1:s2]
    return spike1 and spike2 and float(np.mean(gap == 0)) >= 0.5


def doppler_grid(t_lens, sigmas, localities=(0.25,)) -> list[tuple[int, float, float]]:
    """Cross product of lengths, noise levels, and locality ratios."""
    return [(_integer(t, "T"), _real(s, "sigma"), _real(r, "locality"))
            for t in t_lens for s in sigmas for r in localities]


def instance_seed(base_seed: int, cell_index: int, replicate: int) -> int:
    """Stable per-instance seed derived from (base seed, cell, replicate)."""
    ss = np.random.SeedSequence([_seed_bits(base_seed), cell_index, replicate])
    return int(ss.generate_state(1, np.uint64)[0])


def grid_spec(cell: tuple[int, float, float], seed: int = 0) -> LocalSignalSpec:
    """The local-burst spec of one ``(T, sigma, locality)`` grid cell.

    Raises ``ValueError`` naming the key of a cell that cannot be run.
    """
    t_len, sigma, ratio = cell
    t_len, sigma, ratio = _integer(t_len, "T"), _real(sigma, "sigma"), _real(ratio, "locality")
    if t_len < _MIN_SAMPLES:
        raise ValueError(f"T = {t_len}: the decomposition needs at least {_MIN_SAMPLES} samples")
    _nonnegative(sigma, f"sigma = {sigma:g}")
    share = t_len * ratio / (1.0 + ratio) if ratio > 0 else 0.0  # nan or inf if ratio is huge
    length = int(round(share)) if math.isfinite(share) else 0
    if not 0 < length < t_len:
        raise ValueError(f"locality = {ratio:g} leaves no room for signal or noise")
    a_start = (t_len - length) // 2
    return LocalSignalSpec(t_len, a_start, a_start + length, sigma, seed)


def grid_instance(cell: tuple[int, float, float], seed: int):
    """Build the local-burst instance for one grid cell."""
    return local_doppler(grid_spec(cell, seed))


def run_benchmark(
    methods,
    grid,
    replicates: int,
    base_seed: int = 0,
    config=None,
    workers: int = 1,
) -> list[BenchResult]:
    """Score every method on every grid cell and replicate.

    Every method sees the same instance and the same decomposition;
    results come back in canonical (cell, method, replicate) order, so
    the table is reproducible bit for bit from ``base_seed``.  Each
    result's ``seconds`` includes the instance's shared decomposition
    time for every method that uses it (all but ``none``).  Every
    argument is checked before the first decomposition: at least one
    method, each named once; each grid cell runnable (``grid_spec``) and
    listed once; an integer ``base_seed``.  ``workers`` must be 1: the
    ensemble runs on the calling thread, and the parameter stays only
    until the benchmark stops passing it.
    """
    methods = [str(m) for m in methods]
    if not methods:
        raise ValueError("methods must list at least one method")
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        raise ValueError(f"unknown method name(s): {', '.join(unknown)}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"repeated method name(s): {', '.join(repeated)}")
    # each cell as the library stores it, so a result's sigma is never -0.0
    grid = [doppler_grid([t_len], [sigma], [ratio])[0] for t_len, sigma, ratio in grid]
    for cell in grid:
        grid_spec(cell)
    repeated = sorted({cell for cell in grid if grid.count(cell) > 1})
    if repeated:
        raise ValueError(f"repeated grid cell(s): {', '.join(map(str, repeated))}")
    base_seed, replicates = _integer(base_seed, "base_seed"), _at_least(replicates, "replicates", 1)
    _one_worker(workers)
    config = config or cleaning.LcdscConfig()
    thresholds = {"wht": baselines.wavelet_hard_threshold,
                  "wit": baselines.wavelet_interval_threshold}

    results: list[BenchResult] = []
    for cell_index, cell in enumerate(grid):
        t_len, sigma, ratio = cell
        for rep in range(replicates):
            seed = instance_seed(base_seed, cell_index, rep)
            noisy, truth, _ = grid_instance(cell, seed)
            emd_cfg = replace(config.emd, seed=seed)
            start = time.perf_counter()
            d = eemd(noisy, emd_cfg)
            eemd_seconds = time.perf_counter() - start
            for method in methods:
                start = time.perf_counter()
                if method == "none":
                    value = rss(noisy.samples, truth)
                elif method == "lcdsc":
                    report = cleaning.clean_decomposition(d, config)
                    value = rss(report.cleaned_signal, truth)
                elif method in baselines.ORACLE_FAMILIES:
                    _, value = baselines.oracle_select(d, truth, method)
                else:  # wht or wit
                    est = np.empty_like(d.imfs)
                    for j, imf in enumerate(d.imfs):
                        est[j] = thresholds[method](imf)
                    # rebound, so the matrix is not held through the next eemd
                    est = est.sum(axis=0)
                    value = rss(est, truth)
                elapsed = time.perf_counter() - start
                if method != "none":
                    elapsed += eemd_seconds
                results.append(
                    BenchResult(
                        method=method,
                        t_len=t_len,
                        sigma=sigma,
                        param=ratio,
                        replicate=rep,
                        seed=seed,
                        rss=value,
                        seconds=elapsed,
                    )
                )
    results.sort(key=lambda r: (r.t_len, r.sigma, r.param, r.method, r.replicate))
    return results


def bench_table(results, timing: bool = False) -> str:
    """Render benchmark results as delimited text, 12 significant digits.

    Without ``timing`` the seconds column is written as zero so the table
    is byte-reproducible across runs.
    """
    lines = ["T,sigma,param,method,replicate,rss,seconds"]
    for r in results:
        seconds = r.seconds if timing else 0.0
        lines.append(
            f"{r.t_len},{r.sigma:.12g},{r.param:.12g},{r.method},"
            f"{r.replicate},{r.rss:.12g},{seconds:.12g}"
        )
    return "\n".join(lines) + "\n"

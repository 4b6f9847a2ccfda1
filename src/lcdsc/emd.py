"""Empirical mode decomposition, plain and noise-ensembled.

A signal is split into intrinsic mode functions (IMFs) by repeatedly
sifting: subtract the mean of the upper and lower extrema envelopes until
the component oscillates about zero, then peel it off and continue on the
remainder.  The ensemble variant (EEMD) repeats the decomposition over
many independently noise-perturbed copies of the input and averages the
IMFs index by index, which stabilises mode mixing on noisy recordings.

Envelopes are natural cubic splines through the local extrema, with the
two extrema nearest each endpoint mirrored across it to suppress end
swings.  Each sift iteration fits the upper and lower envelope together:
one tridiagonal solve for both knot sets and one evaluation pass, with
results identical to fitting them one at a time.  Sifting stops once the
extrema/zero-crossing counts differ by at most one for ``s_number``
consecutive iterations (S-stoppage).

The ensemble keeps one running sum per IMF index instead of every
trial's IMFs, so its memory is O(width * n) for ``width`` IMFs of length
``n``, whatever the ensemble size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

_SEED_MASK = 2**64 - 1
_MIN_SAMPLES = 4  # shortest series the decomposition accepts


class MonotonicComponent(ValueError):
    """Raised when a series has too few extrema to build both envelopes."""


def _as_1d_float(values, name: str = "series") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real-valued signal.

    Parameters
    ----------
    samples : array_like
        The raw sample values.
    dt : float, optional
        Sample interval in seconds (default 1.0).
    """

    samples: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_copy(_as_1d_float(self.samples, "samples")))
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class Imf:
    """One intrinsic mode function.

    ``index`` is the 1-based extraction order (highest frequency first).
    ``truncated`` marks components whose sifting hit the iteration cap
    before S-stoppage confirmed convergence.
    """

    samples: np.ndarray
    index: int
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_copy(_as_1d_float(self.samples, "samples")))
        if self.index < 1:
            raise ValueError("imf index is 1-based")


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Ordered IMFs plus the residual of one source signal."""

    imfs: tuple[Imf, ...]
    residual: np.ndarray
    source_len: int
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "residual", _frozen_copy(_as_1d_float(self.residual, "residual")))
        if self.residual.size != self.source_len:
            raise ValueError("residual length does not match source length")
        for imf in self.imfs:
            if imf.samples.size != self.source_len:
                raise ValueError("imf length does not match source length")

    @property
    def n_imfs(self) -> int:
        return len(self.imfs)

    def imf_matrix(self) -> np.ndarray:
        """IMFs stacked as rows, shape ``(n_imfs, source_len)``."""
        if not self.imfs:
            return np.zeros((0, self.source_len))
        return np.stack([imf.samples for imf in self.imfs])


@dataclass(frozen=True)
class EmdConfig:
    """Decomposition settings.

    ``ensemble_size=1`` with ``noise_amplitude=0`` reduces the ensemble
    variant to a plain decomposition.  ``max_imfs=None`` caps extraction
    at ``floor(log2(n)) - 1``, the usual dyadic bound.
    """

    s_number: int = 4
    max_sift_iters: int = 50
    max_imfs: int | None = None
    ensemble_size: int = 100
    noise_amplitude: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.s_number < 1:
            raise ValueError("s_number must be at least 1")
        if self.max_sift_iters < 1:
            raise ValueError("max_sift_iters must be at least 1")
        if self.max_imfs is not None and self.max_imfs < 1:
            raise ValueError("max_imfs must be at least 1 (or None for auto)")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be at least 1")
        if not 0 <= self.noise_amplitude < math.inf:
            raise ValueError("noise_amplitude must be nonnegative and finite")


def find_extrema(series) -> tuple[np.ndarray, np.ndarray]:
    """Locate strict interior extrema by three-point comparison.

    Flat runs count once, at the run midpoint.  Returns ascending index
    arrays ``(maxima, minima)``.
    """
    x = _as_1d_float(series)
    if x.size < 3:
        raise ValueError("series too short: extrema detection needs at least 3 samples")
    d = x[1:] - x[:-1]
    # compare directions across flat runs and report each run's midpoint
    nz = d.nonzero()[0]
    up = (d > 0)[nz]
    flips = (up[:-1] != up[1:]).nonzero()[0]
    mids = (nz[flips] + 1 + nz[flips + 1]) // 2
    # direction flips alternate, so maxima and minima interleave
    first = 0 if mids.size and up[flips[0]] else 1
    return mids[first::2], mids[1 - first :: 2]


def _zero_crossings(x: np.ndarray) -> int:
    positive = (x > 0)[x != 0]
    return int(np.count_nonzero(positive[:-1] != positive[1:]))


def _envelope_from_extrema(x: np.ndarray, maxima: np.ndarray, minima: np.ndarray) -> np.ndarray:
    """Mean of the natural-spline envelopes through ``maxima`` and ``minima``.

    Each envelope's knots are its extrema plus the two nearest mirrored
    across each endpoint.  Both knot sets go into one tridiagonal system,
    the lower one shifted by ``n`` so that one grid ``0..2n-1`` evaluates
    both.  The natural end rows leave exact zeros where the blocks meet,
    so elimination never mixes them and every value matches fitting the
    envelopes one at a time, bit for bit.
    """
    n = x.size
    end = n - 1
    k_up = maxima.size + 4
    size = k_up + minima.size + 4
    b = k_up - 1  # last knot of the upper block; b + 1 starts the lower one
    u0, u1, u2, u3 = maxima[[0, 1, -2, -1]].tolist()
    l0, l1, l2, l3 = minima[[0, 1, -2, -1]].tolist()
    src = np.empty(size, dtype=np.intp)
    src[2 : b - 1] = maxima
    src[b + 3 : -2] = minima
    src[[0, 1, b - 1, b, b + 1, b + 2, -2, -1]] = (u1, u0, u3, u2, l1, l0, l3, l2)
    vals = x[src]
    pos = src.astype(float)
    pos[b + 3 : -2] += n
    pos[[0, 1, b - 1, b, b + 1, b + 2, -2, -1]] = (
        -u1, -u0, 2 * end - u3, 2 * end - u2,
        n - l1, n - l0, n + 2 * end - l3, n + 2 * end - l2,
    )

    # natural cubic spline second derivatives m, both blocks in one solve
    # h[b] spans the block boundary (always negative, never zero); every
    # entry it feeds is overwritten below or belongs to an empty segment
    h = pos[1:] - pos[:-1]
    dy = vals[1:] - vals[:-1]
    dy /= h
    diag = np.empty(size)
    np.add(h[:-1], h[1:], out=diag[1:-1])
    diag[1:-1] *= 2.0
    diag[0] = diag[b] = diag[b + 1] = diag[-1] = 1.0
    upper = h.copy()
    upper[0] = upper[b] = upper[b + 1] = 0.0
    lower = h.copy()
    lower[b - 1] = lower[b] = lower[-1] = 0.0
    rhs = np.empty(size)
    np.subtract(dy[1:], dy[:-1], out=rhs[1:-1])
    rhs[1:-1] *= 6.0
    rhs[0] = rhs[b] = rhs[b + 1] = rhs[-1] = 0.0
    _, _, _, m, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info != 0:
        raise ArithmeticError("tridiagonal spline solve failed")

    # segment j runs from knot j to j + 1: cubic a0 + t*(a1 + t*(a2 + t*a3))
    a1 = m[:-1] * 2.0
    a1 += m[1:]
    a1 *= h
    a1 /= 6.0
    np.subtract(dy, a1, out=a1)
    a2 = m[:-1] * 0.5
    a3 = m[1:] - m[:-1]
    a3 /= h * 6.0

    # grid points per segment: none left of 0, right of n - 1 or across blocks
    counts = np.zeros(size - 1, dtype=np.intp)
    np.subtract(maxima[1:], maxima[:-1], out=counts[2 : b - 2])
    np.subtract(minima[1:], minima[:-1], out=counts[b + 3 : -2])
    counts[[1, b - 2, b + 2, -2]] = (u0, n - u3, l0, n - l3)
    t = np.arange(2 * n, dtype=float)
    t -= pos[:-1].repeat(counts)
    env = a3.repeat(counts)
    env *= t
    env += a2.repeat(counts)
    env *= t
    env += a1.repeat(counts)
    env *= t
    env += vals[:-1].repeat(counts)
    mean = env[:n] + env[n:]
    mean *= 0.5
    return mean


def _envelope_knots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    maxima, minima = find_extrema(x)
    if maxima.size < 2 or minima.size < 2:
        raise MonotonicComponent(
            "monotonic component: envelope needs at least 2 maxima and 2 minima"
        )
    return maxima, minima


def envelope_mean(series) -> np.ndarray:
    """Mean of the upper and lower extrema envelopes.

    Raises ``MonotonicComponent`` when fewer than 2 maxima or 2 minima
    exist, which signals that sifting has nothing left to extract.
    """
    x = _as_1d_float(series)
    return _envelope_from_extrema(x, *_envelope_knots(x))


def sift(series, config: EmdConfig | None = None, index: int = 1) -> Imf:
    """Extract one IMF by iterative envelope-mean subtraction.

    The candidate is refined until ``|#extrema - #zero crossings| <= 1``
    holds for ``s_number`` consecutive iterations or the iteration cap is
    reached (which sets the ``truncated`` flag).  Raises
    ``MonotonicComponent`` when the series has fewer than 2 maxima or 2
    minima, the signal for ``emd`` to stop extracting.
    """
    config = config or EmdConfig()
    h = _as_1d_float(series).copy()
    maxima, minima = _envelope_knots(h)
    streak = 0
    truncated = True
    for _ in range(config.max_sift_iters):
        h -= _envelope_from_extrema(h, maxima, minima)
        maxima, minima = find_extrema(h)
        n_ext = maxima.size + minima.size
        if abs(n_ext - _zero_crossings(h)) <= 1:
            streak += 1
        else:
            streak = 0
        if streak >= config.s_number:
            truncated = False
            break
        if maxima.size < 2 or minima.size < 2:
            # nothing left to refine against; accept the component as-is
            truncated = False
            break
    return Imf(samples=h, index=index, truncated=truncated)


def _coerce_series(series) -> TimeSeries:
    return series if isinstance(series, TimeSeries) else TimeSeries(series)


def _validate_input(x: np.ndarray) -> None:
    if x.size < _MIN_SAMPLES:
        raise ValueError(f"series too short: decomposition needs at least {_MIN_SAMPLES} samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("invalid samples: input contains non-finite values")


def _auto_max_imfs(n: int) -> int:
    return max(1, int(math.floor(math.log2(n))) - 1)


def emd(series, config: EmdConfig | None = None) -> Decomposition:
    """Plain empirical mode decomposition.

    IMFs are extracted by repeated sift-and-subtract until the remainder
    has too few extrema to envelope (it is then monotonic or nearly so)
    or the IMF cap is reached.  The sum of the IMFs and the residual
    reproduces the input to floating-point accuracy.
    """
    config = config or EmdConfig()
    ts = _coerce_series(series)
    x = ts.samples
    _validate_input(x)
    cap = config.max_imfs if config.max_imfs is not None else _auto_max_imfs(x.size)

    imfs: list[Imf] = []
    diagnostics: list[str] = []
    remainder = x.copy()
    while len(imfs) < cap:
        try:
            imf = sift(remainder, config, index=len(imfs) + 1)
        except MonotonicComponent:
            break
        if imf.truncated:
            diagnostics.append(
                f"imf {imf.index}: sifting stopped at max_sift_iters={config.max_sift_iters}"
            )
        imfs.append(imf)
        remainder = remainder - imf.samples
    return Decomposition(tuple(imfs), remainder, x.size, tuple(diagnostics))


def eemd(series, config: EmdConfig | None = None) -> Decomposition:
    """Noise-ensembled decomposition.

    Each trial adds white Gaussian noise with standard deviation
    ``noise_amplitude * std(series)`` drawn from an RNG stream derived
    from ``(seed, trial index)``, so results are reproducible.  IMFs are
    averaged index by index across trials (Wu & Huang 2009); trials that
    produced fewer IMFs contribute zeros at the missing indices.  The
    residual closes the decomposition: it is the input minus the
    ensembled IMFs, so the additive identity is preserved exactly.
    Finite samples whose sum of squared deviations overflows (beyond
    roughly ``1e154 / sqrt(n)`` in magnitude for ``n`` samples) leave no
    noise scale and raise ``OverflowError``, and so does a noise scale whose
    variance overflows (a scale beyond about 1e154, say from a huge
    ``noise_amplitude``), before any trial runs.

    Trials run in order on the calling thread and are added into
    per-index running sums as they finish, so the mean matches averaging
    a zero-padded (trials, width, n) stack bit for bit, and memory is
    O(width * n) for any ``ensemble_size``.
    """
    config = config or EmdConfig()
    ts = _coerce_series(series)
    x = ts.samples
    _validate_input(x)
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(x))
    if not math.isfinite(std):
        raise OverflowError("invalid samples: the sum of squared deviations overflows")
    scale = config.noise_amplitude * std
    if not math.isfinite(scale * scale):
        raise OverflowError(f"noise scale {scale:.3g} (noise_amplitude * std) overflows: "
                            "its variance is not a finite float")
    seed = config.seed & _SEED_MASK

    # per-index running sums in trial order: the same additions, in the same
    # order, as a mean over a zero-padded (trials, width, n) stack
    sums: list[np.ndarray] = []
    truncated: list[bool] = []
    widths: list[int] = []
    truncations = 0
    for k in range(config.ensemble_size):
        rng = np.random.default_rng([seed, k])
        noisy = x + rng.normal(0.0, scale, x.size)
        trial = emd(TimeSeries(noisy, ts.dt), config)
        widths.append(trial.n_imfs)
        for j, imf in enumerate(trial.imfs):
            if j == len(sums):
                sums.append(np.zeros(x.size))
                truncated.append(False)
            sums[j] += imf.samples
            truncated[j] = truncated[j] or imf.truncated
            truncations += imf.truncated

    width = len(sums)
    diagnostics: list[str] = []
    short = sum(1 for w in widths if w < width)
    if short:
        diagnostics.append(
            f"{short} of {config.ensemble_size} trials produced fewer than "
            f"{width} imfs; missing entries averaged as zeros"
        )
    if truncations:
        diagnostics.append(f"{truncations} trial imfs hit max_sift_iters during sifting")

    if width == 0:
        return Decomposition((), x.copy(), x.size, tuple(diagnostics))

    imfs = []
    # subtract sequentially so a degenerate ensemble matches emd() bit for bit
    residual = x.copy()
    for j in range(width):
        mean = sums[j] / config.ensemble_size
        imfs.append(Imf(samples=mean, index=j + 1, truncated=truncated[j]))
        residual = residual - mean
    return Decomposition(tuple(imfs), residual, x.size, tuple(diagnostics))


def reconstruct(d: Decomposition) -> np.ndarray:
    """Sum of all IMFs plus the residual, elementwise."""
    return np.sum(d.imf_matrix(), axis=0) + d.residual


def orthogonality_index(d: Decomposition) -> float:
    """Total cross-IMF leakage relative to the signal energy.

    Computes ``sum_t sum_{j != k} imf_j(t) imf_k(t) / sum_t x(t)^2`` with
    ``x`` the reconstruction; near zero when the IMFs are mutually
    orthogonal.
    """
    if d.n_imfs < 2:
        raise ValueError("orthogonality index needs at least 2 imfs")
    x = reconstruct(d)
    denom = float(np.sum(x * x))
    if denom == 0.0:
        raise ValueError("degenerate signal: zero energy")
    matrix = d.imf_matrix()
    total = np.sum(matrix, axis=0)
    cross = float(np.sum(total * total - np.sum(matrix * matrix, axis=0)))
    return cross / denom

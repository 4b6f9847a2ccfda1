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
consecutive iterations (S-stoppage).  Sifted float data seldom has two
equal neighbouring samples or an exact zero, so the common path finds
extrema and zero crossings without the flat-run and zero bookkeeping,
which runs only for inputs with such ties and gives the same indices.

The ensemble keeps one running sum per IMF index that some trial
reached instead of every trial's IMFs, so its memory is O(width * n) for
``width`` IMFs of length ``n``, whatever the ensemble size and IMF cap.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import KW_ONLY, dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

_SEED_MASK = 2**64 - 1
_MIN_SAMPLES = 4  # shortest series the decomposition accepts


class MonotonicComponent(ValueError):
    """Raised when a series has too few extrema to build both envelopes."""


def _integer(value, name: str) -> int:
    """``value`` as a plain Python int, the form in which settings are stored.

    NumPy integers are converted; bools (NumPy's too) and floats, NaN and
    3.0 among them, raise ``ValueError`` naming the setting.
    """
    if isinstance(value, (bool, np.bool_)):  # True has an index, 1
        raise ValueError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _real(value, name: str) -> float:
    """``value`` as a plain Python float: ints and floats, NumPy's too, pass; bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is no Real
        raise ValueError(f"{name} must be a real number, not {type(value).__name__}")
    return float(value)


def _seed_bits(seed) -> int:
    """The 64 bits an integer seed of any sign gives the generators."""
    return _integer(seed, "seed") & _SEED_MASK


def _as_1d_float(values, name: str = "series") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _finite_1d(values, name: str = "series") -> np.ndarray:
    """``values`` as a 1-D float array whose samples are all finite."""
    arr = _as_1d_float(values, name)
    if not np.isfinite(arr).all():
        raise ValueError("invalid samples: input contains non-finite values")
    return arr


def _sample_interval(dt) -> float:
    dt = _real(dt, "dt")
    if not 0 < dt < math.inf:  # NaN fails it
        raise ValueError("dt must be positive and finite")
    return dt


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, which its caller has just created, made read-only in place."""
    arr.setflags(write=False)
    return arr


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    return _frozen(np.array(arr, dtype=float))


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real-valued signal.

    Parameters
    ----------
    samples : array_like
        The raw sample values, all finite.
    dt : float, optional
        Sample interval in seconds (default 1.0).
    """

    samples: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_copy(_finite_1d(self.samples, "samples")))
        object.__setattr__(self, "dt", _sample_interval(self.dt))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class Imf:
    """What ``sift`` returns: one intrinsic mode function, read-only.

    ``truncated`` marks components whose sifting hit the iteration cap
    before S-stoppage confirmed convergence.
    """

    samples: np.ndarray
    truncated: bool = False


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Ordered IMFs plus the residual of one source signal.

    ``imfs`` is a read-only ``(n_imfs, n)`` copy of the given matrix or
    equal-length rows: row ``j - 1`` is IMF ``j`` in extraction order
    (highest frequency first), and ``n`` is the residual's length, the
    source length.  ``truncated`` has one flag per row (default all False).
    """

    imfs: np.ndarray
    residual: np.ndarray
    _: KW_ONLY
    truncated: tuple[bool, ...] | None = None
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "residual", _frozen_copy(_as_1d_float(self.residual, "residual")))
        n = self.residual.size
        imfs = np.array(self.imfs, dtype=float) if len(self.imfs) else np.empty((0, n))
        if imfs.ndim != 2 or imfs.shape[1] != n:
            raise ValueError("imfs must be an (n_imfs, n) matrix for a residual of length n")
        flags = (False,) * len(imfs) if self.truncated is None else self.truncated
        truncated = tuple(map(bool, flags))
        if len(truncated) != len(imfs):
            raise ValueError("truncated needs one flag per imf")
        object.__setattr__(self, "imfs", _frozen(imfs))
        object.__setattr__(self, "truncated", truncated)

    @property
    def n_imfs(self) -> int:
        return len(self.imfs)

    def imf_matrix(self) -> np.ndarray:
        """``imfs``, shape ``(n_imfs, residual.size)``."""
        return self.imfs


@dataclass(frozen=True)
class EmdConfig:
    """Decomposition settings.

    ``ensemble_size=1`` with ``noise_amplitude=0`` reduces the ensemble
    variant to a plain decomposition.  ``max_imfs=None`` caps extraction
    at ``floor(log2(n)) - 1``, the usual dyadic bound.  Every setting is
    stored as a plain Python ``int`` or ``float``: NumPy scalars are
    converted, and a bool raises ``ValueError``.
    """

    s_number: int = 4
    max_sift_iters: int = 50
    max_imfs: int | None = None
    ensemble_size: int = 100
    noise_amplitude: float = 0.2
    seed: int = 0

    def __post_init__(self):
        # counts are integers (numpy's too) of at least 1: floats, NaN among them, fail
        for name in ("s_number", "max_sift_iters", "max_imfs", "ensemble_size"):
            if name != "max_imfs" or self.max_imfs is not None:
                object.__setattr__(self, name, _integer(getattr(self, name), name))
                if getattr(self, name) < 1:
                    raise ValueError(f"{name} must be an integer of at least 1")
        object.__setattr__(self, "noise_amplitude", _real(self.noise_amplitude, "noise_amplitude"))
        if not 0 <= self.noise_amplitude < math.inf:
            raise ValueError("noise_amplitude must be nonnegative and finite")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))


def find_extrema(series) -> tuple[np.ndarray, np.ndarray]:
    """Locate strict interior extrema by three-point comparison.

    Flat runs count once, at the run midpoint.  Returns ascending index
    arrays ``(maxima, minima)``.
    """
    x = _as_1d_float(series)
    if x.size < 3:
        raise ValueError("series too short: extrema detection needs at least 3 samples")
    d = x[1:] - x[:-1]
    if d.all():
        # no flat runs: each direction flip is an extremum at the sample after it
        up = d > 0
        flips = (up[:-1] != up[1:]).nonzero()[0]
        mids = flips + 1
    else:
        # compare directions across flat runs and report each run's midpoint
        nz = d.nonzero()[0]
        up = (d > 0)[nz]
        flips = (up[:-1] != up[1:]).nonzero()[0]
        mids = (nz[flips] + 1 + nz[flips + 1]) // 2
    # direction flips alternate, so maxima and minima interleave
    first = 0 if mids.size and up[flips[0]] else 1
    return mids[first::2], mids[1 - first :: 2]


def _zero_crossings(x: np.ndarray) -> int:
    positive = x > 0
    if not x.all():
        positive = positive[x != 0]  # exact zeros neither start nor end a crossing
    return int(np.count_nonzero(positive[:-1] != positive[1:]))


def _envelope_work(n: int) -> list:
    """What ``_envelope_from_extrema`` reuses across calls for ``n`` samples.

    The grid ``0..2n-1`` as floats, then the ``(5, 2n)`` block that the
    gathering evaluation of dense knot sets fills with the five spread
    rows of the knot table.  The block is allocated on its first use, so
    a sift whose knot sets all stay sparse never holds it.
    """
    return [np.arange(2 * n, dtype=float), None]


def _envelope_from_extrema(
    x: np.ndarray, maxima: np.ndarray, minima: np.ndarray, work: list | None = None
) -> np.ndarray:
    """Mean of the natural-spline envelopes through ``maxima`` and ``minima``.

    Each envelope's knots are its extrema plus the two nearest mirrored
    across each endpoint.  Both knot sets go into one tridiagonal system,
    the lower one shifted by ``n`` so that one grid ``0..2n-1`` evaluates
    both.  The natural end rows leave exact zeros where the blocks meet,
    so elimination never mixes them and every value matches fitting the
    envelopes one at a time, bit for bit.

    Knot positions, the three cubic coefficients and the knot values are
    the rows of one ``(5, size)`` table, spread to the grid in one call:
    a gather on dense knot sets, a ``repeat`` on sparse ones.  Horner's
    rule then runs in place on the spread rows.

    ``work`` is ``_envelope_work(n)``, for callers that evaluate many
    envelopes of one length.  The mean returned may be a view into its
    block, valid until its next use.
    """
    n = x.size
    end = n - 1
    k_up = maxima.size + 4
    size = k_up + minima.size + 4
    b = k_up - 1  # last knot of the upper block; b + 1 starts the lower one
    # single items below: setting and reading them one by one costs less
    # than one fancy index built from a list
    u0, u1 = maxima[:2].tolist()
    u2, u3 = maxima[-2:].tolist()
    l0, l1 = minima[:2].tolist()
    l2, l3 = minima[-2:].tolist()
    src = np.empty(size, dtype=np.intp)
    src[2 : b - 1] = maxima
    src[b + 3 : -2] = minima
    src[0], src[1], src[b - 1], src[b] = u1, u0, u3, u2
    src[b + 1], src[b + 2], src[-2], src[-1] = l1, l0, l3, l2
    # knot table rows: position, then the cubic's a3, a2 and a1 of the segment
    # each knot starts (the last column starts none), then the knot value
    knots = np.empty((5, size))
    pos, a3, a2, a1, vals = knots[0], knots[1, :-1], knots[2, :-1], knots[3, :-1], knots[4]
    x.take(src, out=vals)
    pos[:] = src
    pos[b + 3 : -2] += n
    pos[0], pos[1], pos[b - 1], pos[b] = -u1, -u0, 2 * end - u3, 2 * end - u2
    pos[b + 1], pos[b + 2] = n - l1, n - l0
    pos[-2], pos[-1] = n + 2 * end - l3, n + 2 * end - l2

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

    # segment j runs from knot j to j + 1: cubic vals + t*(a1 + t*(a2 + t*a3))
    np.multiply(m[:-1], 2.0, out=a1)
    a1 += m[1:]
    a1 *= h
    a1 /= 6.0
    np.subtract(dy, a1, out=a1)
    np.multiply(m[:-1], 0.5, out=a2)
    np.subtract(m[1:], m[:-1], out=a3)
    a3 /= h * 6.0

    # grid points per knot: none left of 0, right of n - 1, across blocks
    # or from the last knot
    counts = np.zeros(size, dtype=np.intp)
    np.subtract(maxima[1:], maxima[:-1], out=counts[2 : b - 2])
    np.subtract(minima[1:], minima[:-1], out=counts[b + 3 : -3])
    counts[1], counts[b - 2], counts[b + 2], counts[-3] = u0, n - u3, l0, n - l3
    if work is None:
        work = _envelope_work(n)
    grid = work[0]
    if 8 * size > 2 * n:
        # short segments: gathering through one segment index per grid point
        # costs less than repeating every row; the index is always valid,
        # "clip" just lets take fill the block unbuffered
        if work[1] is None:
            work[1] = np.empty((5, 2 * n))
        block = work[1]
        knots.take(np.arange(size).repeat(counts), axis=1, out=block, mode="clip")
    else:
        # long segments: repeat fills runs faster than take gathers, though
        # it cannot write into the block
        block = knots.repeat(counts, axis=1)
    t, env, a2_grid, a1_grid, vals_grid = block
    np.subtract(grid, t, out=t)
    env *= t
    env += a2_grid
    env *= t
    env += a1_grid
    env *= t
    env += vals_grid
    mean = env[:n]
    mean += env[n:]
    mean *= 0.5
    return mean


def sift(series, config: EmdConfig | None = None) -> Imf:
    """Extract one IMF by iterative envelope-mean subtraction.

    The candidate is refined until ``|#extrema - #zero crossings| <= 1``
    holds for ``s_number`` consecutive iterations or the iteration cap is
    reached (which sets the ``truncated`` flag).  Raises
    ``MonotonicComponent`` when the series has fewer than 2 maxima or 2
    minima, the signal for ``emd`` to stop extracting.
    """
    config = config or EmdConfig()
    h = _as_1d_float(series).copy()
    maxima, minima = find_extrema(h)
    if maxima.size < 2 or minima.size < 2:
        raise MonotonicComponent(
            "monotonic component: envelope needs at least 2 maxima and 2 minima"
        )
    work = _envelope_work(h.size)
    streak = 0
    truncated = True
    for _ in range(config.max_sift_iters):
        h -= _envelope_from_extrema(h, maxima, minima, work)
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
    return Imf(_frozen(h), truncated)


def _checked_samples(series) -> np.ndarray:
    """The samples of a ``TimeSeries`` or array_like, checked for decomposition."""
    x = series.samples if isinstance(series, TimeSeries) else _as_1d_float(series)
    if x.size < _MIN_SAMPLES:
        raise ValueError(f"series too short: decomposition needs at least {_MIN_SAMPLES} samples")
    return _finite_1d(x)


def _imf_cap(config: EmdConfig, n: int) -> int:
    """``config.max_imfs``, or ``floor(log2(n)) - 1`` (at least 1) when it is ``None``."""
    if config.max_imfs is not None:
        return config.max_imfs
    return max(1, int(math.floor(math.log2(n))) - 1)


def emd(series, config: EmdConfig | None = None) -> Decomposition:
    """Plain empirical mode decomposition.

    IMFs are extracted by repeated sift-and-subtract until the remainder
    has too few extrema to envelope (it is then monotonic or nearly so)
    or the IMF cap is reached.  The sum of the IMFs and the residual
    reproduces the input to floating-point accuracy.
    """
    config = config or EmdConfig()
    x = _checked_samples(series)
    cap = _imf_cap(config, x.size)

    imfs: list[Imf] = []
    diagnostics: list[str] = []
    remainder = x
    while len(imfs) < cap:
        try:
            imf = sift(remainder, config)
        except MonotonicComponent:
            break
        imfs.append(imf)
        if imf.truncated:
            diagnostics.append(
                f"imf {len(imfs)}: sifting stopped at max_sift_iters={config.max_sift_iters}"
            )
        remainder = remainder - imf.samples
    return Decomposition([imf.samples for imf in imfs], remainder,
                         truncated=[imf.truncated for imf in imfs], diagnostics=tuple(diagnostics))


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
    a zero-padded (trials, width, n) stack bit for bit.  A sum is kept
    only for the IMF indices some trial reached, so memory is
    O(width * n) for the widest trial's ``width`` IMFs, whatever
    ``ensemble_size`` and ``max_imfs``.
    """
    config = config or EmdConfig()
    x = _checked_samples(series)
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(x))
    if not math.isfinite(std):
        raise OverflowError("invalid samples: the sum of squared deviations overflows")
    scale = config.noise_amplitude * std
    if not math.isfinite(scale * scale):
        raise OverflowError(f"noise scale {scale:.3g} (noise_amplitude * std) overflows: "
                            "its variance is not a finite float")
    seed = _seed_bits(config.seed)

    # per-index running sums in trial order: the same additions, in the same
    # order, as a mean over a zero-padded (trials, width, n) stack; a row
    # starts at zero when the first trial reaches its index
    sums: list[np.ndarray] = []
    capped: list[int] = []  # trials whose sift at this index hit max_sift_iters
    widths: list[int] = []
    for k in range(config.ensemble_size):
        rng = np.random.default_rng([seed, k])
        noisy = x + rng.normal(0.0, scale, x.size)
        trial = emd(noisy, config)
        for j, (imf, flag) in enumerate(zip(trial.imfs, trial.truncated)):
            if j == len(sums):
                sums.append(np.zeros(x.size))
                capped.append(0)
            sums[j] += imf
            capped[j] += flag
        widths.append(trial.n_imfs)

    width = len(sums)
    diagnostics: list[str] = []
    short = sum(1 for w in widths if w < width)
    if short:
        diagnostics.append(
            f"{short} of {config.ensemble_size} trials produced fewer than "
            f"{width} imfs; missing entries averaged as zeros"
        )
    if sum(capped):
        diagnostics.append(f"{sum(capped)} trial imfs hit max_sift_iters during sifting")

    # subtract row by row so a degenerate ensemble matches emd() bit for bit
    residual = x
    for mean in sums:
        mean /= config.ensemble_size
        residual = residual - mean
    return Decomposition(sums, residual, truncated=[c > 0 for c in capped],
                         diagnostics=tuple(diagnostics))


def reconstruct(d: Decomposition) -> np.ndarray:
    """Sum of all IMFs plus the residual, elementwise."""
    return np.sum(d.imfs, axis=0) + d.residual

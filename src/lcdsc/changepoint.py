"""Variance change point detection by penalized optimal partitioning.

Segments a series under the Gaussian variance likelihood cost
``n_seg * log(max(var, var_floor))`` (biased MLE variance about the
segment mean) plus an aic, bic or mbic penalty, and returns the global
minimizer via the optimal-partitioning recursion (Jackson et al. 2005),
exact up to rounding ties.  Every admissible start of the last segment is
scanned at every end, with no pruning, so a series of ``n`` samples
costs O(n^2) time and O(n) memory whether or not it has changes.  In the
cleaning pipeline the series is one IMF's per-cycle amplitude.

Ties are broken toward fewer change points, then the lexicographically
smallest change-point vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .emd import _as_1d_float, _at_least, _finite_1d, _frozen, _integer, _positive, _real

_PENALTY_KINDS = ("aic", "bic", "mbic")
_BLOCK_CELLS = 1 << 16  # most (end, start) cells detection scores at once


def _penalty_beta(kind: str, beta) -> float:
    """The checked ``beta`` of penalty ``kind``: finite and above 0 for aic, else 0."""
    # each check is written so that NaN fails it
    if kind not in _PENALTY_KINDS:
        raise ValueError(f"unknown penalty kind {kind!r}; expected one of {_PENALTY_KINDS}")
    beta = _real(beta, "beta")
    if kind == "aic" and not 0 < beta < math.inf:
        raise ValueError("aic penalty requires a finite beta > 0")
    if kind != "aic" and not beta == 0:
        raise ValueError("beta applies only to the aic penalty")
    return beta


@dataclass(frozen=True, eq=False)
class SegStats:
    """Prefix sums enabling O(1) segment mean/variance lookups."""

    prefix_sum: np.ndarray
    prefix_sumsq: np.ndarray
    var_floor: float

    @classmethod
    def from_series(cls, series) -> "SegStats":
        x = _finite_1d(series)
        with np.errstate(over="ignore", invalid="ignore"):
            prefix_sum = np.concatenate(([0.0], np.cumsum(x)))
            prefix_sumsq = np.concatenate(([0.0], np.cumsum(x * x)))
            var_floor = 1e-12 * (float(np.var(x)) + 1e-300)
        if not (math.isfinite(prefix_sumsq[-1]) and math.isfinite(var_floor)):
            raise OverflowError("series too large: its sum of squares or variance overflows")
        return cls(_frozen(prefix_sum), _frozen(prefix_sumsq), var_floor)


@dataclass(frozen=True)
class ChangePointSet:
    """Detected change points with the objective value that selected them.

    A change at ``tau`` splits the series into ``[.., tau]`` and
    ``[tau+1, ..]``; ``taus`` are strictly increasing nonnegative integers.
    """

    taus: tuple[int, ...]
    total_cost: float

    def __post_init__(self):
        taus = tuple(_integer(tau, "a change point") for tau in self.taus)
        if taus and (taus[0] < 0 or any(a >= b for a, b in zip(taus, taus[1:]))):
            raise ValueError("change points must be strictly increasing and nonnegative")
        object.__setattr__(self, "taus", taus)

    def segments(self, n: int) -> list[tuple[int, int]]:
        """Inclusive ``(start, end)`` bounds of every implied segment of
        ``n`` samples; every change point must come before sample ``n - 1``."""
        n = _integer(n, "n")
        if n < 1 or (self.taus and self.taus[-1] >= n - 1):
            raise ValueError(f"change points {self.taus} do not split {n} samples")
        starts = [0] + [tau + 1 for tau in self.taus]
        ends = list(self.taus) + [n - 1]
        return list(zip(starts, ends))


def segment_cost(stats: SegStats, i: int, j: int) -> float:
    """Gaussian variance cost of the inclusive segment ``[i, j]``."""
    i, j = _integer(i, "the segment start"), _integer(j, "the segment end")
    n_seg = j - i + 1
    if n_seg < 2:
        raise ValueError("segment too short: cost needs at least 2 samples")
    if i < 0 or j >= stats.prefix_sum.size - 1:
        raise ValueError("segment out of bounds")
    total = stats.prefix_sum[j + 1] - stats.prefix_sum[i]
    total_sq = stats.prefix_sumsq[j + 1] - stats.prefix_sumsq[i]
    mean = total / n_seg
    var = total_sq / n_seg - mean * mean
    return n_seg * math.log(max(var, stats.var_floor))


def _change_charge(penalty: str, beta: float, m: int, n: int) -> float:
    """What ``m`` change points in ``n`` samples cost, before mbic's length term."""
    if penalty == "aic":
        return beta * m
    if penalty == "bic":
        return m * math.log(n)
    return 3.0 * m * math.log(n)


def penalty_value(penalty: str, seg_lengths, *, beta: float = 0.0) -> float:
    """The penalty term of a segmentation into ``m + 1`` segments of ``n`` samples in all.

    ``penalty`` is the kind: ``aic`` charges ``beta`` per change, ``bic``
    ``log(n)`` per change, and ``mbic`` ``3*log(n)`` per change plus
    ``log`` of every segment length (the modified BIC of Zhang & Siegmund
    2007, which also grades the change locations).
    """
    beta = _penalty_beta(penalty, beta)
    lengths = [_integer(v, "a segment length") for v in seg_lengths]
    if not lengths or min(lengths) < 1:
        raise ValueError("segment lengths must be one or more integers of at least 1")
    charge = _change_charge(penalty, beta, len(lengths) - 1, sum(lengths))
    if penalty == "mbic":
        charge += sum(math.log(length) for length in lengths)
    return charge


def _objective(stats: SegStats, segments, penalty: str, beta: float, scale: float) -> float:
    """Canonical objective: the inclusive ``(start, end)`` segments' costs,
    added left to right, plus the penalty."""
    total = 0.0
    for i, j in segments:
        total += segment_cost(stats, i, j)
    return total + scale * penalty_value(penalty, [j - i + 1 for i, j in segments], beta=beta)


def _taus_ending_at(prev: np.ndarray, s: int) -> tuple[int, ...]:
    """Change points of every split whose last segment starts at ``s``: those
    of the best split of ``[0, s)`` (walked back through ``prev``), then ``s - 1``."""
    taus = []
    while s > 0:
        taus.append(s - 1)
        s = int(prev[s])
    return tuple(reversed(taus))


def _by_length(table: np.ndarray, n: int, m: int) -> np.ndarray:
    """Read-only ``(n + 1, m)`` view of the ``n + m`` entries of ``table``: row
    ``t``, column ``s`` is ``table[n - (t - s)]``, the entry for length ``t - s``."""
    return np.lib.stride_tricks.as_strided(
        table[n:], shape=(n + 1, m), strides=(-table.itemsize, table.itemsize), writeable=False
    )


def detect_changepoints(
    series, penalty: str, min_seg_len: int = 10, penalty_scale: float = 1.0, *, beta: float = 0.0
) -> ChangePointSet:
    """Minimizer of segment costs plus penalty over all segmentations.

    Plain optimal partitioning: for each end every admissible start of
    the last segment is scanned, so the work is O(n^2) in the series
    length ``n`` whether or not the series has changes.  Ends are scored
    in blocks of at most ``min_seg_len`` rows, one (ends x starts) array
    per block whose column ``s`` is start ``s``.  A segment is at least
    ``min_seg_len`` long, so every start a block reads was settled by an
    earlier block, and the blocks give the same values as scoring one
    end at a time.  Inadmissible cells cost +inf: a first segment
    shorter than ``min_seg_len`` through the best value of its prefix,
    which is +inf, and a last one through a variance floor of +inf for
    its length.  A block holds at most ``_BLOCK_CELLS`` cells (one row
    when the starts alone exceed that), so memory is O(n) plus a fixed
    budget whatever ``min_seg_len`` is.

    Exact up to rounding ties: the recursion adds costs in another order
    than ``total_cost`` sums them, so of two splits whose costs tie to
    within a few ulp it may return the one reported 1-2 ulp higher.

    Parameters
    ----------
    series : array_like
        Values to segment (for the cleaning pipeline, an instantaneous
        amplitude series).
    penalty : str
        The penalty kind, ``"aic"``, ``"bic"`` or ``"mbic"``, which
        controls the number of detected changes.
    min_seg_len : int, optional
        Minimum samples per segment, at least 2 (default 10: variance
        estimates on shorter windows are too noisy).
    penalty_scale : float, optional
        Multiplier on the penalty term (default 1.0).  Values above one
        compensate for serial correlation, which inflates the Gaussian
        likelihood evidence relative to the nominal sample count.
    beta : float, optional
        The per-change cost: finite and above 0 for ``aic``, 0 otherwise.
    """
    beta = _penalty_beta(penalty, beta)
    x = _as_1d_float(series)
    min_seg_len = _at_least(min_seg_len, "min_seg_len", 2)
    penalty_scale = _positive(penalty_scale, "penalty_scale")
    n = x.size
    if n < 2 * min_seg_len:
        raise ValueError("series too short: need at least 2*min_seg_len samples")
    stats = SegStats.from_series(x)
    ps = np.asarray(stats.prefix_sum)
    pq = np.asarray(stats.prefix_sumsq)
    msl = min_seg_len

    mbic = penalty == "mbic"
    per_change = _change_charge(penalty, beta, 1, n) * penalty_scale
    # n // msl is at least the most changes n samples admit; mbic's length
    # terms total at most a third of this bound (3 log n per change against log n)
    most = n // msl
    if not math.isfinite(per_change * most):
        raise OverflowError(f"{penalty} penalty overflows: penalty_scale {penalty_scale:.3g} "
                            f"times its charge for up to {most} changes is not a finite float")

    # a last segment ending at t starts at 0 or msl..t-msl, so starts run up to
    # m - 1; by-length tables list lengths n down to msl, then shorter ones
    m = n - msl + 1
    f_start = np.full(n + 1, math.inf)  # best value of [0, t), +inf for t in 1..msl-1
    f_start[0] = -per_change
    ends = np.arange(n + 1, dtype=float)
    floors = np.full(n + m, math.inf)
    floors[:m] = stats.var_floor
    floor2d = _by_length(floors, n, m)
    if mbic:
        log_lens = np.zeros(n + m)
        log_lens[:m] = (penalty_scale * np.log(np.arange(msl, n + 1, dtype=float)))[::-1]
        log_len2d = _by_length(log_lens, n, m)
    prev = np.zeros(n + 1, dtype=np.intp)  # start of the last segment of the best [0, t)
    buf = np.empty((3, max(m, min(_BLOCK_CELLS, msl * m))))
    rows_all = np.arange(msl)

    # Ends are scored in blocks of at most msl rows, as one (ends x starts)
    # array: the last start that end t admits is t - msl, so every start a
    # block reads ends before the block does and has its final f_start.
    t0 = msl
    while t0 <= n:
        height = min(msl, n - t0 + 1, max(1, _BLOCK_CELLS // t0))
        t1 = t0 + height - 1
        n_cols = t1 - msl + 1  # the starts up to the last one the block's last end admits
        cells = height * n_cols
        lengths, mean, var = (row[:cells].reshape(height, n_cols) for row in buf)
        np.subtract(ends[t0 : t1 + 1, None], ends[:n_cols], out=lengths)
        np.subtract(ps[t0 : t1 + 1, None], ps[:n_cols], out=mean)
        mean /= lengths
        np.subtract(pq[t0 : t1 + 1, None], pq[:n_cols], out=var)
        var /= lengths
        mean *= mean
        var -= mean
        np.maximum(var, floor2d[t0 : t1 + 1, :n_cols], out=var)
        vals = np.log(var, out=var)
        vals *= lengths  # the segment costs
        if mbic:
            vals += log_len2d[t0 : t1 + 1, :n_cols]
        np.add(f_start[:n_cols], vals, out=vals)
        vals += per_change

        rows = rows_all[:height]
        best_pos = vals.argmin(axis=1)
        best = vals[rows, best_pos]
        vals[rows, best_pos] = math.inf
        for r in np.flatnonzero(vals.min(axis=1) == best).tolist():
            # a tie: prefer fewer change points, then the smallest tau vector
            ties = [int(best_pos[r]), *np.flatnonzero(vals[r] == best[r]).tolist()]
            keys = [(len(k), k) for k in (_taus_ending_at(prev, p) for p in ties)]
            best_pos[r] = ties[keys.index(min(keys))]
        f_start[t0 : t1 + 1] = best
        prev[t0 : t1 + 1] = best_pos
        t0 = t1 + 1

    found = ChangePointSet(_taus_ending_at(prev, int(prev[n])), math.nan)
    total_cost = _objective(stats, found.segments(n), penalty, beta, penalty_scale)
    return replace(found, total_cost=total_cost)

"""Variance change point detection by penalized optimal partitioning.

Segments a series under the Gaussian variance likelihood cost
``n_seg * log(max(var, var_floor))`` (biased MLE variance about the
segment mean) plus a model-selection penalty, and returns the global
minimizer via the optimal-partitioning recursion (Jackson et al. 2005),
exact up to rounding ties.  Every admissible start of the last segment is
scanned at every step, with no pruning, so a series of ``n`` samples
costs O(n^2) time and O(n) memory whether or not it has changes.  In the
cleaning pipeline the series is one IMF's per-cycle amplitude.

Ties are broken toward fewer change points, then the lexicographically
smallest change-point vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emd import _as_1d_float, _frozen_copy

_PENALTY_KINDS = ("aic", "bic", "mbic")


@dataclass(frozen=True)
class Penalty:
    """Model-selection penalty: ``aic`` (beta per change), ``bic``, or ``mbic``."""

    kind: str
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in _PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {_PENALTY_KINDS}")
        if self.kind == "aic" and not 0 < self.beta < math.inf:
            raise ValueError("aic penalty requires a finite beta > 0")

    @classmethod
    def aic(cls, beta: float) -> "Penalty":
        return cls("aic", beta)

    @classmethod
    def bic(cls) -> "Penalty":
        return cls("bic")

    @classmethod
    def mbic(cls) -> "Penalty":
        return cls("mbic")


@dataclass(frozen=True, eq=False)
class SegStats:
    """Prefix sums enabling O(1) segment mean/variance lookups."""

    prefix_sum: np.ndarray
    prefix_sumsq: np.ndarray
    n: int
    var_floor: float

    @classmethod
    def from_series(cls, series) -> "SegStats":
        x = _as_1d_float(series)
        if not np.all(np.isfinite(x)):
            raise ValueError("invalid samples: input contains non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):
            prefix_sum = np.concatenate(([0.0], np.cumsum(x)))
            prefix_sumsq = np.concatenate(([0.0], np.cumsum(x * x)))
            var_floor = 1e-12 * (float(np.var(x)) + 1e-300)
        if not (math.isfinite(prefix_sumsq[-1]) and math.isfinite(var_floor)):
            raise OverflowError("series too large: its sum of squares or variance overflows")
        return cls(_frozen_copy(prefix_sum), _frozen_copy(prefix_sumsq), x.size, var_floor)


@dataclass(frozen=True)
class ChangePointSet:
    """Detected change points with the objective value that selected them.

    A change at ``tau`` splits the series into ``[.., tau]`` and
    ``[tau+1, ..]``; ``taus`` is strictly increasing and every implied
    segment has at least ``min_seg_len`` samples.
    """

    taus: tuple[int, ...]
    total_cost: float
    penalty: Penalty
    min_seg_len: int

    def segments(self, n: int) -> list[tuple[int, int]]:
        """Inclusive ``(start, end)`` bounds of every implied segment."""
        starts = [0] + [tau + 1 for tau in self.taus]
        ends = list(self.taus) + [n - 1]
        return list(zip(starts, ends))


def segment_cost(stats: SegStats, i: int, j: int) -> float:
    """Gaussian variance cost of the inclusive segment ``[i, j]``."""
    n_seg = j - i + 1
    if n_seg < 2:
        raise ValueError("segment too short: cost needs at least 2 samples")
    if i < 0 or j >= stats.n:
        raise ValueError("segment out of bounds")
    total = stats.prefix_sum[j + 1] - stats.prefix_sum[i]
    total_sq = stats.prefix_sumsq[j + 1] - stats.prefix_sumsq[i]
    mean = total / n_seg
    var = total_sq / n_seg - mean * mean
    return n_seg * math.log(max(var, stats.var_floor))


def penalty_value(penalty: Penalty, m: int, n: int, seg_lengths) -> float:
    """Penalty term for ``m`` change points with the given segment lengths.

    ``aic`` charges ``beta`` per change, ``bic`` charges ``log(n)`` per
    change, and ``mbic`` charges ``3*log(n)`` per change plus ``log`` of
    every segment length (the modified BIC of the change-point
    literature, which also grades the change locations).
    """
    lengths = [int(v) for v in seg_lengths]
    if m < 0 or len(lengths) != m + 1 or sum(lengths) != n:
        raise ValueError("inconsistent segment lengths for penalty evaluation")
    if penalty.kind == "aic":
        return penalty.beta * m
    if penalty.kind == "bic":
        return m * math.log(n)
    return 3.0 * m * math.log(n) + sum(math.log(length) for length in lengths)


def _objective(
    stats: SegStats, taus: tuple[int, ...], penalty: Penalty, penalty_scale: float = 1.0
) -> float:
    """Canonical objective: left-to-right segment costs plus the penalty."""
    n = stats.n
    starts = [0] + [tau + 1 for tau in taus]
    ends = list(taus) + [n - 1]
    total = 0.0
    for i, j in zip(starts, ends):
        total += segment_cost(stats, i, j)
    lengths = [j - i + 1 for i, j in zip(starts, ends)]
    return total + penalty_scale * penalty_value(penalty, len(taus), n, lengths)


def _taus_ending_at(prev: np.ndarray, s: int) -> tuple[int, ...]:
    """Change points of every split whose last segment starts at ``s``: those
    of the best split of ``[0, s)`` (walked back through ``prev``), then ``s - 1``."""
    taus = []
    while s > 0:
        taus.append(s - 1)
        s = int(prev[s])
    return tuple(reversed(taus))


def detect_changepoints(
    series, penalty: Penalty, min_seg_len: int = 10, penalty_scale: float = 1.0
) -> ChangePointSet:
    """Minimizer of segment costs plus penalty over all segmentations.

    Plain optimal partitioning: for each end every admissible start of
    the last segment is scanned, so the work is O(n^2) in the series
    length ``n`` whether or not the series has changes.

    Exact up to rounding ties: the recursion adds costs in another order
    than ``total_cost`` sums them, so of two splits whose costs tie to
    within a few ulp it may return the one reported 1-2 ulp higher.

    Parameters
    ----------
    series : array_like
        Values to segment (for the cleaning pipeline, an instantaneous
        amplitude series).
    penalty : Penalty
        Per-change penalty controlling the number of detected changes.
    min_seg_len : int, optional
        Minimum samples per segment, at least 2 (default 10: variance
        estimates on shorter windows are too noisy).
    penalty_scale : float, optional
        Multiplier on the penalty term (default 1.0).  Values above one
        compensate for serial correlation, which inflates the Gaussian
        likelihood evidence relative to the nominal sample count.
    """
    x = _as_1d_float(series)
    if min_seg_len < 2:
        raise ValueError("min_seg_len must be at least 2")
    if not 0 < penalty_scale < math.inf:
        raise ValueError("penalty_scale must be positive and finite")
    n = x.size
    if n < 2 * min_seg_len:
        raise ValueError("series too short: need at least 2*min_seg_len samples")
    stats = SegStats.from_series(x)
    ps = np.asarray(stats.prefix_sum)
    pq = np.asarray(stats.prefix_sumsq)
    floor = stats.var_floor
    msl = min_seg_len

    mbic = penalty.kind == "mbic"
    if penalty.kind == "aic":
        per_change = penalty.beta
    elif penalty.kind == "bic":
        per_change = math.log(n)
    else:
        per_change = 3.0 * math.log(n)
    per_change *= penalty_scale

    # admissible starts of a last segment ending before t are 0 and
    # msl..t-msl, the first 1 + max(0, t - 2*msl + 1) entries of this array;
    # every per-start quantity below is laid out the same way, so each step
    # reads prefix views and gathers nothing
    all_starts = np.concatenate(([0], np.arange(msl, n - msl + 1))).astype(np.intp)
    start_f = all_starts.astype(float)
    ps_start = ps[all_starts]
    pq_start = pq[all_starts]
    f_start = np.empty(all_starts.size)  # best value of [0, s) at each start s
    f_start[0] = -per_change
    if mbic:
        # penalty_scale * log(length) for lengths msl..n; at step t the starts
        # msl..t-msl have lengths t-msl..msl, the reversed first t-2*msl+1 entries
        log_len = penalty_scale * np.log(np.arange(msl, n + 1, dtype=float))
    prev = np.zeros(n + 1, dtype=np.intp)  # start of the last segment of the best [0, t)
    buf_len, buf_mean, buf_vals = np.empty((3, all_starts.size))

    for t in range(msl, n + 1):
        n_starts = max(1, t - 2 * msl + 2)
        lengths = np.subtract(t, start_f[:n_starts], out=buf_len[:n_starts])
        mean = np.subtract(ps[t], ps_start[:n_starts], out=buf_mean[:n_starts])
        mean /= lengths
        var = np.subtract(pq[t], pq_start[:n_starts], out=buf_vals[:n_starts])
        var /= lengths
        mean *= mean
        var -= mean
        np.maximum(var, floor, out=var)
        vals = np.log(var, out=var)
        vals *= lengths  # the segment costs
        if mbic:
            vals[0] += log_len[t - msl]
            if n_starts > 1:
                vals[1:] += log_len[t - 2 * msl :: -1]
        np.add(f_start[:n_starts], vals, out=vals)
        vals += per_change

        best_pos = int(np.argmin(vals))
        best = float(vals[best_pos])
        ties = np.flatnonzero(vals == best)
        if ties.size > 1:
            # prefer fewer change points, then the smallest tau vector
            keys = [(len(k), k) for k in (_taus_ending_at(prev, int(all_starts[p])) for p in ties)]
            best_pos = int(ties[keys.index(min(keys))])
        if t <= n - msl:
            f_start[t - msl + 1] = best
        prev[t] = all_starts[best_pos]

    taus = _taus_ending_at(prev, int(prev[n]))
    return ChangePointSet(
        taus=taus,
        total_cost=_objective(stats, taus, penalty, penalty_scale),
        penalty=penalty,
        min_seg_len=min_seg_len,
    )

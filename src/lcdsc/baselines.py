"""Competing ensemble-decomposition cleaning methods.

A subset rule is the ascending tuple of 1-based IMF indices it keeps; the
rebuilt signal is the sum of those IMFs (the residual is always
excluded).  The oracle selector exhaustively searches a rule family (k
highest, l lowest, contiguous band, any subset) for the best residual sum
of squares against a known truth, giving each family its performance
upper bound.  The wavelet-style baselines threshold each IMF against the
universal threshold with a MAD noise estimate, either sample by sample
(hard) or whole inter-zero-crossing intervals at a time; they and the
noise estimate reject an empty or non-finite IMF, and the oracle rejects
a non-finite IMF before it scores any subset.
"""

from __future__ import annotations

import numpy as np

from .emd import Decomposition, _as_1d_float, _integer

_MAD_TO_SIGMA = 0.6745

ORACLE_FAMILIES = ("khigh", "llow", "band", "powerset")


def keep_subset(d: Decomposition, indices) -> np.ndarray:
    """Sum of ``d.imfs[j - 1]`` over the given 1-based indices ``j``; none give zeros."""
    kept = {_integer(j, "an imf index") for j in indices}
    if not all(1 <= j <= d.n_imfs for j in kept):
        raise ValueError("imf indices out of range")
    out = np.zeros(d.residual.size)
    for j, row in enumerate(d.imfs, start=1):
        if j in kept:
            out += row
    return out


def _ascending_subsets(n_imfs: int):
    """Yield every index tuple out of ``n_imfs`` IMFs in lexicographic order,
    so that each one extends, or follows a sibling of, the one before."""
    s: tuple[int, ...] = ()
    yield s
    while True:
        last = s[-1] if s else 0
        if last < n_imfs:
            s = s + (last + 1,)
        elif len(s) > 1:
            s = s[:-2] + (s[-2] + 1,)
        else:
            return
        yield s


def _family_subsets(family: str, n_imfs: int):
    """Yield every index tuple a rule family can keep out of ``n_imfs`` IMFs."""
    if family == "khigh":
        yield from (tuple(range(n_imfs - k + 1, n_imfs + 1)) for k in range(n_imfs + 1))
    elif family == "llow":
        yield from (tuple(range(1, l + 1)) for l in range(n_imfs + 1))
    elif family == "band":
        yield ()
        for lo in range(1, n_imfs + 1):
            yield from (tuple(range(lo, hi + 1)) for hi in range(lo, n_imfs + 1))
    elif family == "powerset":
        if n_imfs > 20:
            raise ValueError("subset explosion: powerset search is capped at 20 imfs")
        yield from _ascending_subsets(n_imfs)
    else:
        raise ValueError(f"unknown rule family {family!r}; expected one of {ORACLE_FAMILIES}")


_RSS_BATCH = 4  # subsets whose residual sums of squares are reduced together


def _subset_rss(d: Decomposition, truth: np.ndarray, subsets):
    """Yield ``(rss, len(s), s)`` for every subset ``s``, as ``rss(keep_subset(d, s), truth)``.

    Row ``k`` of a stack holds the sum of the current subset's first ``k``
    IMFs, so each subset costs one addition per index it does not share
    with the subset before it: its prefix's sum plus the next, higher
    IMF, added from zeros in ascending order exactly as ``keep_subset``
    adds.  Differences from the truth go into a small batch whose
    squares are summed row by row, each row the same pairwise sum as
    ``rss`` takes.
    """
    n = truth.size
    stack = np.zeros((d.n_imfs + 1, n))
    diffs = np.empty((_RSS_BATCH, n))
    path: tuple[int, ...] = ()
    pending = []
    for s in subsets:
        shared = min(len(path), len(s))
        while path[:shared] != s[:shared]:
            shared -= 1
        for k in range(shared, len(s)):
            np.add(stack[k], d.imfs[s[k] - 1], out=stack[k + 1])
        path = s
        np.subtract(truth, stack[len(s)], out=diffs[len(pending)])
        pending.append(s)
        if len(pending) == _RSS_BATCH:
            yield from _batch_rss(diffs, pending)
            pending = []
    if pending:
        yield from _batch_rss(diffs[: len(pending)], pending)


def _batch_rss(diffs: np.ndarray, subsets: list):
    np.multiply(diffs, diffs, out=diffs)
    for value, s in zip(np.sum(diffs, axis=1).tolist(), subsets):
        yield value, len(s), s


def oracle_select(d: Decomposition, truth, family: str) -> tuple[tuple[int, ...], float]:
    """Best index tuple in a family by residual sum of squares against ``truth``.

    Ties prefer the smaller retained set, then the lexicographically
    smallest index tuple, so the result is deterministic.  Every family
    is walked in an order where each subset mostly extends the one
    before, and subset sums are kept as running sums with the same bits
    as ``keep_subset``.
    """
    truth = _as_1d_float(truth, "truth")
    if truth.size != d.residual.size:
        raise ValueError("truth length does not match the decomposition")
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth contains non-finite values")
    if not np.isfinite(d.imfs).all():  # a NaN sum of squares never scores as the minimum
        raise ValueError("invalid samples: input contains non-finite values")
    value, _, best = min(_subset_rss(d, truth, _family_subsets(family, d.n_imfs)))
    return best, value


def _checked_imf(imf) -> np.ndarray:
    x = _as_1d_float(imf, "imf")
    if x.size == 0:
        raise ValueError("empty series")
    if not np.all(np.isfinite(x)):
        raise ValueError("invalid samples: input contains non-finite values")
    return x


def noise_sigma(imf) -> float:
    """Robust noise scale: median absolute deviation over 0.6745."""
    x = _checked_imf(imf)
    return float(np.median(np.abs(x - np.median(x))) / _MAD_TO_SIGMA)


def _universal_threshold(x: np.ndarray) -> float:
    return noise_sigma(x) * np.sqrt(2.0 * np.log(x.size)) if x.size > 1 else 0.0


def wavelet_hard_threshold(imf) -> np.ndarray:
    """Zero every sample at or below the universal threshold."""
    x = _checked_imf(imf)
    out = x.copy()
    out[np.abs(x) <= _universal_threshold(x)] = 0.0
    return out


def wavelet_interval_threshold(imf) -> np.ndarray:
    """Keep or zero whole inter-zero-crossing intervals.

    The IMF is partitioned at its zero crossings; an interval survives in
    its entirety when its extremum magnitude exceeds the universal
    threshold, otherwise the whole interval is zeroed.
    """
    x = _checked_imf(imf)
    threshold = _universal_threshold(x)
    signs = np.sign(x)
    # exact zeros extend the preceding interval
    idx = np.where(signs != 0, np.arange(x.size), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, signs[np.maximum(idx, 0)], 0.0)
    cuts = np.flatnonzero((filled[:-1] != filled[1:]) & (filled[:-1] != 0) & (filled[1:] != 0)) + 1
    starts = np.concatenate(([0], cuts))
    peaks = np.maximum.reduceat(np.abs(x), starts)
    keep = (peaks > threshold).repeat(np.diff(starts, append=x.size))
    return np.where(keep, x, 0.0)

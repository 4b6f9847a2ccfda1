"""Competing ensemble-decomposition cleaning methods.

A subset rule is the ascending tuple of 1-based IMF indices it keeps; the
rebuilt signal is the sum of those IMFs (the residual is always
excluded).  The oracle selector exhaustively searches a rule family (k
highest, l lowest, contiguous band, any subset) for the best residual sum
of squares against a known truth, giving each family its performance
upper bound.  The wavelet-style baselines threshold each IMF against the
universal threshold with a MAD noise estimate, either sample by sample
(hard) or whole inter-zero-crossing intervals at a time.
"""

from __future__ import annotations

import numpy as np

from .emd import Decomposition, _as_1d_float
from .simulation import rss

_MAD_TO_SIGMA = 0.6745

ORACLE_FAMILIES = ("khigh", "llow", "band", "powerset")


def keep_subset(d: Decomposition, indices) -> np.ndarray:
    """Sum of the IMFs with the given 1-based indices; an empty selection returns zeros."""
    kept = set(indices)
    if not all(1 <= j <= d.n_imfs for j in kept):
        raise ValueError("imf indices out of range")
    out = np.zeros(d.source_len)
    for imf in d.imfs:
        if imf.index in kept:
            out += imf.samples
    return out


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
        for mask in range(2**n_imfs):
            # tuple of a list: tuple(genexpr) resizes, so freed tuples pile up in free lists
            yield tuple([j + 1 for j in range(n_imfs) if mask >> j & 1])
    else:
        raise ValueError(f"unknown rule family {family!r}; expected one of {ORACLE_FAMILIES}")


def oracle_select(d: Decomposition, truth, family: str) -> tuple[tuple[int, ...], float]:
    """Best index tuple in a family by residual sum of squares against ``truth``.

    Ties prefer the smaller retained set, then the lexicographically
    smallest index tuple, so the result is deterministic.
    """
    truth = _as_1d_float(truth, "truth")
    if truth.size != d.source_len:
        raise ValueError("truth length does not match the decomposition")
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth contains non-finite values")
    subsets = _family_subsets(family, d.n_imfs)
    value, _, best = min((rss(keep_subset(d, s), truth), len(s), s) for s in subsets)
    return best, value


def noise_sigma(imf) -> float:
    """Robust noise scale: median absolute deviation over 0.6745."""
    x = _as_1d_float(imf, "imf")
    if x.size == 0:
        raise ValueError("empty series")
    return float(np.median(np.abs(x - np.median(x))) / _MAD_TO_SIGMA)


def _universal_threshold(x: np.ndarray) -> float:
    return noise_sigma(x) * np.sqrt(2.0 * np.log(x.size)) if x.size > 1 else 0.0


def wavelet_hard_threshold(imf) -> np.ndarray:
    """Zero every sample at or below the universal threshold."""
    x = _as_1d_float(imf, "imf")
    if x.size == 0:
        raise ValueError("empty series")
    out = x.copy()
    out[np.abs(x) <= _universal_threshold(x)] = 0.0
    return out


def wavelet_interval_threshold(imf) -> np.ndarray:
    """Keep or zero whole inter-zero-crossing intervals.

    The IMF is partitioned at its zero crossings; an interval survives in
    its entirety when its extremum magnitude exceeds the universal
    threshold, otherwise the whole interval is zeroed.
    """
    x = _as_1d_float(imf, "imf")
    if x.size == 0:
        raise ValueError("empty series")
    threshold = _universal_threshold(x)
    signs = np.sign(x)
    # exact zeros extend the preceding interval
    idx = np.where(signs != 0, np.arange(x.size), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, signs[np.maximum(idx, 0)], 0.0)
    cuts = np.flatnonzero((filled[:-1] != filled[1:]) & (filled[:-1] != 0) & (filled[1:] != 0)) + 1
    bounds = np.concatenate(([0], cuts, [x.size]))
    out = np.zeros_like(x)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if np.abs(x[a:b]).max() > threshold:
            out[a:b] = x[a:b]
    return out

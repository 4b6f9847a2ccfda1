"""Segment variance F-tests and family-wise error control.

Each inter-change-point segment is tested against its neighbors: under
the null its variance exceeds neither neighbor variance by more than the
factor ``gamma``.  The statistic ``gamma * max(neighbor variances) /
during variance`` is referred to the F distribution with the segment
lengths as degrees of freedom, and evidence against the null is a small
statistic (a large during-variance), so the p-value is the lower tail,
computed by ``scipy.special.fdtr``.  The whole collection of tests from
one cleaning run is then filtered by the Holm-Bonferroni step-down
procedure.

Note: the degrees of freedom are the raw segment lengths, not lengths
minus one; at the segment sizes this pipeline produces the difference is
immaterial.  Whether df2 should instead track the neighbor that attains
the maximum variance is an open modelling choice; the larger neighbor
length is used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtr

from .emd import _as_1d_float

_TINY = 1e-300
_F_STAT_CAP = 1e308


@dataclass(frozen=True)
class SegmentTest:
    """One segment's variance test against its neighbors."""

    imf_index: int
    seg_start: int
    seg_end: int
    s2_before: float | None
    s2_during: float
    s2_after: float | None
    n_before: int | None
    n_during: int
    n_after: int | None
    gamma: float
    f_stat: float
    p_value: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")
        if self.f_stat < 0:
            raise ValueError("f_stat must be nonnegative")
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")


@dataclass(frozen=True)
class SegmentDecision:
    """A tested segment together with its multiplicity-corrected verdict."""

    test: SegmentTest
    significant: bool
    holm_threshold: float

    def __post_init__(self):
        if self.significant and not self.test.p_value < self.holm_threshold:
            raise ValueError("significant decisions require p_value < holm_threshold")


def sample_variance(series, i: int, j: int) -> float:
    """Biased (divide-by-n) variance of the inclusive segment ``[i, j]``."""
    x = _as_1d_float(series)
    if j < i:
        raise ValueError("empty segment")
    if i < 0 or j >= x.size:
        raise ValueError("segment out of bounds")
    return float(np.var(x[i : j + 1]))


def f_cdf(x: float, df1: int, df2: int) -> float:
    """P(F_{df1, df2} <= x), computed by ``scipy.special.fdtr``."""
    if not (df1 >= 1 and df2 >= 1):
        raise ValueError("degrees of freedom must be at least 1")
    if math.isnan(x) or x < 0:
        raise ValueError("x must be nonnegative")
    return float(fdtr(df1, df2, x))


def f_test_segment(
    before: tuple[float, int] | None,
    during: tuple[float, int],
    after: tuple[float, int] | None,
    gamma: float = 1.0,
    *,
    imf_index: int = 0,
    seg_start: int = 0,
    seg_end: int = 0,
) -> SegmentTest:
    """F-test of a segment's variance against its neighbors.

    ``before``/``after`` are ``(variance, length)`` pairs or ``None`` when
    the segment sits at a series boundary; the reference variance is the
    largest present neighbor variance, falling back to the single present
    neighbor.  A segment whose variance and reference are both zero is
    degenerate and reported as not significant (p = 1).
    """
    if before is None and after is None:
        raise ValueError("segment test needs at least one neighbor")
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    s2_during, n_during = float(during[0]), int(during[1])
    if n_during < 2:
        raise ValueError("during segment needs at least 2 samples")
    s2_before, n_before = (float(before[0]), int(before[1])) if before is not None else (None, None)
    s2_after, n_after = (float(after[0]), int(after[1])) if after is not None else (None, None)

    neighbor_vars = [v for v in (s2_before, s2_after) if v is not None]
    neighbor_lens = [v for v in (n_before, n_after) if v is not None]
    reference = max(neighbor_vars)
    df2 = max(neighbor_lens)

    if s2_during < _TINY and reference < _TINY:
        f_stat, p_value = 0.0, 1.0
    else:
        f_stat = min(gamma * reference / max(s2_during, _TINY), _F_STAT_CAP)
        p_value = f_cdf(f_stat, n_during, df2)

    return SegmentTest(
        imf_index=imf_index,
        seg_start=seg_start,
        seg_end=seg_end,
        s2_before=s2_before,
        s2_during=s2_during,
        s2_after=s2_after,
        n_before=n_before,
        n_during=n_during,
        n_after=n_after,
        gamma=gamma,
        f_stat=f_stat,
        p_value=p_value,
    )


def _validate_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


def holm_bonferroni(p_values, alpha: float = 0.05) -> list[bool]:
    """Step-down Holm rejection flags, in the original input order.

    Walks the ascending p-values, rejecting while ``p_(i) < alpha/(K-i+1)``
    and stopping at the first failure.  Ties keep their input order
    (stable sort), so callers should present tests in a deterministic
    order.
    """
    _validate_alpha(alpha)
    ps = [float(p) for p in p_values]
    k = len(ps)
    flags = [False] * k
    order = sorted(range(k), key=lambda i: ps[i])
    for rank, idx in enumerate(order):
        if ps[idx] < alpha / (k - rank):
            flags[idx] = True
        else:
            break
    return flags


def holm_thresholds(p_values, alpha: float = 0.05) -> list[float]:
    """Each hypothesis's step-down threshold ``alpha/(K - rank)``, input order."""
    _validate_alpha(alpha)
    ps = [float(p) for p in p_values]
    k = len(ps)
    order = sorted(range(k), key=lambda i: ps[i])
    thresholds = [0.0] * k
    for rank, idx in enumerate(order):
        thresholds[idx] = alpha / (k - rank)
    return thresholds

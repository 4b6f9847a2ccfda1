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

from .emd import _as_1d_float, _integer, _real

_TINY = 1e-300
_F_STAT_CAP = 1e308


@dataclass(frozen=True)
class SegmentTest:
    """One segment's variance test against its neighbors (its gamma is the caller's)."""

    imf_index: int
    seg_start: int
    seg_end: int
    s2_before: float | None
    s2_during: float
    s2_after: float | None
    n_before: int | None
    n_during: int
    n_after: int | None
    f_stat: float
    p_value: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")
        if self.f_stat < 0:
            raise ValueError("f_stat must be nonnegative")


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
    i, j = _integer(i, "the segment start"), _integer(j, "the segment end")
    if j < i:
        raise ValueError("empty segment")
    if i < 0 or j >= x.size:
        raise ValueError("segment out of bounds")
    return float(np.var(x[i : j + 1]))


def f_cdf(x: float, df1: int, df2: int) -> float:
    """P(F_{df1, df2} <= x), computed by ``scipy.special.fdtr``.

    The degrees of freedom are segment lengths: integers of at least 1.
    """
    if _integer(df1, "df1") < 1 or _integer(df2, "df2") < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if math.isnan(x):
        raise ValueError("x is NaN")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return float(fdtr(df1, df2, x))


def _variance_and_length(pair, name: str, min_len: int = 1) -> tuple[float, int]:
    """A checked ``(variance, length)`` pair; NaN fails the variance check."""
    s2, length = float(pair[0]), _integer(pair[1], f"the {name} length")
    if not 0 <= s2 < math.inf:
        raise ValueError(f"the {name} variance must be finite and nonnegative")
    if length < min_len:
        raise ValueError(f"the {name} length must be at least {min_len}")
    return s2, length


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
    neighbor.  Variances must be finite and nonnegative; lengths are
    integers of at least 1 (2 for ``during``).  Zero variance in both the
    segment and its reference is degenerate: p = 1, not significant.
    """
    if before is None and after is None:
        raise ValueError("segment test needs at least one neighbor")
    gamma = _real(gamma, "gamma")
    if not 1 <= gamma < math.inf:
        raise ValueError("gamma must be at least 1 and finite")
    s2_during, n_during = _variance_and_length(during, "during", 2)
    s2_before, n_before = _variance_and_length(before, "before") if before is not None else (None, None)
    s2_after, n_after = _variance_and_length(after, "after") if after is not None else (None, None)

    reference = max(v for v in (s2_before, s2_after) if v is not None)
    df2 = max(v for v in (n_before, n_after) if v is not None)

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
        f_stat=f_stat,
        p_value=p_value,
    )


def holm_bonferroni(p_values, alpha: float = 0.05) -> list[bool]:
    """Step-down Holm rejection flags, in the original input order.

    Walks the ascending p-values, rejecting while ``p_(i) < alpha/(K-i+1)``
    and stopping at the first failure.  Ties keep their input order
    (stable sort), so callers should present tests in a deterministic
    order.  The ranks and thresholds are those of ``holm_thresholds``.
    """
    ps = [float(p) for p in p_values]
    thresholds = holm_thresholds(ps, alpha)  # checks alpha and every p-value
    # the walk visits (p, input index) pairs in ascending order; it rejects
    # every pair before the first that fails its threshold
    stop = min(((p, i) for i, p in enumerate(ps) if not p < thresholds[i]), default=(math.inf, 0))
    return [(p, i) < stop for i, p in enumerate(ps)]


def holm_thresholds(p_values, alpha: float = 0.05) -> list[float]:
    """Each hypothesis's step-down threshold ``alpha/(K - rank)``, input order.

    ``alpha`` must lie strictly between 0 and 1 and every p-value in
    [0, 1]; NaN fails both checks.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    ps = [float(p) for p in p_values]
    if not all(0.0 <= p <= 1.0 for p in ps):
        raise ValueError("p-values must lie in [0, 1]")
    alpha = float(alpha)
    k = len(ps)
    order = sorted(range(k), key=lambda i: ps[i])
    thresholds = [0.0] * k
    for rank, idx in enumerate(order):
        thresholds[idx] = alpha / (k - rank)
    return thresholds

"""Adequacy-fraction estimation and onset extraction.

Per cell (t, m, delta) the engine produces a Bernoulli sample of adequacy
flags.  This module turns those into:

* Wilson score intervals for the adequate fraction (robust at 0/1 counts,
  unlike the Wald interval), in an AdequacyCell that holds no coordinates,
* an isotonic (PAVA) smoothing of the fraction along m, legitimate
  because adding sites never destroys adequacy in expectation,
* the onset size m* = min{m : smoothed fraction >= theta} and the derived
  redundancy R = N/m*, functional information FI = log2 R, and the
  overlap-corrected variants,
* onset confidence bounds at level 1 - alpha by two routes, Wilson-band
  inversion and a percentile bootstrap, combined by keeping the tighter
  interval.

Absent onsets (threshold never crossed on the m grid) are returned as
None, never as a grid value; the sweep stores an absent m as 0 (no grid
m is) and an absent real as NaN, and io writes both as empty fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "EstimationError",
    "AdequacyCell",
    "IsotonicCurve",
    "RedundancyValues",
    "wilson_interval",
    "adequacy_cell",
    "isotonic_fit",
    "onset_from_curve",
    "redundancy_fi",
    "onset_ci_inversion",
    "combine_onset_ci",
]


class EstimationError(ValueError):
    """Invalid estimation input (counts, grids, or curve shapes)."""


def wilson_interval(successes: int, trials: int,
                    alpha: float = 0.05) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns (low, high) clamped to [0, 1].  Degenerate counts stay
    informative: k = 0 gives low = 0 and k = n gives high = 1 exactly.
    """
    if trials < 1:
        raise EstimationError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise EstimationError(
            f"successes must lie in [0, {trials}], got {successes}")
    q = 1.0 - alpha / 2.0
    # below 2**-53, q rounds to 1.0, which has no normal quantile
    if not (0.0 < alpha < 1.0 and q < 1.0):
        raise EstimationError(f"alpha must lie in (2**-53, 1), got {alpha}")
    z = _normal_quantile(q)
    k = float(successes)
    n = float(trials)
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    # center - half cancels imperfectly at the degenerate counts; the
    # algebraic bounds there are exact
    lo = 0.0 if k == 0 else min(max(center - half, 0.0), 1.0)
    hi = 1.0 if k == n else min(max(center + half, 0.0), 1.0)
    return lo, hi


@lru_cache
def _normal_quantile(q: float) -> float:
    """Standard normal quantile, cached: a run uses one or two levels."""
    return NormalDist().inv_cdf(q)


@dataclass(frozen=True, slots=True)
class AdequacyCell:
    """One cell's count k of adequate fragments among n and its Wilson
    band; its (t, m, delta, protocol) are where the caller stores it."""

    n: int
    k: int
    ci_low: float
    ci_high: float

    @property
    def p_hat(self) -> float:
        """The raw adequate fraction k / n."""
        return self.k / self.n

    def __post_init__(self) -> None:
        if self.n < 1:
            raise EstimationError("cell needs n >= 1 flags")
        if not 0 <= self.k <= self.n:
            raise EstimationError("cell count k out of range")
        if not (0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0):
            raise EstimationError("confidence bounds must bracket p_hat "
                                  "within [0, 1]")


def adequacy_cell(flags, alpha: float = 0.05) -> AdequacyCell:
    """Summarize a Bernoulli adequacy sample into an AdequacyCell."""
    arr = np.asarray(flags, dtype=bool)
    if arr.ndim != 1 or arr.size < 1:
        raise EstimationError("flags must be a nonempty 1-d array")
    n = int(arr.size)
    k = int(np.count_nonzero(arr))
    lo, hi = wilson_interval(k, n, alpha)
    return AdequacyCell(n=n, k=k, ci_low=lo, ci_high=hi)


def isotonic_fit(values, weights=None) -> np.ndarray:
    """Weighted least-squares projection onto nondecreasing sequences.

    Pool-adjacent-violators: walk left to right keeping a stack of blocks;
    whenever the trailing block mean drops below its predecessor, merge
    them into one weighted block.  Each pooled block of the output carries
    the weighted mean of its inputs, so an already monotone input comes
    back unchanged.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise EstimationError("values must be a nonempty 1-d array")
    if not np.all(np.isfinite(v)):
        raise EstimationError("values must be finite")
    if weights is None:
        w = np.ones_like(v)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise EstimationError("weights must match values in length")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise EstimationError("weights must be finite and positive")
    means: list[float] = []
    wsum: list[float] = []
    counts: list[int] = []
    for vi, wi in zip(v, w):
        means.append(float(vi))
        wsum.append(float(wi))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            wm = wsum[-2] + wsum[-1]
            means[-2] = (means[-2] * wsum[-2] + means[-1] * wsum[-1]) / wm
            wsum[-2] = wm
            counts[-2] += counts[-1]
            del means[-1], wsum[-1], counts[-1]
    return np.repeat(np.asarray(means), np.asarray(counts))


@dataclass(frozen=True, eq=False)
class IsotonicCurve:
    """Smoothed adequacy fraction phi_iso over a strictly increasing m grid."""

    m_grid: np.ndarray
    phi_iso: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.m_grid, dtype=np.int64)
        phi = np.asarray(self.phi_iso, dtype=float)
        if grid.ndim != 1 or phi.shape != grid.shape or grid.size < 1:
            raise EstimationError("curve needs matching 1-d m_grid/phi_iso")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise EstimationError("m_grid must be strictly increasing")
        if np.any(np.diff(phi) < 0.0):
            raise EstimationError("phi_iso must be nondecreasing")
        grid.setflags(write=False)
        phi = phi.copy()
        phi.setflags(write=False)
        object.__setattr__(self, "m_grid", grid)
        object.__setattr__(self, "phi_iso", phi)


def onset_from_curve(curve: IsotonicCurve, theta: float) -> Optional[int]:
    """Smallest m with phi_iso >= theta (closed comparison), or None.

    Ties at the boundary resolve to the smallest qualifying m.
    """
    if not 0.0 < theta < 1.0:
        raise EstimationError(f"theta must lie in (0, 1), got {theta}")
    hits = np.flatnonzero(curve.phi_iso >= theta)
    if hits.size == 0:
        return None
    return int(curve.m_grid[hits[0]])


class RedundancyValues(NamedTuple):
    r: float
    r_eff: float
    fi: float
    fi_eff: float


def redundancy_fi(n_sites: int, m_star: int,
                  eta: float = 0.0) -> RedundancyValues:
    """Redundancy R = N/m*, FI = log2 R, and the overlap-corrected pair.

    The correction divides R by the effective multiple-counting factor of
    overlapping fragments: R_eff = R (1 - eta) / (1 + eta).  eta must lie
    in [0, 1); eta = 1 would mean a family of identical fragments.
    """
    if n_sites < 1:
        raise EstimationError("n_sites must be >= 1")
    if not 1 <= m_star <= n_sites:
        raise EstimationError(
            f"m_star must lie in [1, {n_sites}], got {m_star}")
    if not (math.isfinite(eta) and 0.0 <= eta < 1.0):
        raise EstimationError(f"eta must lie in [0, 1), got {eta}")
    r = n_sites / m_star
    r_eff = r * (1.0 - eta) / (1.0 + eta)
    return RedundancyValues(r=r, r_eff=r_eff, fi=math.log2(r),
                            fi_eff=math.log2(r_eff))


def onset_ci_inversion(m_grid, n, ci_low, ci_high,
                       theta: float) -> Tuple[Optional[int], Optional[int]]:
    """Onset bounds by inverting the per-m Wilson band.

    m_grid is the strictly increasing m grid of one (t, delta, protocol)
    group, and n, ci_low and ci_high are its cells' sizes and Wilson band
    edges along it, as columns of the sweep's cell table.  After
    isotonic smoothing of each band edge (weights = cell sizes), the
    upper onset bound is the first m whose smoothed lower edge clears
    theta, and the lower bound the first m whose smoothed upper edge
    does.  PAVA preserves pointwise order, so m_lo <= m* <= m_hi whenever
    all three exist.  Empty or mismatched columns, an unsorted grid and
    a theta outside (0, 1) raise EstimationError.
    """
    iso_low = isotonic_fit(ci_low, n)
    iso_high = isotonic_fit(ci_high, n)
    m_hi = onset_from_curve(IsotonicCurve(m_grid, iso_low), theta)
    m_lo = onset_from_curve(IsotonicCurve(m_grid, iso_high), theta)
    return m_lo, m_hi


# Element cap of one bootstrap draw block: 2^18 int64 counts (2 MiB), a
# single block for every B x len(m_grid) up to 1000 x 262.
_BOOTSTRAP_BLOCK = 1 << 18


def _first_clearing(c: np.ndarray) -> np.ndarray:
    """Per row of running sums C[0..L], the first j < L with
    min_{k>j} C[k] >= min_{i<=j} C[i]; -1 where there is none.

    This is the minimax form of the isotonic fit: with
    C[j] = sum_{l<j} w_l (p_l - theta), the fitted value at j clears
    theta iff that inequality holds.
    """
    prefix_min = np.minimum.accumulate(c, axis=1)[:, :-1]
    suffix_min = np.minimum.accumulate(c[:, ::-1], axis=1)[:, ::-1][:, 1:]
    ok = suffix_min >= prefix_min
    hit = ok.any(axis=1)
    return np.where(hit, ok.argmax(axis=1), -1)


def _window_onset_indices(k_star: np.ndarray, k: np.ndarray, n: np.ndarray,
                          theta: float) -> np.ndarray:
    """Onset grid index of each replicate, -1 = absent, by the minimax
    form of PAVA run only over the informative window of the grid.

    It equals, index for index, the full-grid minimax route over
    k_full / n with weights n that tests/test_estimation.py keeps as the
    reference.

    k_full holds replicate redraws of the observed counts k, so every
    replicate is 0 in a column with k = 0 and n in a column with k = n.
    k_star is k_full from the first column with k != 0 on: the leading
    k = 0 columns are not drawn.  Let the window be the columns between
    that leading run and the trailing run of k = n.  The running sums C
    agree bit for bit with the full route's, because the window's
    cumulative sum starts from the shared C at its first column and adds
    in the same order.  Over the leading run C never rises, so the
    prefix minimum at a window column is the window's own.  Over the
    trailing run C never falls, so the suffix minimum at a window column
    is the window's own, and every trailing column clears the test: the
    onset is the first trailing column whenever nothing earlier does.  A
    leading column j clears it only in the exact tie C[j] == C at the
    window start, and then exactly when the window's first column does.
    """
    n_m = n.size
    informative = np.flatnonzero(k != 0)
    lo = int(informative[0]) if informative.size else n_m
    unfilled = np.flatnonzero(k != n)
    hi = int(unfilled[-1]) + 1 if unfilled.size else 0
    # one row of running sums serves every replicate over the leading run
    c_lead = np.concatenate([[0.0], np.cumsum(n[:lo] * (0.0 - theta))])
    if hi > lo:
        c = np.empty((k_star.shape[0], hi - lo + 1))
        c[:, 0] = c_lead[-1]
        c[:, 1:] = n[lo:hi] * (k_star[:, :hi - lo] / n[lo:hi] - theta)
        first = _first_clearing(np.cumsum(c, axis=1))
        idx = np.where(first >= 0, lo + first, hi)
    else:
        idx = np.full(k_star.shape[0], hi)
    ties = np.flatnonzero(c_lead[:-1] == c_lead[-1])
    if ties.size:
        idx[idx == lo] = ties[0]
    idx[idx == n_m] = -1
    return idx


def _bootstrap_counts(m_values: np.ndarray, k: np.ndarray, n: np.ndarray,
                      theta: float, alpha: float, n_replicates: int,
                      seed: int) -> Tuple[Optional[int], Optional[int]]:
    """Percentile bootstrap of the onset from per-m counts.

    k and n are the adequate and total float counts of the cells on the
    strictly increasing grid m_values, as the sweep passes them.
    Resampling n Bernoulli flags with replacement is a Binomial(n, k/n)
    draw on the adequate count, which is how replicates are generated
    here.  Replicates whose smoothed curve never reaches theta count as
    +inf, so an absent percentile reports an absent bound.  The bounds
    are the alpha/2 and 1 - alpha/2 quantiles, the level of the Wilson
    band that onset_ci_inversion inverts, and follow np.quantile's
    method="nearest".

    A settled group (every k is 0 or n) redraws its observed counts in
    every replicate, so both bounds are its own onset and nothing is
    drawn.  Otherwise replicates are drawn in row blocks of at most
    _BOOTSTRAP_BLOCK elements from the one generator, which gives the
    same draws as a single (n_replicates, len(n)) call, and each block's
    onsets are tallied in a histogram over the grid plus "absent".
    Leading columns with k = 0 and trailing columns with k = n redraw
    their observed count in every replicate, so the onset search runs
    only over the columns between them (_window_onset_indices), with
    the same result as the full minimax.  The leading k = 0 columns are
    not drawn at all: numpy's binomial returns 0 at p = 0 without
    consuming a variate, so the later columns' draws are the same.
    """
    n_m = n.size
    # first column with k != 0; 0 when every k is 0, where the window
    # is empty and no column is read
    lead = int(np.argmax(k != 0))
    if np.all((k == 0) | (k == n)):
        idx = int(_window_onset_indices(k[None, lead:], k, n, theta)[0])
        onset = int(m_values[idx]) if idx >= 0 else None
        return onset, onset
    rng = np.random.Generator(np.random.PCG64(seed))
    n_int = n[lead:].astype(np.int64)
    p_hat = k[lead:] / n[lead:]
    rows = max(1, _BOOTSTRAP_BLOCK // n_m)
    hist = np.zeros(n_m + 1, dtype=np.int64)
    for start in range(0, n_replicates, rows):
        size = (min(rows, n_replicates - start), n_m - lead)
        idx = _window_onset_indices(rng.binomial(n_int, p_hat, size=size),
                                    k, n, theta)
        hist += np.bincount(np.where(idx >= 0, idx, n_m), minlength=n_m + 1)
    ranks = np.around((n_replicates - 1)
                      * np.array([alpha / 2.0, 1.0 - alpha / 2.0]))
    bins = np.searchsorted(np.cumsum(hist), ranks, side="right")
    lo, hi = (int(m_values[b]) if b < n_m else None for b in bins)
    return lo, hi


def combine_onset_ci(
        inversion: Tuple[Optional[int], Optional[int]],
        bootstrap: Tuple[Optional[int], Optional[int]],
) -> Tuple[Optional[int], Optional[int]]:
    """Keep the tighter of the two onset intervals.

    An interval is scored by (number of absent bounds, width); lower is
    better, and exact ties go to the inversion interval, which carries an
    explicit coverage statement, so two fully absent intervals give
    (None, None).
    """
    def score(iv: Tuple[Optional[int], Optional[int]]):
        lo, hi = iv
        absent = (lo is None) + (hi is None)
        width = (hi - lo) if absent == 0 else math.inf
        return (absent, width)

    return bootstrap if score(bootstrap) < score(inversion) else inversion


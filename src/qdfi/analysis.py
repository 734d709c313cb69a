"""Trajectory-level analysis: growth rates, onset times, scaling checks.

The early redundancy climb is summarized by a single rate kappa from an
ordinary least-squares fit of ln R against t over a short window.  Window
selection is deliberately rigid so that fitted rates are comparable
across deltas and runs: scan window start times from the earliest
present-onset point upward, lengths from MIN_POINTS = 6 points to
MAX_WINDOW = 15, accept the earliest start that reaches R^2 >= MIN_R2 =
0.9, and at that start keep the longest qualifying length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sweep import RedundancyTrajectory

__all__ = [
    "SlopeFit",
    "ScalingFit",
    "SummaryRow",
    "fit_early_slope",
    "onset_time",
    "scaling_exponent",
    "summary_table",
]

_LN2 = math.log(2.0)

# The fixed early-slope window rule (see the module docstring).
MIN_POINTS = 6
MAX_WINDOW = 15
MIN_R2 = 0.9


@dataclass(frozen=True)
class SlopeFit:
    """Early growth rate of one trajectory.

    kappa is the natural-log rate (ln R ~ kappa t), kappa_base2 the same
    rate in bits per unit time.  window_start/window_end index into the
    trajectory's time grid; t_start/t_end are the matching times.
    """

    delta: float
    kappa: float
    kappa_base2: float
    intercept: float
    r2: float
    window_start: int
    window_end: int
    t_start: float
    t_end: float
    n_points: int


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope of onset size versus time over the pre-plateau window."""

    exponent: float
    n_points: int


@dataclass(frozen=True)
class SummaryRow:
    delta: float
    max_r: Optional[float]
    final_fi: Optional[float]
    kappa: Optional[float]
    r2: Optional[float]
    t_star: Optional[float]


def _ols_line(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, r2).

    Assumes x has positive variance and y does not (caller screens the
    zero-variance case, which is non-qualifying by definition).
    """
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_early_slope(traj: RedundancyTrajectory) -> Optional[SlopeFit]:
    """Fit ln R = kappa t + b on the earliest well-described window.

    Operates on the subsequence of points with a present onset (absences
    cluster before the first onset, so this is the usable early record).
    Windows with zero response variance never qualify; returns None when
    no window does or fewer than MIN_POINTS onsets exist.
    """
    present = np.flatnonzero(traj.onsets["m_star"] > 0)
    if len(present) < MIN_POINTS:
        return None
    xs = traj.t[present]
    ys = np.log(traj.onsets["r"][present])

    for start in range(0, len(present) - MIN_POINTS + 1):
        best = None
        longest = min(MAX_WINDOW, len(present) - start)
        for length in range(MIN_POINTS, longest + 1):
            x = xs[start:start + length]
            y = ys[start:start + length]
            if np.ptp(y) == 0.0:
                continue
            slope, intercept, r2 = _ols_line(x, y)
            if r2 >= MIN_R2:
                best = (length, slope, intercept, r2)
        if best is not None:
            length, slope, intercept, r2 = best
            return SlopeFit(delta=traj.delta, kappa=slope,
                            kappa_base2=slope / _LN2, intercept=intercept,
                            r2=r2, window_start=int(present[start]),
                            window_end=int(present[start + length - 1]),
                            t_start=float(xs[start]),
                            t_end=float(xs[start + length - 1]),
                            n_points=length)
    return None


def onset_time(traj: RedundancyTrajectory) -> Optional[float]:
    """Earliest grid time with a present onset, or None."""
    present = np.flatnonzero(traj.onsets["m_star"] > 0)
    if not present.size:
        return None
    return float(traj.t[present[0]])


def scaling_exponent(traj: RedundancyTrajectory,
                     m_cap: int) -> Optional[ScalingFit]:
    """Log-log slope of m*(t) on the pre-plateau window.

    Qualifying points have 1 < m* < m_cap, where m_cap is the top of the
    m grid: the boundaries are excluded because a clamped onset carries
    no scaling information.  Needs at least 4 qualifying points; the
    dephasing mean-field reference value is -2.
    """
    m_star = traj.onsets["m_star"]
    keep = (1 < m_star) & (m_star < m_cap)
    if np.count_nonzero(keep) < 4:
        return None
    x = np.log(traj.t[keep])
    y = np.log(m_star[keep])
    if np.ptp(y) == 0.0:
        return None
    slope, _, _ = _ols_line(x, y)
    return ScalingFit(exponent=slope, n_points=y.size)


def summary_table(trajectories: Sequence[RedundancyTrajectory],
                  slope_fits: Dict[float, Optional[SlopeFit]]
                  ) -> List[SummaryRow]:
    """One row per trajectory: peak redundancy, final FI, rate, onset time.

    final_fi is read at the last time with a present onset; max_r over
    all present onsets.  Rows come back in trajectory order.
    """
    rows: List[SummaryRow] = []
    for traj in trajectories:
        present = traj.onsets[traj.onsets["m_star"] > 0]
        fit = slope_fits.get(traj.delta)
        rows.append(SummaryRow(
            delta=traj.delta,
            max_r=max(present["r"].tolist(), default=None),
            final_fi=float(present["fi"][-1]) if present.size else None,
            kappa=fit.kappa if fit is not None else None,
            r2=fit.r2 if fit is not None else None,
            t_star=onset_time(traj)))
    return rows

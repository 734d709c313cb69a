"""Trajectory analysis tests.

The slope-selection oracle re-implements the documented window rule by
brute force (enumerate every start and length, fit with numpy.polyfit,
apply the acceptance conditions) and the package fit must agree with it
exactly on window placement.
"""

import math

import numpy as np
import pytest

from test_sweep import ABSENT

from qdfi import (ONSET_DTYPE, RedundancyTrajectory, RunConfig,
                  TimeGridSpec, fit_early_slope, onset_time, run_sweep,
                  scaling_exponent, summary_table)

LOG2_150000 = 17.194602975157967


def trajectory(times, rows, delta=0.05):
    """A trajectory over ``times`` from one ONSET_DTYPE row per time."""
    return RedundancyTrajectory(delta=delta, protocol="random",
                                t=np.asarray(times, dtype=float),
                                onsets=np.array(rows, dtype=ONSET_DTYPE))


def make_traj(times, m_stars, n_sites, delta=0.05):
    """Synthetic trajectory; r/fi follow m_star, CI fields stay empty."""
    rows = []
    for m in m_stars:
        if m is None:
            rows.append(ABSENT)
        else:
            r = n_sites / m
            rows.append((int(m), 0, 0, r, r, 0.0, math.log2(r),
                         math.log2(r)))
    return trajectory(times, rows, delta)


def traj_from_lnr(times, lnr, delta=0.05):
    """Trajectory with prescribed ln R values (m_star pinned to 1)."""
    return trajectory(times, [
        (1, 0, 0, math.exp(v), math.exp(v), 0.0, v / math.log(2),
         v / math.log(2)) for v in lnr], delta)


def window_rule_oracle(times, lnr, min_points=6, max_window=15,
                       min_r2=0.9):
    """Brute-force re-statement of the documented window selection."""
    n = len(times)
    for start in range(0, n - min_points + 1):
        chosen = None
        for length in range(min_points, min(max_window, n - start) + 1):
            x = np.asarray(times[start:start + length])
            y = np.asarray(lnr[start:start + length])
            if np.ptp(y) == 0.0:
                continue
            slope, intercept = np.polyfit(x, y, 1)
            resid = y - (slope * x + intercept)
            ss_tot = np.sum((y - y.mean()) ** 2)
            r2 = 1.0 - np.sum(resid ** 2) / ss_tot
            if r2 >= min_r2:
                chosen = (start, length, slope)
        if chosen is not None:
            return chosen
    return None


class TestFitEarlySlope:
    def test_exact_line(self):
        times = np.arange(1, 11, dtype=float)
        traj = traj_from_lnr(times, 2.0 * times + 1.0)
        fit = fit_early_slope(traj)
        assert fit is not None
        assert abs(fit.kappa - 2.0) < 1e-9
        assert abs(fit.intercept - 1.0) < 1e-9
        assert abs(fit.r2 - 1.0) < 1e-12
        assert abs(fit.kappa_base2 - 2.0 / math.log(2)) < 1e-9

    def test_constant_r_never_qualifies(self):
        times = np.arange(1, 11, dtype=float)
        traj = traj_from_lnr(times, np.full(10, 1.5))
        assert fit_early_slope(traj) is None

    def test_rise_then_plateau(self):
        # ln R = 3t up to t = 1, flat after; the window must stay on the
        # rising half and recover the rate
        times = np.arange(1, 31) * (2.0 / 30.0)
        lnr = np.where(times <= 1.0, 3.0 * times, 3.0)
        traj = traj_from_lnr(times, lnr)
        fit = fit_early_slope(traj)
        assert fit is not None
        assert fit.t_end <= 1.0 + 1e-12
        assert abs(fit.kappa - 3.0) < 0.05

    def test_matches_window_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            n = int(rng.integers(8, 26))
            times = np.sort(rng.uniform(0.1, 5.0, size=n))
            # noisy saturating curves resembling real trajectories
            scale = rng.uniform(0.5, 3.0)
            lnr = np.log1p(np.expm1(scale * times)
                           / (1.0 + np.expm1(scale * (times - 2.5)) *
                              (times > 2.5)))
            lnr = lnr + rng.normal(0.0, 0.05, size=n)
            traj = traj_from_lnr(times, lnr)
            got = fit_early_slope(traj)
            want = window_rule_oracle(times, lnr)
            if want is None:
                assert got is None
                continue
            start, length, slope = want
            assert got is not None
            assert got.window_start == start
            assert got.window_end == start + length - 1
            assert abs(got.kappa - slope) < 1e-9

    def test_leading_absences_skipped(self):
        times = np.arange(1, 16, dtype=float)
        m = [None, None, None] + [12, 10, 8, 6, 5, 4, 3, 2, 2, 1, 1, 1]
        traj = make_traj(times, m, n_sites=24)
        fit = fit_early_slope(traj)
        assert fit is not None
        assert fit.window_start >= 3
        assert fit.kappa > 0

    def test_too_few_points_absent(self):
        times = np.arange(1, 5, dtype=float)
        traj = traj_from_lnr(times, 2.0 * times)
        assert fit_early_slope(traj) is None


class TestOnsetTime:
    def test_first_present_time(self):
        times = np.arange(1, 11, dtype=float)
        m = [None] * 6 + [5, 4, 3, 2]
        traj = make_traj(times, m, n_sites=20)
        assert onset_time(traj) == 7.0

    def test_all_absent(self):
        times = np.arange(1, 6, dtype=float)
        traj = make_traj(times, [None] * 5, n_sites=20)
        assert onset_time(traj) is None

    def test_looser_tolerance_starts_no_later(self):
        cfg = RunConfig(n_sites=12, deltas=(0.01, 0.05, 0.1),
                        n_fragments=200, m_grid=tuple(range(1, 9)),
                        time_grid=TimeGridSpec(n_dense=20, n_coarse=10),
                        bootstrap_replicates=100, overlap_pairs=40,
                        master_seed=5)
        res = run_sweep(cfg)
        stars = {tr.delta: onset_time(tr) for tr in res.trajectories}
        assert stars[0.1] is not None
        assert stars[0.1] <= stars[0.05] <= stars[0.01]


class TestScalingExponent:
    def test_inverse_square_family(self):
        times = np.geomspace(1.0, 10.0, 40)
        m = [math.ceil(100.0 / t ** 2) for t in times]
        traj = make_traj(times, m, n_sites=200)
        fit = scaling_exponent(traj, m_cap=128)
        assert fit is not None
        assert abs(fit.exponent - (-2.0)) < 0.3

    def test_constant_onset_has_no_scaling(self):
        times = np.arange(1, 11, dtype=float)
        traj = make_traj(times, [3] * 10, n_sites=30)
        assert scaling_exponent(traj, m_cap=16) is None

    def test_too_few_points(self):
        times = np.arange(1, 4, dtype=float)
        traj = make_traj(times, [9, 4, 2], n_sites=30)
        assert scaling_exponent(traj, m_cap=16) is None

    def test_grid_edges_excluded(self):
        # clamped onsets at 1 and at the cap carry no scaling signal
        times = np.arange(1, 9, dtype=float)
        m = [16, 16, 8, 6, 4, 2, 1, 1]
        traj = make_traj(times, m, n_sites=64)
        fit = scaling_exponent(traj, m_cap=16)
        assert fit is not None
        assert fit.n_points == 4


class TestSummaryTable:
    def test_large_run_values(self):
        times = np.arange(1, 6, dtype=float)
        m = [100, 10, 2, 1, 1]
        traj = make_traj(times, m, n_sites=150_000, delta=0.01)
        rows = summary_table([traj], {0.01: fit_early_slope(traj)})
        assert len(rows) == 1
        assert rows[0].max_r == 150_000
        assert round(rows[0].final_fi, 2) == 17.19
        assert abs(rows[0].final_fi - LOG2_150000) < 1e-12
        assert rows[0].t_star == 1.0

    def test_no_onsets_row_is_empty(self):
        times = np.arange(1, 6, dtype=float)
        traj = make_traj(times, [None] * 5, n_sites=100)
        rows = summary_table([traj], {0.05: None})
        assert rows[0].max_r is None
        assert rows[0].final_fi is None
        assert rows[0].kappa is None
        assert rows[0].t_star is None

    def test_power_of_two_plateau(self):
        times = np.arange(1, 6, dtype=float)
        traj = make_traj(times, [8, 4, 2, 1, 1], n_sites=64)
        rows = summary_table([traj], {0.05: None})
        assert rows[0].final_fi == 6.0

"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports through the
scoreboard in conftest, so a full run prints one PASS/FAIL line per
criterion.  Configurations here are frozen: seeds, grids and budgets
are part of the contract, and the asserted tolerances are stated next
to each check.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import criterion
from test_estimation import brute_isotonic

import qdfi
from qdfi import (CouplingSet, RunConfig, TimeGridSpec, Tolerance,
                  build_time_grid, fit_early_slope, holevo_biased,
                  isotonic_fit, oracle_report, run_sweep, scaling_exponent,
                  summary_table, wilson_interval)
from qdfi.sweep import PURPOSE_COUPLINGS, derive_cell_seed


def _trajectory(result, protocol, delta):
    return next(t for t in result.trajectories
                if t.protocol == protocol and t.delta == delta)


def test_capacity_ceiling():
    """Criterion 1: the plateau reaches log2(N) bits for every delta."""
    with criterion(1, "capacity ceiling: final FI = log2 N for every delta"):
        t0 = time.perf_counter()
        finals = {}
        for n_sites in (64, 1024):
            cfg = RunConfig(n_sites=n_sites, g=0.5, coupling_rate=1.0,
                            deltas=(0.01, 0.05), theta=0.5,
                            protocols=("random",), n_fragments=400,
                            m_grid=tuple(range(1, 65)),
                            time_grid=TimeGridSpec(0.01, 1.0, 6.0, 80, 20),
                            master_seed=11)
            res = run_sweep(cfg)
            for delta in cfg.deltas:
                last = _trajectory(res, "random", delta).onsets[-1]
                assert last["m_star"] == 1, (
                    f"N={n_sites} delta={delta}: no full plateau, "
                    f"final m*={last['m_star']}")
                assert abs(last["fi"] - math.log2(n_sites)) < 1e-9
                finals[(n_sites, delta)] = last["fi"]
        for n_sites in (64, 1024):
            a = finals[(n_sites, 0.01)]
            b = finals[(n_sites, 0.05)]
            assert abs(a - b) < 1e-12, "plateau must not depend on delta"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_large_environment_summary():
    """Criterion 2: summary-table behavior at N=150000.

    Peak redundancy hits N and the final FI is 17.19 bits for every
    tolerance; fitted growth rates increase with delta while onset
    times decrease.  Rate magnitudes themselves depend on the coupling
    scale, so only the orderings are checked.
    """
    with criterion(2, "large-N summary: FI plateau, rate and onset orderings"):
        t0 = time.perf_counter()
        deltas = (0.0025, 0.005, 0.01, 0.02, 0.05)
        cfg = RunConfig(n_sites=150000, g=0.5, deltas=deltas, theta=0.5,
                        protocols=("random",), n_fragments=1000,
                        m_grid=tuple(range(1, 129)),
                        time_grid=TimeGridSpec(0.01, 1.0, 6.0, 120, 20),
                        master_seed=29)
        res = run_sweep(cfg)
        trajs = [_trajectory(res, "random", d) for d in deltas]
        fits = {d: fit_early_slope(tr) for d, tr in zip(deltas, trajs)}
        rows = summary_table(trajs, fits)
        for row in rows:
            assert row.max_r == 150000, f"delta={row.delta}: max R {row.max_r}"
            assert abs(row.final_fi - 17.19) <= 0.01, (
                f"delta={row.delta}: final FI {row.final_fi:.4f}")
        kappas = [row.kappa for row in rows]
        onsets = [row.t_star for row in rows]
        assert all(a < b for a, b in zip(kappas, kappas[1:])), (
            f"growth rates not increasing in delta: {kappas}")
        assert all(a > b for a, b in zip(onsets, onsets[1:])), (
            f"onset times not decreasing in delta: {onsets}")
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def test_sampled_adequacy_matches_enumeration():
    """Criterion 3: Monte Carlo adequacy agrees with exact enumeration."""
    with criterion(3, "sampled adequacy inside 99% Wilson band of exact"):
        t0 = time.perf_counter()
        cfg = RunConfig(n_sites=10, m_grid=tuple(range(1, 11)),
                        n_fragments=600, deltas=(0.01, 0.05, 0.1),
                        time_grid=TimeGridSpec(n_dense=6, n_coarse=6),
                        bootstrap_replicates=10, overlap_pairs=10,
                        master_seed=7)
        report = oracle_report(cfg)
        assert report.fraction_within >= 0.98, (
            f"only {report.fraction_within:.3f} of cells inside the band")
        assert report.passed
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_isotonic_matches_brute_force():
    """Criterion 4: PAVA equals exact monotone least squares."""
    with criterion(4, "isotonic fit equals brute-force monotone regression"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(404)
        grid = np.round(np.arange(0, 11) * 0.1, 1)
        for case in range(10_000):
            length = int(rng.integers(1, 7))
            values = rng.choice(grid, size=length)
            if case % 2:
                weights = rng.uniform(0.1, 3.0, size=length)
            else:
                weights = None
            got = isotonic_fit(values, weights)
            want = brute_isotonic(values, weights)
            assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_wilson_coverage():
    """Criterion 5: empirical CI coverage stays near nominal."""
    with criterion(5, "Wilson 95% interval coverage within [0.92, 0.98]"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(505)
        reps = 10_000
        for p in (0.05, 0.5, 0.95):
            for n in (30, 600):
                draws = rng.binomial(n, p, size=reps)
                # intervals depend on k only, so evaluate per unique count
                covered = 0
                for k, count in zip(*np.unique(draws, return_counts=True)):
                    lo, hi = wilson_interval(int(k), n, 0.05)
                    if lo <= p <= hi:
                        covered += int(count)
                coverage = covered / reps
                assert 0.92 <= coverage <= 0.98, (
                    f"p={p} n={n}: coverage {coverage:.4f}")
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_monotonicity_invariants():
    """Criterion 6: smoothed curves rise in m; flags rise in t."""
    with criterion(6, "monotonicity: smoothed curves in m, flags in t"):
        cfg = RunConfig(n_sites=50, deltas=(0.01, 0.05, 0.1), theta=0.5,
                        protocols=("random", "disjoint"), n_fragments=200,
                        m_grid=tuple(range(1, 33)),
                        time_grid=TimeGridSpec(n_dense=20, n_coarse=10),
                        bootstrap_replicates=50, overlap_pairs=40,
                        master_seed=3)
        # the run table's axes are (t, m, delta, protocol)
        iso = run_sweep(cfg).cells["phi_iso"]
        assert iso.size and not np.isnan(iso).any()
        assert (np.diff(iso, axis=1) >= -1e-12).all()

        # flags on a dense time grid with fragments and couplings pinned:
        # chi only grows with t, so no fragment may flip back to inadequate
        lam_seed = derive_cell_seed(cfg.master_seed,
                                    purpose=PURPOSE_COUPLINGS)
        lam = CouplingSet.exponential(200, 1.0, 0.5, lam_seed)
        grid = build_time_grid(TimeGridSpec(0.01, 1.0, 6.0, 40, 60))
        rng = np.random.default_rng(606)
        for _ in range(40):
            m = int(rng.integers(1, 201))
            members = np.sort(rng.choice(200, size=m, replace=False))
            total = float(lam.couplings[members].sum())
            chi = holevo_biased(-(0.5 ** 2) * grid ** 2 * total, 0.5)
            for delta in (0.01, 0.05, 0.1):
                tol = Tolerance.for_entropy(delta, 1.0)
                flags = chi >= tol.threshold
                assert np.all(np.diff(flags.astype(int)) >= 0)


def _jaccard_moments(n_sites, m):
    """Mean and variance of the Jaccard overlap of two random m-subsets.

    For independent uniform m-subsets of n_sites the intersection size
    I is hypergeometric(n_sites, m, m) and the overlap is I / (2m - I).
    math.comb keeps the weights exact at these sizes.
    """
    total = math.comb(n_sites, m)
    mean = second = 0.0
    for i in range(m + 1):
        weight = math.comb(m, i) * math.comb(n_sites - m, m - i) / total
        overlap = i / (2 * m - i)
        mean += weight * overlap
        second += weight * overlap * overlap
    return mean, second - mean * mean


def _fi_interval(n_sites, point, shift=0.0):
    """FI range spanned by the onset bounds, moved down by shift bits."""
    if point["m_star_lo"] == 0 or point["m_star_hi"] == 0:
        return None
    return (math.log2(n_sites / point["m_star_hi"]) - shift,
            math.log2(n_sites / point["m_star_lo"]) - shift)


def test_overlap_correction_reconciles_protocols():
    """Criterion 7: overlap-corrected FI agrees with the disjoint baseline.

    Mid-time points are the times where the two protocols actually
    disagree: both onsets present, not both already at the plateau, and
    unequal FI.  At the plateau the trajectories must agree within one
    step of the onset grid.

    The premise is checked at every onset: disjoint fragments never
    overlap (eta = 0, FI_eff = FI), and the random protocol's discount
    FI - FI_eff is log2((1+eta)/(1-eta)) to 1e-12.  The size of that
    discount is checked through eta itself: at every random onset
    m* > 1 the sampled overlap must lie within 5 standard errors of its
    exact expectation E[I/(2m-I)], I ~ Hypergeom(N, m, m), so a
    mis-sized correction fails here.

    Reconciliation: at 80% of mid-time points the random protocol's
    corrected FI interval (onset bounds, shifted down by the discount)
    must intersect the disjoint protocol's FI interval; a point with an
    absent bound counts as not reconciled.  An earlier version asked
    the correction to move FI toward the disjoint value at 80% of
    points.  The discount only ever lowers FI, and both protocols draw
    uniform m-subsets of the same couplings, so their disagreements
    have no fixed sign: that statistic passed at 1 seed in 7 and
    measured the seed rather than the program.
    """
    with criterion(7, "overlap-corrected FI consistent across protocols"):
        t0 = time.perf_counter()
        deltas = (0.01, 0.02, 0.05)
        cfg = RunConfig(n_sites=2000, deltas=deltas, theta=0.5,
                        protocols=("random", "disjoint"), n_fragments=400,
                        m_grid=tuple(range(1, 65)),
                        overlap_pairs=200, master_seed=17)
        res = run_sweep(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"

        reconciled = examined = 0
        for delta in deltas:
            rnd = _trajectory(res, "random", delta)
            dis = _trajectory(res, "disjoint", delta)
            final_r = int(rnd.onsets[-1]["m_star"])
            final_d = int(dis.onsets[-1]["m_star"])
            assert final_r != 0 and final_d != 0
            assert abs(final_r - final_d) <= 1, (
                f"delta={delta}: plateau onsets {final_r} vs {final_d}")
            for t, pr, pd in zip(rnd.t, rnd.onsets, dis.onsets):
                if pd["m_star"] != 0:
                    assert pd["eta"] == 0.0 and pd["fi_eff"] == pd["fi"], (
                        f"delta={delta} t={t}: disjoint eta {pd['eta']}, "
                        f"FI {pd['fi']} vs FI_eff {pd['fi_eff']}")
                if pr["m_star"] != 0:
                    eta, fi, fi_eff = pr["eta"], pr["fi"], pr["fi_eff"]
                    discount = math.log2((1.0 + eta) / (1.0 - eta))
                    assert abs(fi - fi_eff - discount) <= 1e-12, (
                        f"delta={delta} t={t}: FI - FI_eff = "
                        f"{fi - fi_eff}, expected {discount}")
                    if pr["m_star"] > 1:
                        mean, var = _jaccard_moments(cfg.n_sites,
                                                     int(pr["m_star"]))
                        z = (eta - mean) / math.sqrt(
                            var / cfg.overlap_pairs)
                        assert abs(z) <= 5.0, (
                            f"delta={delta} t={t} m*={pr['m_star']}: eta "
                            f"{eta:.6f} vs exact {mean:.6f}, z={z:.1f}")
                if pr["m_star"] == 0 or pd["m_star"] == 0:
                    continue
                if pr["m_star"] == 1 and pd["m_star"] == 1:
                    continue
                if pr["fi"] == pd["fi"]:
                    continue
                examined += 1
                got = _fi_interval(cfg.n_sites, pr, pr["fi"] - pr["fi_eff"])
                want = _fi_interval(cfg.n_sites, pd)
                if (got is not None and want is not None
                        and got[0] <= want[1] and want[0] <= got[1]):
                    reconciled += 1
        assert examined > 0
        fraction = reconciled / examined
        assert fraction >= 0.80, (
            f"corrected random FI interval meets the disjoint one at "
            f"{reconciled}/{examined} = {fraction:.1%} of mid-time "
            f"discrepancies, required >= 80%")


def test_onset_scaling_exponent():
    """Criterion 8: pre-plateau onset size falls roughly as t**-2."""
    with criterion(8, "pre-plateau onset scaling exponent within -2 +/- 0.4"):
        t0 = time.perf_counter()
        cfg = RunConfig(n_sites=5000, deltas=(0.01,), theta=0.5,
                        protocols=("random",), n_fragments=400,
                        m_grid=tuple(range(1, 65)),
                        time_grid=TimeGridSpec(0.01, 2.0, 6.0, 80, 20),
                        master_seed=13)
        res = run_sweep(cfg)
        fit = scaling_exponent(_trajectory(res, "random", 0.01), m_cap=64)
        assert fit is not None and fit.n_points >= 4
        assert -2.4 <= fit.exponent <= -1.6, (
            f"log-log slope {fit.exponent:.3f} outside [-2.4, -1.6] "
            f"({fit.n_points} points)")
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_thread_count_determinism(tmp_path):
    """Criterion 9: simulate output bytes do not depend on threads."""
    with criterion(9, "byte-identical simulate output for 1 and 8 threads"):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "N = 12\n"
            "deltas = 0.01, 0.05\n"
            "protocols = random, disjoint\n"
            "n_fragments = 120\n"
            "m_grid = 1, 2, 3, 4, 5, 6, 7, 8\n"
            "n_dense = 6\n"
            "n_coarse = 6\n"
            "bootstrap_B = 50\n"
            "overlap_pairs = 20\n"
            "master_seed = 9\n",
            encoding="utf-8")
        # the subprocesses import the package this process imported, from
        # an install or from a checkout's src
        env = dict(os.environ,
                   PYTHONPATH=str(Path(qdfi.__file__).parents[1]))
        outputs = {}
        for threads in (1, 8):
            out = tmp_path / f"run-t{threads}"
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from qdfi.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "simulate", "--config", str(cfg_path),
                 "--out", str(out), "--threads", str(threads)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs[1].keys() == outputs[8].keys()
        for name in outputs[1]:
            assert outputs[1][name] == outputs[8][name], (
                f"{name} differs between thread counts")

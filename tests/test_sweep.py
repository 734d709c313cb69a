"""Engine tests: seeds, time grid, sweep correctness, determinism."""

import concurrent.futures
import gc
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qdfi.sweep
from qdfi import (AdequacyCell, CELL_DTYPE, ConfigError, CouplingSet,
                  ONSET_DTYPE, RedundancyTrajectory, RunConfig,
                  SweepCellError, TimeGridSpec, Tolerance, binary_entropy,
                  build_time_grid, cell_chi_values, derive_cell_seed,
                  enumerate_fragments, holevo_biased, oracle_report,
                  overlap_cutoff, parse_config_text, read_onset_table,
                  redundancy_fi, run_sweep, sample_random_fragments,
                  wilson_interval, write_tables)
from qdfi.sweep import PURPOSE_COUPLINGS
from test_golden import CONFIGS, _config_text


def small_config(**kw):
    base = dict(n_sites=12, n_fragments=200,
                m_grid=tuple(range(1, 9)),
                time_grid=TimeGridSpec(n_dense=6, n_coarse=6),
                bootstrap_replicates=100, overlap_pairs=40, master_seed=5)
    base.update(kw)
    return RunConfig(**base)


# an absent onset: 0 for each m, NaN for each real
ABSENT = (0, 0, 0) + (math.nan,) * 5


def same_onsets(a, b, names=ONSET_DTYPE.names):
    """Two ONSET_DTYPE arrays hold the same values in the named fields,
    NaN (an absent real) included."""
    return a.shape == b.shape and all(
        np.array_equal(a[name], b[name], equal_nan=True) for name in names)


class TestDeriveCellSeed:
    def test_reproducible(self):
        a = derive_cell_seed(9, t_index=3, m_index=2, delta_index=1,
                             protocol_id=0, purpose=2)
        b = derive_cell_seed(9, t_index=3, m_index=2, delta_index=1,
                             protocol_id=0, purpose=2)
        assert a == b

    def test_single_index_changes_seed(self):
        # collision probe over random tuples differing in one coordinate
        rng = np.random.default_rng(71)
        base_kwargs = ("t_index", "m_index", "delta_index", "protocol_id",
                       "purpose")
        collisions = 0
        for _ in range(1000):
            master = int(rng.integers(0, 2 ** 63))
            kw = {k: int(rng.integers(0, 1000)) for k in base_kwargs}
            a = derive_cell_seed(master, **kw)
            bump = base_kwargs[int(rng.integers(0, len(base_kwargs)))]
            kw2 = dict(kw, **{bump: kw[bump] + 1})
            collisions += a == derive_cell_seed(master, **kw2)
        assert collisions <= 1

    def test_64_bit_range(self):
        s = derive_cell_seed(2 ** 64 - 1, t_index=999, m_index=999,
                             delta_index=9, protocol_id=2, purpose=4)
        assert 0 <= s < 2 ** 64

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            derive_cell_seed(-1)


class TestTimeGrid:
    def test_knee_must_exceed_start(self):
        with pytest.raises(ConfigError):
            TimeGridSpec(t_min=1.0, t_knee=1.0, t_max=6.0)

    def test_default_contract(self):
        grid = build_time_grid(TimeGridSpec(0.01, 1.0, 6.0, 40, 60))
        assert grid.size == 100
        assert grid[0] == 0.01 and grid[-1] == 6.0
        assert np.all(np.diff(grid) > 0)

    def test_dense_segment_geometric(self):
        grid = build_time_grid(TimeGridSpec(0.01, 1.0, 6.0, 40, 60))
        ratios = grid[1:40] / grid[:39]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-9

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeGridSpec(n_dense=1)
        with pytest.raises(ConfigError):
            TimeGridSpec(n_coarse=0)

    @pytest.mark.parametrize("key", ["t_min", "t_knee", "t_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_anchors(self, key, value):
        # t_max = inf used to run the whole sweep and then fail on the
        # trajectory times, or, with n_coarse = 1, write t = inf rows
        with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
            RunConfig(n_sites=12, time_grid=TimeGridSpec(**{key: value}))

    def test_anchors_too_close_for_a_rising_grid_rejected(self):
        # t_knee one ulp past t_min passes the anchor check, but the
        # geometric points between them cannot all differ; the spec
        # builds its grid, so the config fails before any run
        with pytest.raises(ConfigError, match="strictly increasing"):
            TimeGridSpec(t_min=0.01, t_knee=math.nextafter(0.01, 1.0))

    def test_grid_check_catches_nan(self):
        spec = TimeGridSpec()
        object.__setattr__(spec, "t_max", math.nan)  # past the spec's check
        with pytest.raises(ConfigError, match="strictly increasing"):
            build_time_grid(spec)


class TestRunConfig:
    def test_default_m_grid_fills_in(self):
        cfg = RunConfig(n_sites=10)
        assert cfg.m_grid == tuple(range(1, 11))
        cfg = RunConfig(n_sites=500)
        assert cfg.m_grid == tuple(range(1, 129))

    def test_rejects_zero_delta(self):
        with pytest.raises(ConfigError):
            RunConfig(deltas=(0.0, 0.05))

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            RunConfig(n_sites=10, m_grid=(1, 3, 2))
        with pytest.raises(ConfigError):
            RunConfig(n_sites=10, m_grid=(0, 1))
        with pytest.raises(ConfigError):
            RunConfig(n_sites=10, m_grid=(5, 11))

    def test_rejects_fractional_m_grid_entry(self):
        # used to truncate silently to (1, 2, 4)
        with pytest.raises(ConfigError, match=r"m_grid entry .* got 2\.7"):
            RunConfig(n_sites=20, m_grid=(1, 2.7, 4.2))

    def test_rejects_fractional_n_sites(self):
        # used to escape as a bare TypeError from the default m grid
        with pytest.raises(ConfigError, match=r"^N must be an integer"):
            RunConfig(n_sites=20.5)

    @pytest.mark.parametrize("attr, key", [
        ("n_fragments", "n_fragments"), ("bootstrap_replicates", "bootstrap_B"),
        ("overlap_pairs", "overlap_pairs"), ("master_seed", "master_seed")])
    def test_rejects_fractional_counts(self, attr, key):
        with pytest.raises(ConfigError, match=rf"^{key} must be an integer, "
                                              r"got 100\.5"):
            RunConfig(n_sites=20, **{attr: 100.5})

    @pytest.mark.parametrize("make, key", [
        (lambda: RunConfig(deltas=(0.1, "x")), "deltas entry"),
        (lambda: RunConfig(alpha="0.1"), "alpha"),
        (lambda: RunConfig(theta=None), "theta"),
        (lambda: RunConfig(g="0.5"), "g"),
        (lambda: RunConfig(coupling_rate=[1.0]), "coupling_rate"),
        (lambda: RunConfig(p0=1e400j), "p0"),
        (lambda: TimeGridSpec(t_min="0.01"), "t_min"),
        (lambda: TimeGridSpec(t_knee=None), "t_knee"),
        (lambda: TimeGridSpec(t_max=10 ** 400), "t_max")],
        ids=["deltas-str-entry", "alpha-str", "theta-none",
             "g-str", "coupling_rate-list", "p0-complex", "t_min-str",
             "t_knee-none", "t_max-overflow"])
    def test_rejects_non_real_floats(self, make, key):
        # used to escape as a bare ValueError, TypeError or OverflowError
        with pytest.raises(ConfigError, match=rf"^{key} must be a real "
                                              r"number, got "):
            make()

    @pytest.mark.parametrize("key, value", [
        ("deltas", 0.1), ("m_grid", 5), ("protocols", "random"),
        ("deltas", "0.1")],
        ids=["deltas-float", "m_grid-int", "protocols-str", "deltas-str"])
    def test_list_fields_reject_scalars_and_strings(self, key, value):
        # used to raise a bare TypeError, or to check the string's first
        # character as an entry ("unknown protocol 'r'", "got '0'")
        with pytest.raises(ConfigError, match=rf"^{key} must be a sequence, "
                                              rf"got {value!r}$"):
            RunConfig(n_sites=12, **{key: value})

    def test_rejects_fractional_time_grid_counts(self):
        for key in ("n_dense", "n_coarse"):
            with pytest.raises(ConfigError, match=rf"^{key} must be an "
                                                  r"integer"):
                TimeGridSpec(**{key: 40.5})

    def test_whole_float_sizes_become_ints(self):
        cfg = RunConfig(n_sites=20.0, n_fragments=np.int64(50),
                        m_grid=(1.0, 3))
        assert (cfg.n_sites, cfg.n_fragments, cfg.m_grid) == (20, 50, (1, 3))
        assert all(type(v) is int for v in
                   (cfg.n_sites, cfg.n_fragments, *cfg.m_grid))

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigError):
            RunConfig(protocols=("random", "psychic"))

    @pytest.mark.parametrize("kw, message", [
        (dict(p0=0.0), r"^p0 must lie in \(0, 1\), got 0\.0$"),
        (dict(p0=1.0), r"^p0 must lie in \(0, 1\), got 1\.0$"),
        (dict(deltas=()), r"^deltas must be nonempty$"),
        (dict(deltas=(0.05, 0.01, 0.05)), r"^deltas must be distinct$"),
        (dict(theta=0.0), r"^theta must lie in \(0, 1\), got 0\.0$"),
        (dict(theta=1.0), r"^theta must lie in \(0, 1\), got 1\.0$"),
        (dict(protocols=()), r"^protocols must be nonempty$"),
        (dict(protocols=("random", "disjoint", "random")),
         r"^protocols must be distinct$"),
        (dict(n_fragments=0), r"^n_fragments must be >= 1$"),
        (dict(bootstrap_replicates=0), r"^bootstrap_B must be >= 1$"),
        (dict(overlap_pairs=0), r"^overlap_pairs must be >= 1$"),
        (dict(master_seed=2 ** 64), r"^master_seed must fit in 64 bits$"),
        (dict(n_sites=None), r"^N must be an integer, got None$"),
        # an unhashable entry used to escape as a bare TypeError
        (dict(protocols=(["random"],)),
         r"^unknown protocol \['random'\]; choose from ")],
        ids=["p0-0", "p0-1", "deltas-empty", "deltas-repeated", "theta-0",
             "theta-1", "protocols-empty", "protocols-repeated",
             "n_fragments-0", "bootstrap_B-0", "overlap_pairs-0",
             "master_seed-2**64", "N-none", "protocols-list-entry"])
    def test_rejects_out_of_range_values(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{"n_sites": 12, **kw})

    def test_rejects_zero_threads(self):
        with pytest.raises(ConfigError, match=r"^threads must be >= 1$"):
            run_sweep(small_config(), threads=0)

    def test_rejects_alpha_without_normal_quantile(self):
        # 1 - alpha/2 rounds to 1.0, and every cell's Wilson band failed
        for alpha in (1e-17, 2.0 ** -53):
            with pytest.raises(ConfigError, match=r"^alpha must lie in"):
                RunConfig(n_sites=12, alpha=alpha)
        assert RunConfig(n_sites=12, alpha=2.0 ** -52).alpha == 2.0 ** -52

    def test_rejects_g_whose_square_overflows(self):
        # the cell kernel squares g, and every cell raised OverflowError
        with pytest.raises(ConfigError, match=r"^g must be positive with a "
                                              r"finite square"):
            RunConfig(n_sites=12, g=1e200)
        assert RunConfig(n_sites=12, g=1e151).g == 1e151

    def test_g_bound_keeps_every_log_overlap_finite(self):
        # a finite g^2 is not enough: the log overlap -g^2 t^2 (coupling
        # sum) must stay finite up to t_max for the largest possible sum
        with pytest.raises(ConfigError, match=r"^g must .* g\^2 \* t_max\^2 "
                                              r"\* N \* 44.5 / coupling_rate"):
            RunConfig(n_sites=12, g=1e154)
        bound = math.sqrt(sys.float_info.max / (6.0 ** 2 * 12
                                                * qdfi.sweep._EXP_VARIATE_MAX))
        with pytest.raises(ConfigError, match=r"^g must"):
            RunConfig(n_sites=12, g=bound * (1 + 1e-9))
        # just inside the bound the whole run raises no warning at all
        cfg = small_config(g=bound * (1 - 1e-9),
                           time_grid=TimeGridSpec(n_dense=2, n_coarse=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(cfg)
        assert result.cells.size == 3 * len(cfg.m_grid) * len(cfg.deltas)

    def test_rejects_coupling_rate_whose_reciprocal_overflows(self):
        # the couplings are drawn with scale 1 / coupling_rate, and every
        # run raised DomainError: couplings must be finite
        with pytest.raises(ConfigError, match=r"^coupling_rate must be "
                                              r"positive with a finite "
                                              r"reciprocal"):
            RunConfig(n_sites=12, coupling_rate=1e-310)
        assert RunConfig(n_sites=12, coupling_rate=1e-300).coupling_rate \
            == 1e-300

    def test_coupling_rate_bound_keeps_every_coupling_sum_finite(self):
        # numpy's largest Exp(1) variate is the ziggurat's r plus
        # -log1p(-u) at the largest u below 1.  At N = 12 a rate of 1e-308
        # lies below the bound: its reciprocal is finite, but it could draw
        # an infinite coupling, and the run failed with DomainError
        largest = 7.69711747013104972 - math.log1p(-(1.0 - 2.0 ** -53))
        rate = 12 * qdfi.sweep._EXP_VARIATE_MAX / sys.float_info.max
        for low in (1e-308, math.nextafter(rate, 0.0)):
            with pytest.raises(ConfigError, match=r"^coupling_rate must be "
                                                  r".* at least N \* "):
                RunConfig(n_sites=12, coupling_rate=low)
        assert math.isfinite(12 * (largest / rate))
        # the whole run at the bound; g is small enough that the log
        # overlaps stay finite too
        result = run_sweep(small_config(
            coupling_rate=rate, g=1e-150,
            time_grid=TimeGridSpec(n_dense=2, n_coarse=1)))
        assert math.isfinite(float(np.sum(
            result.config.couplings().couplings)))

    def test_unenumerable_exhaustive_rejected(self):
        with pytest.raises(ConfigError, match=r"m = 15 .*C\(30, 15\) = "
                                              r"155117520"):
            RunConfig(n_sites=30, protocols=("exhaustive",), m_grid=(15,))


class TestSweepExactness:
    def test_exhaustive_matches_enumeration(self):
        # with the exhaustive protocol the sweep IS the enumeration, so
        # every phi_hat must equal an exact subset fraction
        cfg = RunConfig(n_sites=4, m_grid=(1, 2, 3, 4),
                        protocols=("exhaustive",),
                        time_grid=TimeGridSpec(0.5, 2.0, 4.0, 3, 2),
                        n_fragments=50, bootstrap_replicates=50,
                        overlap_pairs=10, master_seed=3)
        res = run_sweep(cfg)
        lam_seed = derive_cell_seed(cfg.master_seed,
                                    purpose=PURPOSE_COUPLINGS)
        lam = CouplingSet.exponential(4, cfg.coupling_rate, cfg.g, lam_seed)
        entropy = binary_entropy(cfg.p0)
        for (t_i, m_i, d_i, _), cell in np.ndenumerate(res.cells):
            t, m = res.time_grid[t_i], cfg.m_grid[m_i]
            sample = enumerate_fragments(4, m)
            assert cell["n"] == math.comb(4, m)
            sums = lam.couplings[sample.indices].sum(axis=1)
            chi = holevo_biased(-(cfg.g ** 2) * t ** 2 * sums, cfg.p0)
            tol = Tolerance.for_entropy(cfg.deltas[d_i], entropy)
            exact = float(np.mean(chi >= tol.threshold))
            assert cell["k"] / cell["n"] == pytest.approx(exact, abs=1e-15)

    def test_cell_chi_values_reproduce_counts(self):
        cfg = small_config()
        res = run_sweep(cfg)
        entropy = binary_entropy(cfg.p0)
        t_index, m_index = 7, 3
        chi = cell_chi_values(cfg, t_index, m_index, "random")
        for d_index, delta in enumerate(cfg.deltas):
            tol = Tolerance.for_entropy(delta, entropy)
            k = int(np.sum(chi >= tol.threshold))
            assert res.cells["k"][t_index, m_index, d_index, 0] == k

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_adequacy_is_a_threshold_on_the_coupling_sum(self, name):
        # chi is monotone in the overlap, so a fragment is adequate iff
        # its log overlap, formed as _adequacy forms it, is at most
        # ln c_delta; checked on every family each golden config draws
        cfg = parse_config_text(_config_text(name))
        couplings, time_grid = qdfi.sweep._run_inputs(cfg)
        entropy = binary_entropy(cfg.p0)
        tols = [Tolerance.for_entropy(d, entropy) for d in cfg.deltas]
        log_cuts = [math.log(overlap_cutoff(tol, cfg.p0)) for tol in tols]
        for protocol in cfg.protocols:
            for t_index, t in enumerate(time_grid.tolist()):
                for m_index in range(len(cfg.m_grid)):
                    sample = qdfi.sweep._sample_cell(cfg, t_index, m_index,
                                                     protocol)
                    sums = qdfi.sweep._coupling_sums(couplings, sample)
                    flags = qdfi.sweep._adequacy(cfg, t, sums, tols)[1]
                    log_c = -(cfg.g ** 2) * (t * t) * sums
                    for f, log_cut in zip(flags, log_cuts):
                        assert np.array_equal(f, log_c <= log_cut), (
                            protocol, t, cfg.m_grid[m_index])

    def test_earliest_time_nothing_adequate(self):
        # at t = 0.01 with g = 0.5, rate = 1 every overlap is ~1 and no
        # fragment can clear a 0.95 bit threshold
        cfg = small_config(deltas=(0.01, 0.05))
        res = run_sweep(cfg)
        assert not res.cells["k"][0].any()
        for traj in res.trajectories:
            assert traj.onsets[0]["m_star"] == 0


class TestSweepStructure:
    def test_work_conservation(self):
        cfg = small_config()
        res = run_sweep(cfg)
        n_t = res.time_grid.size
        assert res.cells.shape == (n_t, len(cfg.m_grid), len(cfg.deltas), 1)
        assert len(res.trajectories) == len(cfg.deltas)
        # flags are shared across deltas, so chi evaluations count once
        # per (t, m) cell
        assert res.stats.holevo_evaluations == (n_t * len(cfg.m_grid)
                                                * cfg.n_fragments)

    @pytest.fixture(scope="class")
    def unordered_run(self, tmp_path_factory):
        # deltas and protocols listed out of order, and disjoint families
        # of m > 6 with a single fragment and so no overlap row
        result = run_sweep(small_config(deltas=(0.1, 0.01, 0.05),
                                        protocols=("random", "disjoint")))
        out = tmp_path_factory.mktemp("unordered")
        write_tables(result, out)
        return result, out

    @pytest.mark.parametrize("name, key_types, row_count", [
        ("phi", (float, int, float, str), lambda r: r.cells.size),
        ("onset", (float, float, str), lambda r: r.onsets.size),
        ("overlap", (float, int, str),
         lambda r: np.count_nonzero(~np.isnan(r.overlaps))),
    ], ids=["phi", "onset", "overlap"])
    def test_rows_sorted_canonically(self, unordered_run, name, key_types,
                                     row_count):
        # every simulate table lists its rows by t, then m, then delta by
        # value, then protocol by name, one row per entry it writes
        result, out = unordered_run
        lines = (out / f"{name}.csv").read_text(encoding="utf-8")
        keys = [tuple(parse(field) for parse, field in
                      zip(key_types, line.split(",")))
                for line in lines.splitlines()[1:]]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys) == row_count(result)

    def test_phi_iso_monotone_in_m(self):
        iso = run_sweep(small_config()).cells["phi_iso"]
        assert not np.isnan(iso).any()
        assert (np.diff(iso, axis=1) >= -1e-12).all()

    def test_onset_invariants(self):
        cfg = small_config()
        res = run_sweep(cfg)
        for traj in res.trajectories:
            for p in traj.onsets:
                if p["m_star"] == 0:
                    assert np.isnan(p[["r", "r_eff", "eta", "fi",
                                       "fi_eff"]].tolist()).all()
                    continue
                assert p["m_star"] in cfg.m_grid
                # the upper bound may honestly sit beyond the m grid;
                # the lower bound exists whenever the onset does
                assert p["m_star_lo"] in cfg.m_grid
                assert p["m_star_lo"] <= p["m_star"]
                if p["m_star_hi"] != 0:
                    assert p["m_star"] <= p["m_star_hi"]
                assert abs(p["r"] * p["m_star"] - cfg.n_sites) < 1e-9
                assert abs(p["fi"] - math.log2(p["r"])) < 1e-12
                assert p["r_eff"] <= p["r"] + 1e-12
                assert abs(p["fi_eff"] - math.log2(p["r_eff"])) < 1e-12

    def test_adequacy_flags_monotone_in_time(self):
        # model property behind the onset logic: with couplings and the
        # fragment fixed, chi grows with t, so a fragment adequate at
        # some t stays adequate at every later t
        cfg = small_config()
        lam_seed = derive_cell_seed(cfg.master_seed,
                                    purpose=PURPOSE_COUPLINGS)
        lam = CouplingSet.exponential(cfg.n_sites, cfg.coupling_rate,
                                      cfg.g, lam_seed)
        grid = build_time_grid(TimeGridSpec(0.01, 1.0, 6.0, 40, 60))
        entropy = binary_entropy(cfg.p0)
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = int(rng.integers(1, cfg.n_sites + 1))
            members = np.sort(rng.choice(cfg.n_sites, size=m,
                                         replace=False))
            s = float(lam.couplings[members].sum())
            chi = holevo_biased(-(cfg.g ** 2) * grid ** 2 * s, cfg.p0)
            for delta in cfg.deltas:
                tol = Tolerance.for_entropy(delta, entropy)
                flags = chi >= tol.threshold
                assert np.all(np.diff(flags.astype(int)) >= 0)

    def test_one_set_family_leaves_onset_uncorrected(self):
        # at m = N every random fragment is the whole environment, so the
        # sampled pairs measure eta = 1; the onset then corrects nothing,
        # as random and disjoint families agree there
        cfg = RunConfig(n_sites=10, n_fragments=100,
                        deltas=(0.01, 0.05, 0.1),
                        time_grid=TimeGridSpec(n_dense=30, n_coarse=10),
                        bootstrap_replicates=20, overlap_pairs=20,
                        master_seed=0)
        res = run_sweep(cfg)
        assert np.all(res.overlaps[:, cfg.m_grid.index(10)] == 1.0)
        at_n = res.onsets[res.onsets["m_star"] == 10]
        assert at_n.size
        assert np.all(at_n["eta"] == 0.0)
        assert np.all((at_n["r_eff"] == at_n["r"]) & (at_n["r"] == 1.0))
        assert np.all((at_n["fi_eff"] == at_n["fi"]) & (at_n["fi"] == 0.0))

    def test_single_fragment_families_have_no_overlap(self, tmp_path):
        # one random fragment per family, and one disjoint block of 7 or
        # 12 sites in N = 12: no pair to estimate from, so the array holds
        # NaN, overlap.csv has no row and the onset corrects nothing
        cfg = RunConfig(n_sites=12, protocols=("random", "disjoint"),
                        n_fragments=1, m_grid=(1, 2, 4, 6, 7, 12),
                        time_grid=TimeGridSpec(n_dense=4, n_coarse=3),
                        bootstrap_replicates=20, overlap_pairs=10,
                        master_seed=3)
        res = run_sweep(cfg)
        assert np.isnan(res.overlaps[..., 0]).all()
        assert np.isnan(res.overlaps[:, 4:, 1]).all()
        assert not np.isnan(res.overlaps[:, :4, 1]).any()
        header, *rows = write_tables(res, tmp_path)["overlap"].read_text(
            ).splitlines()
        assert header == "t,m,protocol,eta,pairs"
        assert len(rows) == 7 * 4 == res.time_grid.size * 4
        assert {tuple(r.split(",")[1:3]) for r in rows} == {
            (m, "disjoint") for m in ("1", "2", "4", "6")}
        random = res.onsets[..., 0]
        onsets = random[random["m_star"] > 0]
        assert onsets.size
        assert np.all(onsets["eta"] == 0.0)
        assert np.all(onsets["r_eff"] == onsets["r"])

    def test_overlap_vanishes_for_disjoint(self):
        res = run_sweep(small_config(protocols=("random", "disjoint")))
        # NaN marks a family of one fragment (disjoint blocks of m > 6)
        measured = ~np.isnan(res.overlaps)
        assert measured[..., 0].any() and measured[..., 1].any()
        eta = res.overlaps[measured]
        assert np.all((0.0 <= eta) & (eta <= 1.0))
        assert np.all(res.overlaps[..., 1][measured[..., 1]] == 0.0)


class TestChiBlocks:
    """The sweep takes chi over blocks of consecutive families."""

    @staticmethod
    def _config():
        # N = 16: exhaustive families of C(16, 7..9) > _CHI_BLOCK fragments
        # go alone, random families of 3000 pair up, and disjoint ones of
        # 1..16 blocks share a block with their neighbours
        return RunConfig(n_sites=16, n_fragments=3000,
                         m_grid=tuple(range(1, 17)),
                         protocols=("random", "disjoint", "exhaustive"),
                         time_grid=TimeGridSpec(n_dense=2, n_coarse=1),
                         bootstrap_replicates=20, overlap_pairs=20,
                         master_seed=8)

    @staticmethod
    def _record_holevo(monkeypatch):
        calls = []
        real = qdfi.sweep.holevo_biased

        def recorded(log_c, p0):
            out = real(log_c, p0)
            calls.append(out)
            return out

        monkeypatch.setattr(qdfi.sweep, "holevo_biased", recorded)
        return calls

    def test_block_chi_equals_cell_chi_values(self, monkeypatch):
        cfg = self._config()
        grid = build_time_grid(cfg.time_grid)
        calls = self._record_holevo(monkeypatch)
        for protocol in cfg.protocols:
            for t_index in range(grid.size):
                calls.clear()
                qdfi.sweep._compute_time_point(cfg, protocol, t_index)
                blocks = np.concatenate(calls)
                cells = np.concatenate([
                    cell_chi_values(cfg, t_index, m_index, protocol)
                    for m_index in range(len(cfg.m_grid))])
                assert blocks.tobytes() == cells.tobytes(), (protocol,
                                                             t_index)

    def test_blocks_are_bounded_and_count_every_fragment(self, monkeypatch):
        cfg = self._config()
        calls = self._record_holevo(monkeypatch)
        result = run_sweep(cfg)
        sizes = [chi.size for chi in calls]
        family_sizes = {cfg.n_fragments}
        family_sizes.update(min(16 // m, 400) for m in cfg.m_grid)
        family_sizes.update(math.comb(16, m) for m in cfg.m_grid)
        for size in sizes:
            assert (size <= qdfi.sweep._CHI_BLOCK
                    or size in family_sizes), size
        assert max(sizes) > qdfi.sweep._CHI_BLOCK
        # some blocks hold several families: fewer calls than cells
        n_cells = (len(cfg.protocols) * result.time_grid.size
                   * len(cfg.m_grid))
        assert len(sizes) < n_cells
        assert sum(sizes) == result.stats.holevo_evaluations

    def test_time_point_memory_is_bounded(self):
        # the large-n150k bench shape at the time point whose bootstrap
        # does the most work; holding every family's index block instead
        # of its coupling sums would take about 66 MB
        cfg = RunConfig(n_sites=150_000, n_fragments=1000,
                        deltas=(0.0025, 0.005, 0.01, 0.02, 0.05), theta=0.5,
                        m_grid=tuple(range(1, 129)),
                        time_grid=TimeGridSpec(n_dense=10, n_coarse=4),
                        master_seed=29)
        # the run's couplings and grid are drawn before tracing starts, as
        # a run draws them once for all its units
        qdfi.sweep._run_inputs(cfg)
        tracemalloc.start()
        try:
            qdfi.sweep._compute_time_point(cfg, "random", 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    def test_time_point_holds_one_block_of_sums(self):
        # the largest family's index block, 4000 x 64 int64, is drawn
        # while the sums of the block before it wait; keeping the sums of
        # every family of the time point instead reads about 3 blocks
        cfg = RunConfig(n_sites=20_000, n_fragments=4000, deltas=(0.05,),
                        m_grid=tuple(range(1, 65)),
                        time_grid=TimeGridSpec(n_dense=2, n_coarse=1),
                        bootstrap_replicates=20, master_seed=0)
        qdfi.sweep._run_inputs(cfg)
        index_block = cfg.n_fragments * cfg.m_grid[-1] * 8
        tracemalloc.start()
        try:
            qdfi.sweep._compute_time_point(cfg, "random", 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * index_block, (
            f"peak {peak / index_block:.2f} index blocks")


class TestDeterminism:
    def test_rerun_identical(self):
        cfg = small_config()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert np.array_equal(a.cells, b.cells)
        assert same_onsets(a.onsets, b.onsets)
        assert np.array_equal(a.overlaps, b.overlaps, equal_nan=True)

    def test_time_grid_is_read_only(self, tmp_path):
        # build_time_grid returns the grid read-only: every unit of a run
        # reads the one memoized grid, and so does each trajectory read
        # back from onset.csv
        cfg = small_config()
        result = run_sweep(cfg)
        write_tables(result, tmp_path)
        for grid in (build_time_grid(cfg.time_grid), result.time_grid,
                     *(traj.t for traj in read_onset_table(tmp_path, cfg))):
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 0.5

    def test_interleaved_configs_keep_their_own_couplings(self):
        # the memo of couplings and grid keys on the whole config: B
        # differs from A only in the seed the couplings derive from
        a = small_config()
        b = small_config(master_seed=a.master_seed + 1)
        first, other, again = run_sweep(a), run_sweep(b), run_sweep(a)
        assert np.array_equal(again.cells, first.cells)
        # B run after A gives what B gives from an empty memo
        qdfi.sweep._run_inputs.cache_clear()
        assert np.array_equal(other.cells, run_sweep(b).cells)
        assert not np.array_equal(other.cells, first.cells)

    def test_thread_count_invisible(self):
        cfg = small_config(protocols=("random", "disjoint"))
        serial = run_sweep(cfg, threads=1)
        parallel = run_sweep(cfg, threads=3)
        assert np.array_equal(serial.cells, parallel.cells)
        assert same_onsets(serial.onsets, parallel.onsets)
        assert np.array_equal(serial.overlaps, parallel.overlaps,
                              equal_nan=True)

    def test_pool_never_exceeds_the_task_count(self, monkeypatch):
        # a recorder stands in for the process pool and runs the tasks in
        # this process, so no worker process is ever started
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_sweep imports the pool class from concurrent.futures when it
        # starts a pool, so the recorder replaces it there
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        # one protocol on the smallest valid time grid: three tasks
        cfg = small_config(time_grid=TimeGridSpec(n_dense=2, n_coarse=1))
        pooled = run_sweep(cfg, threads=64)
        assert seen == [3]
        assert np.array_equal(pooled.cells, run_sweep(cfg).cells)

    def test_one_thread_never_imports_the_process_pool(self, tmp_path):
        # a fresh interpreter, since this one may have loaded the pool
        cfg = tmp_path / "small.cfg"
        cfg.write_text("N = 12\nn_fragments = 100\nm_grid = 1, 2, 3, 4\n"
                       "n_dense = 4\nn_coarse = 3\nbootstrap_B = 50\n"
                       "overlap_pairs = 20\n", encoding="utf-8")
        run, ana = tmp_path / "run", tmp_path / "ana"
        script = (
            "import sys\n"
            "from qdfi.cli import main\n"
            f"assert main(['simulate', '--config', {str(cfg)!r}, "
            f"'--out', {str(run)!r}, '--threads', '1']) == 0\n"
            f"assert main(['analyze', '--in', {str(run)!r}, "
            f"'--out', {str(ana)!r}]) == 0\n"
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(qdfi.sweep.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_master_seed_matters(self):
        a = run_sweep(small_config(master_seed=1))
        b = run_sweep(small_config(master_seed=2))
        assert not np.array_equal(a.cells, b.cells)

    def test_bootstrap_runs_for_every_onset_group(self, monkeypatch):
        # n_fragments x len(m_grid) = 1.04e6 flags, past the former 10^6
        # budget that skipped the bootstrap
        calls = []
        real = qdfi.sweep._bootstrap_counts

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(qdfi.sweep, "_bootstrap_counts", counted)
        cfg = small_config(n_fragments=130_000, deltas=(0.01, 0.1),
                           protocols=("random", "disjoint"),
                           time_grid=TimeGridSpec(n_dense=2, n_coarse=1),
                           bootstrap_replicates=20)
        run_sweep(cfg)
        assert len(calls) == 3 * len(cfg.deltas) * len(cfg.protocols)

    def test_bootstrap_level_follows_alpha(self, monkeypatch):
        # the combined m* interval keeps the tighter of two intervals, so
        # both must be taken at the config's level
        levels = []
        real = qdfi.sweep._bootstrap_counts

        def spied(m_values, k, n, theta, alpha, n_replicates, seed):
            levels.append(alpha)
            return real(m_values, k, n, theta, alpha, n_replicates, seed)

        monkeypatch.setattr(qdfi.sweep, "_bootstrap_counts", spied)
        cfg = small_config(alpha=0.01,
                           time_grid=TimeGridSpec(n_dense=2, n_coarse=1))
        run_sweep(cfg)
        assert levels == [0.01] * (3 * len(cfg.deltas))


class TestOracleReport:
    def test_small_environment_passes(self):
        cfg = RunConfig(n_sites=10, m_grid=tuple(range(1, 11)),
                        n_fragments=600,
                        time_grid=TimeGridSpec(n_dense=6, n_coarse=6),
                        bootstrap_replicates=50, overlap_pairs=20,
                        master_seed=2)
        report = oracle_report(cfg)
        assert report.passed
        assert report.fraction_within >= 0.98
        assert report.max_abs_deviation < 0.2

    def test_cells_are_the_sweeps_cells(self):
        # each oracle cell is the random cell simulate writes at the 99%
        # band, and its exact fraction the exhaustive cell's p_hat; the
        # oracle runs the count stage only, so its phi_iso is NaN
        cfg = RunConfig(n_sites=8, m_grid=(1, 2, 4, 8), n_fragments=200,
                        deltas=(0.05, 0.2), protocols=("random", "exhaustive"),
                        alpha=qdfi.sweep.ORACLE_BAND_ALPHA,
                        time_grid=TimeGridSpec(n_dense=4, n_coarse=4),
                        bootstrap_replicates=20, overlap_pairs=10,
                        master_seed=11)
        res = run_sweep(cfg)
        report = oracle_report(replace(cfg, protocols=("disjoint",),
                                       alpha=0.2))
        assert report.sampled.shape == report.exact.shape == (
            3, len(cfg.m_grid), len(cfg.deltas))
        assert len(set(report.times.tolist())) == 3
        t_indices = np.searchsorted(res.time_grid, report.times)
        assert np.array_equal(res.time_grid[t_indices], report.times)
        counts = ["n", "k", "ci_low", "ci_high"]
        assert np.array_equal(report.sampled[counts],
                              res.cells[t_indices, ..., 0][counts])
        assert np.array_equal(report.exact[counts],
                              res.cells[t_indices, ..., 1][counts])
        for table in (report.sampled, report.exact):
            assert np.isnan(table["phi_iso"]).all()

    def test_runs_no_onset_stage(self, monkeypatch):
        cfg = RunConfig(n_sites=8, m_grid=(1, 2, 4, 8), n_fragments=200,
                        deltas=(0.05, 0.2),
                        time_grid=TimeGridSpec(n_dense=4, n_coarse=4),
                        bootstrap_replicates=20, overlap_pairs=10,
                        master_seed=11)
        want = oracle_report(cfg)

        def broken(*args, **kwargs):
            raise AssertionError("the oracle ran the onset stage")

        for name in ("isotonic_fit", "onset_ci_inversion",
                     "_bootstrap_counts", "combine_onset_ci",
                     "redundancy_fi"):
            monkeypatch.setattr(qdfi.sweep, name, broken)
        got = oracle_report(cfg)
        assert np.array_equal(got.times, want.times)
        for table in ("sampled", "exact"):
            assert (getattr(got, table).tobytes()
                    == getattr(want, table).tobytes())
        assert ((got.max_abs_deviation, got.fraction_within, got.passed)
                == (want.max_abs_deviation, want.fraction_within,
                    want.passed))

    def test_unenumerable_rejected(self):
        cfg = RunConfig(n_sites=60, m_grid=(30,), n_fragments=10,
                        time_grid=TimeGridSpec(n_dense=2, n_coarse=1),
                        bootstrap_replicates=1, overlap_pairs=1)
        with pytest.raises(ConfigError):
            oracle_report(cfg)


class TestCellErrors:
    def _config(self):
        return small_config(m_grid=(1, 2, 3),
                            time_grid=TimeGridSpec(n_dense=2, n_coarse=1))

    def test_chi_failure_names_every_cell(self, monkeypatch):
        def broken(*args, **kwargs):
            raise FloatingPointError("chi broke")

        monkeypatch.setattr(qdfi.sweep, "holevo_biased", broken)
        cfg = self._config()
        t0 = float(build_time_grid(cfg.time_grid)[0])
        with pytest.raises(SweepCellError) as err:
            run_sweep(cfg)
        message = str(err.value)
        for m in cfg.m_grid:
            assert (f"(t={t0}, m={m}, random): FloatingPointError: "
                    f"chi broke") in message
        assert isinstance(err.value.__cause__, FloatingPointError)

    def test_cell_failure_names_only_its_cell(self, monkeypatch):
        real = qdfi.sweep.adequacy_cell
        cfg = self._config()
        calls = []

        def broken_at_m2(*args):
            # a unit counts its cells m by m, one call per delta, so the
            # m = 2 family's first call follows the m = 1 family's calls
            calls.append(args)
            if len(calls) == len(cfg.deltas) + 1:
                raise ValueError("no cell")
            return real(*args)

        monkeypatch.setattr(qdfi.sweep, "adequacy_cell", broken_at_m2)
        with pytest.raises(SweepCellError) as err:
            run_sweep(cfg)
        message = str(err.value)
        assert message.count("ValueError: no cell") == 1
        assert "m=2, random" in message
        assert "m=1," not in message and "m=3," not in message

    @pytest.mark.parametrize("name", ["sample_random_fragments",
                                      "estimate_overlap_eta"])
    def test_family_failure_names_only_its_cell(self, monkeypatch, name):
        real = getattr(qdfi.sweep, name)
        real_fit = qdfi.sweep.isotonic_fit
        fits = []

        def broken_at_m2(*args):
            m = args[1] if name == "sample_random_fragments" else args[0].m
            if m == 2:
                raise ValueError(f"{name} broke")
            return real(*args)

        def fit(*args):
            fits.append(args)
            return real_fit(*args)

        monkeypatch.setattr(qdfi.sweep, name, broken_at_m2)
        monkeypatch.setattr(qdfi.sweep, "isotonic_fit", fit)
        cfg = self._config()
        t0 = float(build_time_grid(cfg.time_grid)[0])
        with pytest.raises(SweepCellError) as err:
            run_sweep(cfg)
        message = str(err.value)
        assert message.count(f"{name} broke") == 1
        assert (f"(t={t0}, m=2, random): ValueError: {name} broke"
                in message)
        assert "m=1," not in message and "m=3," not in message
        assert "delta=" not in message and not fits  # no onset computed
        assert isinstance(err.value.__cause__, ValueError)

    def test_family_failure_stops_its_unit(self, monkeypatch):
        real = qdfi.sweep.sample_random_fragments
        drawn = []

        def broken_at_m2(n_sites, m, *args):
            drawn.append(m)
            if m == 2:
                raise ValueError("no family")
            return real(n_sites, m, *args)

        monkeypatch.setattr(qdfi.sweep, "sample_random_fragments",
                            broken_at_m2)
        with pytest.raises(SweepCellError, match="m=2, random"):
            run_sweep(self._config())
        # the unit raises at its first failed family: no m = 3 draw follows
        assert drawn == [1, 2]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ["isotonic_fit", "_bootstrap_counts"])
    def test_onset_failure_names_its_first_delta(self, monkeypatch, tmp_path,
                                                 name, threads):
        real_stage = qdfi.sweep._onset_stage
        unit = {}
        log = tmp_path / "calls"

        def onset_stage(config, protocol, t_index, *args):
            unit["t_index"] = t_index
            return real_stage(config, protocol, t_index, *args)

        def broken(*args, **kwargs):
            # a file, as a pool worker's calls are made in another process
            with open(log, "a") as out:
                out.write(f"{unit['t_index']}\n")
            raise ValueError(f"{name} broke")

        monkeypatch.setattr(qdfi.sweep, "_onset_stage", onset_stage)
        monkeypatch.setattr(qdfi.sweep, name, broken)
        cfg = self._config()
        t0 = float(build_time_grid(cfg.time_grid)[0])
        with pytest.raises(SweepCellError) as err:
            run_sweep(cfg, threads=threads)
        message = str(err.value)
        assert message.count(f"{name} broke") == 1
        assert (f"(t={t0}, delta={cfg.deltas[0]}, random): ValueError: "
                f"{name} broke") in message
        assert not any(f"delta={delta}," in message
                       for delta in cfg.deltas[1:])
        # the unit at t0 stopped at its first delta; a pool may have run
        # other units, each of which stopped at its own first delta
        assert log.read_text().split().count("0") == 1
        cause = err.value.__cause__
        if threads == 1:
            assert isinstance(cause, ValueError)
        else:  # a pool re-raises with the worker's traceback as the cause
            assert f"ValueError: {name} broke" in str(cause)


class TestOnsetStage:
    """The onset stage on a hand-built count table, with no sampling."""

    M_GRID = (1, 2, 4, 8)

    def _onsets(self, k, etas=(math.nan,) * 4):
        cfg = RunConfig(n_sites=100, m_grid=self.M_GRID, theta=0.5,
                        deltas=(0.05,),
                        time_grid=TimeGridSpec(n_dense=2, n_coarse=1),
                        bootstrap_replicates=200)
        cells = np.empty((len(self.M_GRID), 1), dtype=CELL_DTYPE)
        for m_index, k_m in enumerate(k):
            cells[m_index, 0] = (10, k_m, *wilson_interval(k_m, 10, cfg.alpha),
                                 math.nan)
        onsets = qdfi.sweep._onset_stage(cfg, "random", 0, cells,
                                         np.asarray(etas, dtype=float))
        assert onsets.shape == (1,)
        return cells[:, 0], onsets[0]

    def test_onset_of_a_pooled_table(self):
        cells, onset = self._onsets((0, 6, 4, 10))
        # 6/10 and 4/10 pool to 1/2, which reaches theta = 1/2 at m = 2
        assert cells["phi_iso"].tolist() == [0.0, 0.5, 0.5, 1.0]
        assert onset["m_star"] == 2
        assert 0 < onset["m_star_lo"] <= 2 <= onset["m_star_hi"]
        assert onset["r"] == 50.0 and onset["fi"] == math.log2(50.0)
        # NaN etas: no correction
        assert onset["eta"] == 0.0 and onset["r_eff"] == 50.0

    def test_eta_at_the_onset_corrects_r(self):
        _, onset = self._onsets((0, 6, 4, 10), (math.nan, 0.1, 0.2, 0.3))
        assert onset["eta"] == 0.1
        assert onset["r_eff"] == redundancy_fi(100, 2, 0.1).r_eff
        assert onset["fi_eff"] == redundancy_fi(100, 2, 0.1).fi_eff

    @pytest.mark.parametrize("eta", [1.0, math.nan])
    def test_eta_of_one_or_nan_leaves_onset_uncorrected(self, eta):
        _, onset = self._onsets((0, 6, 4, 10), (0.3, eta, 0.2, 0.3))
        assert onset["eta"] == 0.0
        assert (onset["r_eff"], onset["fi_eff"]) == (50.0, math.log2(50.0))

    def test_no_adequate_fragment_gives_an_absent_onset(self):
        cells, onset = self._onsets((0, 0, 0, 0))
        assert cells["phi_iso"].tolist() == [0.0] * 4
        assert same_onsets(np.array([onset]), absent_onsets(1))


class TestCellChiValuesCoordinates:
    """cell_chi_values names a coordinate the config does not have."""

    @pytest.mark.parametrize("t_index, m_index, protocol, named", [
        (3, 0, "random", "t_index 3"),
        (0, 8, "random", "m_index 8"),
        (-1, 0, "random", "t_index -1"),
        (0, -1, "random", "m_index -1"),
        (0, 0, "bogus", "protocol 'bogus'"),
    ], ids=["t-off-grid", "m-off-grid", "t-negative", "m-negative",
            "unknown-protocol"])
    def test_bad_coordinate_named(self, t_index, m_index, protocol, named):
        cfg = small_config(time_grid=TimeGridSpec(n_dense=2, n_coarse=1))
        with pytest.raises(ConfigError, match=named):
            cell_chi_values(cfg, t_index, m_index, protocol)


def absent_onsets(shape):
    """An ONSET_DTYPE array of absent onsets."""
    onsets = np.empty(shape, dtype=ONSET_DTYPE)
    onsets[...] = ABSENT
    return onsets


def onset_column(*points):
    """An ONSET_DTYPE column, one row per (m_star, m_star_lo, m_star_hi,
    fi) with 0 for an absent m and NaN for an absent fi; the other reals
    are NaN."""
    column = absent_onsets(len(points))
    for name, values in zip(("m_star", "m_star_lo", "m_star_hi", "fi"),
                            zip(*points)):
        column[name] = values
    return column


def reference_fi_soft_violations(trajectories):
    """The count as the sweep took it over one record per onset, each
    trajectory a list of records with None for an absent value."""
    def width(p):
        if p.m_star_lo is None or p.m_star_hi is None:
            return None
        return math.log2(p.m_star_hi / p.m_star_lo)

    violations = 0
    for points in trajectories:
        present = [p for p in points if p.fi is not None]
        for a, b in zip(present, present[1:]):
            wa, wb = width(a), width(b)
            if wa is None or wb is None:
                continue
            if b.fi < a.fi - (wa + wb):
                violations += 1
    return violations


def onset_records(column):
    """An ONSET_DTYPE column as the reference's records."""
    return [SimpleNamespace(m_star_lo=lo or None, m_star_hi=hi or None,
                            fi=None if math.isnan(fi) else fi)
            for lo, hi, fi in column[["m_star_lo", "m_star_hi",
                                      "fi"]].tolist()]


@st.composite
def onset_arrays(draw):
    """(t, delta, protocol) onset arrays of up to 3 x 2 trajectories over
    up to 8 times: absent and present onsets, missing bounds, and FI steps
    that land on the two points' width sum, one ulp either side of it, or
    anywhere."""
    # (m_star_lo, m_star_hi) pairs, 0 for a missing bound; on an AVX-512
    # host np.log2 is one ulp off math.log2 at 49 / 44 and 107 / 106
    bounds = [(0, 0), (0, 8), (2, 0), (4, 4), (2, 3), (3, 8), (6, 16),
              (44, 49), (106, 107)]
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 3)),
             draw(st.integers(1, 2)))
    onsets = absent_onsets(shape)
    anywhere = st.floats(-30.0, 30.0)
    for column in np.ndindex(*shape[1:]):
        last = None   # fi and width of the last present onset
        for t in range(shape[0]):
            if not draw(st.booleans(), label="present"):
                continue
            lo, hi = draw(st.sampled_from(bounds), label="bounds")
            width = math.log2(hi / lo) if lo and hi else None
            fi = anywhere
            if last is not None and None not in (last[1], width):
                edge = last[0] - (last[1] + width)
                fi = st.sampled_from([np.nextafter(edge, -np.inf), edge,
                                      np.nextafter(edge, np.inf)]) | anywhere
            fi = float(draw(fi, label="fi"))
            onsets[(t,) + column] = (4, lo, hi, np.nan, np.nan, 0.0, fi,
                                     fi)
            last = (fi, width)
    return onsets


class TestFiSoftViolations:
    @staticmethod
    def _onsets(*points):
        """One trajectory at t = 1, 2, ... from (fi, m_star_lo, m_star_hi),
        its onset at m* = 4, as a (t, delta, protocol) array."""
        column = onset_column(*((4, lo, hi, fi) for fi, lo, hi in points))
        return column[:, None, None]

    def test_dip_wider_than_both_widths_counts(self):
        # each width is log2(20 / 10) = 1 bit, so a dip of 3 > 1 + 1 counts
        onsets = self._onsets((5.0, 10, 20), (2.0, 10, 20))
        assert qdfi.sweep._fi_soft_violations(onsets) == 1

    def test_dip_within_widths_is_noise(self):
        onsets = self._onsets((5.0, 10, 20), (3.5, 10, 20))
        assert qdfi.sweep._fi_soft_violations(onsets) == 0

    def test_missing_bound_is_skipped(self):
        onsets = self._onsets((5.0, 10, 20), (0.0, 0, 20))
        assert qdfi.sweep._fi_soft_violations(onsets) == 0

    def test_run_stats_report_the_count(self):
        result = run_sweep(small_config())
        assert result.stats.fi_soft_violations == (
            qdfi.sweep._fi_soft_violations(result.onsets))

    @given(onset_arrays())
    def test_counts_as_the_record_loop(self, onsets):
        trajectories = [onset_records(onsets[:, d_index, p_index])
                        for d_index in range(onsets.shape[1])
                        for p_index in range(onsets.shape[2])]
        assert qdfi.sweep._fi_soft_violations(onsets) == (
            reference_fi_soft_violations(trajectories))


class TestTrajectoryRecord:
    def test_times_must_increase(self):
        with pytest.raises(ConfigError):
            RedundancyTrajectory(delta=0.05, protocol="random",
                                 t=np.array([2.0, 1.0]),
                                 onsets=absent_onsets(2))


class TestPerCellRecords:
    @pytest.mark.parametrize("record", [
        AdequacyCell(n=10, k=4, ci_low=0.1, ci_high=0.7),
    ], ids=lambda r: type(r).__name__)
    def test_slotted_and_pickles(self, record):
        # a run builds one of these per cell, so none carries a
        # per-instance dict, and a cell still pickles through the slotted
        # dataclass state
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record


class TestRunTable:
    # random and disjoint at N = 2000 over m = 1..64, five deltas and 12
    # times: 7,680 cells
    TABLE_CONFIG = dict(n_sites=2000, protocols=("random", "disjoint"),
                        deltas=(0.01, 0.02, 0.05, 0.1, 0.2),
                        m_grid=tuple(range(1, 65)),
                        time_grid=TimeGridSpec(n_dense=8, n_coarse=4),
                        n_fragments=40, bootstrap_replicates=20,
                        overlap_pairs=10, master_seed=4)

    def test_result_memory_per_cell(self):
        # the result keeps its cells as one table of five 8-byte columns,
        # an 8-byte overlap per (t, m, protocol) and one row of eight
        # 8-byte fields per onset; a slotted record per cell kept about
        # 215 bytes a cell, one overlap record per (t, m, protocol) with
        # its sort key about 78, and one onset record per (t, delta,
        # protocol) with the trajectories about 50
        cfg = RunConfig(**self.TABLE_CONFIG)
        # a first run does the imports and fills the caches that any run
        # would, so the traced run counts only what its result holds
        run_sweep(small_config(protocols=("random", "disjoint")))
        # and what the result holds is what deleting it frees, not the
        # leftovers of the run that it does not reference
        tracemalloc.start()
        try:
            result = run_sweep(cfg)
            cells = result.cells.size
            alive, _ = tracemalloc.get_traced_memory()
            del result
            gc.collect()
            kept = alive - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cells == 7680
        assert kept / cells < 44.5, f"{kept / cells:.1f} B per cell"

    def test_table_arrays_are_read_only(self):
        result = run_sweep(small_config())
        assert not result.time_grid.flags.writeable
        assert not result.cells.flags.writeable
        assert not result.overlaps.flags.writeable
        assert not result.onsets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            result.cells["k"][0, 0, 0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            result.overlaps[0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            result.onsets["m_star"][0, 0, 0] = 1
        for traj in result.trajectories:
            assert not traj.t.flags.writeable
            assert not traj.onsets.flags.writeable
            assert np.shares_memory(traj.onsets, result.onsets)

    def test_trajectories_follow_config_order(self):
        # one trajectory per (protocol, delta), protocols then deltas as
        # the config lists them, each the onset column at its indices
        cfg = small_config(deltas=(0.1, 0.01),
                           protocols=("random", "disjoint"))
        result = run_sweep(cfg)
        trajs = result.trajectories
        assert [(t.protocol, t.delta) for t in trajs] == [
            ("random", 0.1), ("random", 0.01), ("disjoint", 0.1),
            ("disjoint", 0.01)]
        for i, traj in enumerate(trajs):
            p_index, d_index = divmod(i, len(cfg.deltas))
            assert traj.t is result.time_grid
            assert same_onsets(traj.onsets,
                               result.onsets[:, d_index, p_index])

    def test_read_back_gives_the_runs_trajectories(self, tmp_path):
        # one builder makes both: the same container, (protocol, delta)
        # order and onsets, from the run and from its onset.csv
        cfg = small_config(deltas=(0.1, 0.01),
                           protocols=("random", "disjoint"))
        result = run_sweep(cfg)
        write_tables(result, tmp_path)
        ran, read = result.trajectories, read_onset_table(tmp_path, cfg)
        assert type(read) is type(ran)
        assert [(t.protocol, t.delta) for t in read] == [
            (t.protocol, t.delta) for t in ran]
        for a, b in zip(read, ran):
            assert same_onsets(a.onsets, b.onsets)

    def test_pooled_run_builds_no_cell_in_the_parent(self, tmp_path,
                                                     monkeypatch):
        # workers build each cell once; the parent gathers, counts and
        # writes the cells from the table alone
        parent = os.getpid()
        built = []
        check = AdequacyCell.__post_init__

        def counted(cell):
            if os.getpid() == parent:
                built.append(cell)
            check(cell)

        monkeypatch.setattr(AdequacyCell, "__post_init__", counted)
        cfg = small_config(protocols=("random", "disjoint"))
        result = run_sweep(cfg, threads=2)
        assert result.cells.size == 12 * 8 * 3 * 2
        write_tables(result, tmp_path)
        assert built == []


class TestOnsetCoverage:
    # random fragments at N = 2000: eight times, two deltas, m = 1..32
    CONFIG = dict(n_sites=2000, n_fragments=400, m_grid=tuple(range(1, 33)),
                  time_grid=TimeGridSpec(0.3, 1.0, 3.0, 4, 4), theta=0.9,
                  deltas=(0.01, 0.05), overlap_pairs=10, master_seed=0)
    TRUTH_FRAGMENTS = 100_000
    SEEDS = range(1, 11)

    def test_interval_covers_true_onset(self, monkeypatch):
        # the couplings stay pinned while the master seed, and with it
        # every fragment seed, varies: each seed reports one interval per
        # (t, delta) for the same environment
        cfg = RunConfig(**self.CONFIG)
        couplings, time_grid = qdfi.sweep._run_inputs(cfg)
        monkeypatch.setattr(qdfi.sweep, "_run_inputs",
                            lambda config: (couplings, time_grid))
        entropy = binary_entropy(cfg.p0)
        tols = [Tolerance.for_entropy(d, entropy) for d in cfg.deltas]
        # the true adequate fraction at (t, m, delta), from one large
        # family per m
        phi = np.empty((time_grid.size, len(cfg.m_grid), len(tols)))
        for m_index, m in enumerate(cfg.m_grid):
            family = sample_random_fragments(cfg.n_sites, m,
                                             self.TRUTH_FRAGMENTS,
                                             seed=10_000 + m)
            sums = qdfi.sweep._coupling_sums(couplings, family)
            for t_index, t in enumerate(time_grid.tolist()):
                flags = qdfi.sweep._adequacy(cfg, t, sums, tols)[1]
                phi[t_index, m_index] = [f.mean() for f in flags]
        # informative (t, delta): the true onset exists and no m has its
        # fraction within 4 standard errors of theta
        se = np.sqrt(phi * (1.0 - phi) / self.TRUTH_FRAGMENTS)
        clear = (np.abs(phi - cfg.theta) >= 4.0 * se).all(axis=1)
        crossed = phi >= cfg.theta
        informative = clear & crossed.any(axis=1)
        onset = np.asarray(cfg.m_grid)[crossed.argmax(axis=1)]

        covered = groups = 0
        for seed in self.SEEDS:
            run = replace(cfg, master_seed=seed)
            for t_index in range(time_grid.size):
                onsets = qdfi.sweep._compute_time_point(
                    run, "random", t_index).onsets
                for d_index, p in enumerate(onsets):
                    if not informative[t_index, d_index]:
                        continue
                    groups += 1
                    covered += bool(p["m_star_lo"] > 0
                                    and p["m_star_hi"] > 0
                                    and p["m_star_lo"]
                                    <= onset[t_index, d_index]
                                    <= p["m_star_hi"])
        assert groups >= len(self.SEEDS) * informative.size // 2
        assert covered >= 0.9 * groups, f"covered {covered} of {groups}"

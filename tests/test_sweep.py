"""Engine tests: seeds, time grid, sweep correctness, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

import qdfi.sweep
from qdfi import (ConfigError, CouplingSet, PointerEnsemble,
                  RedundancyTrajectory, RunConfig, SweepCellError,
                  TimeGridSpec, Tolerance, build_time_grid, cell_chi_values,
                  derive_cell_seed, enumerate_fragments, holevo_biased,
                  oracle_report, run_sweep)
from qdfi.sweep import PURPOSE_COUPLINGS


def small_config(**kw):
    base = dict(n_sites=12, n_fragments=200,
                m_grid=tuple(range(1, 9)),
                time_grid=TimeGridSpec(n_dense=6, n_coarse=6),
                bootstrap_replicates=100, overlap_pairs=40, master_seed=5)
    base.update(kw)
    return RunConfig(**base)


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
        assert RunConfig(n_sites=12, g=1e154).g == 1e154

    def test_rejects_coupling_rate_whose_reciprocal_overflows(self):
        # the couplings are drawn with scale 1 / coupling_rate, and every
        # run raised DomainError: couplings must be finite
        with pytest.raises(ConfigError, match=r"^coupling_rate must be "
                                              r"positive with a finite "
                                              r"reciprocal"):
            RunConfig(n_sites=12, coupling_rate=1e-310)
        assert RunConfig(n_sites=12, coupling_rate=1e-300).coupling_rate \
            == 1e-300

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
        entropy = PointerEnsemble(cfg.p0).entropy
        for cell in res.cells:
            sample = enumerate_fragments(4, cell.m)
            assert cell.n == math.comb(4, cell.m)
            sums = lam.couplings[sample.indices].sum(axis=1)
            chi = holevo_biased(-(cfg.g ** 2) * cell.t ** 2 * sums, cfg.p0)
            tol = Tolerance.for_entropy(cell.delta, entropy)
            exact = float(np.mean(chi >= tol.threshold))
            assert cell.p_hat == pytest.approx(exact, abs=1e-15)

    def test_cell_chi_values_reproduce_counts(self):
        cfg = small_config()
        res = run_sweep(cfg)
        grid = res.time_grid
        entropy = PointerEnsemble(cfg.p0).entropy
        t_index, m_index = 7, 3
        chi = cell_chi_values(cfg, res.couplings, grid, t_index, m_index,
                              "random")
        for delta in cfg.deltas:
            tol = Tolerance.for_entropy(delta, entropy)
            k = int(np.sum(chi >= tol.threshold))
            cell = next(c for c in res.cells
                        if c.t == grid[t_index] and c.m == cfg.m_grid[m_index]
                        and c.delta == delta and c.protocol == "random")
            assert cell.k == k

    def test_earliest_time_nothing_adequate(self):
        # at t = 0.01 with g = 0.5, rate = 1 every overlap is ~1 and no
        # fragment can clear a 0.95 bit threshold
        cfg = small_config(deltas=(0.01, 0.05))
        res = run_sweep(cfg)
        t0 = res.time_grid[0]
        for cell in res.cells:
            if cell.t == t0:
                assert cell.k == 0
        for traj in res.trajectories:
            assert traj.points[0].m_star is None


class TestSweepStructure:
    def test_work_conservation(self):
        cfg = small_config()
        res = run_sweep(cfg)
        n_t = res.time_grid.size
        assert len(res.cells) == n_t * len(cfg.m_grid) * len(cfg.deltas)
        assert len(res.trajectories) == len(cfg.deltas)
        # flags are shared across deltas, so chi evaluations count once
        # per (t, m) cell
        assert res.stats.holevo_evaluations == (n_t * len(cfg.m_grid)
                                                * cfg.n_fragments)

    def test_cells_sorted_canonically(self):
        res = run_sweep(small_config(protocols=("random", "disjoint")))
        keys = [(c.t, c.m, c.delta, c.protocol) for c in res.cells]
        assert keys == sorted(keys)

    def test_phi_iso_monotone_in_m(self):
        res = run_sweep(small_config())
        by_group = {}
        for c in res.cells:
            by_group.setdefault((c.t, c.delta, c.protocol), []).append(c)
        for cells in by_group.values():
            cells.sort(key=lambda c: c.m)
            iso = [c.phi_iso for c in cells]
            assert all(v is not None for v in iso)
            assert all(a <= b + 1e-12 for a, b in zip(iso, iso[1:]))

    def test_onset_invariants(self):
        cfg = small_config()
        res = run_sweep(cfg)
        for traj in res.trajectories:
            for p in traj.points:
                if p.m_star is None:
                    continue
                assert p.m_star in cfg.m_grid
                # the upper bound may honestly sit beyond the m grid;
                # the lower bound exists whenever the onset does
                assert p.m_star_lo is not None
                assert p.m_star_lo <= p.m_star
                if p.m_star_hi is not None:
                    assert p.m_star <= p.m_star_hi
                assert abs(p.r * p.m_star - cfg.n_sites) < 1e-9
                assert abs(p.fi - math.log2(p.r)) < 1e-12
                assert p.r_eff <= p.r + 1e-12
                assert abs(p.fi_eff - math.log2(p.r_eff)) < 1e-12

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
        entropy = PointerEnsemble(cfg.p0).entropy
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
        assert {o.eta for o in res.overlaps if o.m == 10} == {1.0}
        at_n = [p for traj in res.trajectories for p in traj.points
                if p.m_star == 10]
        assert at_n
        for p in at_n:
            assert p.eta == 0.0
            assert p.r_eff == p.r == 1.0
            assert p.fi_eff == p.fi == 0.0

    def test_overlap_vanishes_for_disjoint(self):
        res = run_sweep(small_config(protocols=("random", "disjoint")))
        protos = {o.protocol for o in res.overlaps}
        assert protos == {"random", "disjoint"}
        for o in res.overlaps:
            assert 0.0 <= o.eta <= 1.0
            if o.protocol == "disjoint":
                assert o.eta == 0.0


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
        couplings = cfg.couplings()
        grid = build_time_grid(cfg.time_grid)
        calls = self._record_holevo(monkeypatch)
        for protocol in cfg.protocols:
            for t_index in range(grid.size):
                calls.clear()
                qdfi.sweep._compute_time_point(cfg, couplings, grid,
                                               protocol, t_index)
                blocks = np.concatenate(calls)
                cells = np.concatenate([
                    cell_chi_values(cfg, couplings, grid, t_index, m_index,
                                    protocol)
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
        couplings = cfg.couplings()
        grid = build_time_grid(cfg.time_grid)
        tracemalloc.start()
        try:
            qdfi.sweep._compute_time_point(cfg, couplings, grid, "random", 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


class TestDeterminism:
    def test_rerun_identical(self):
        cfg = small_config()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a.cells == b.cells
        assert a.trajectories == b.trajectories
        assert a.overlaps == b.overlaps

    def test_thread_count_invisible(self):
        cfg = small_config(protocols=("random", "disjoint"))
        serial = run_sweep(cfg, threads=1)
        parallel = run_sweep(cfg, threads=3)
        assert serial.cells == parallel.cells
        assert serial.trajectories == parallel.trajectories
        assert serial.overlaps == parallel.overlaps

    def test_pool_never_exceeds_the_task_count(self, monkeypatch):
        # a recorder stands in for the process pool and runs the tasks in
        # this process, so no worker process is ever started
        seen = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(qdfi.sweep, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(qdfi.sweep, "_WORKER", {})
        # one protocol on the smallest valid time grid: three tasks
        cfg = small_config(time_grid=TimeGridSpec(n_dense=2, n_coarse=1))
        pooled = run_sweep(cfg, threads=64)
        assert seen == [3]
        assert pooled.cells == run_sweep(cfg).cells

    def test_master_seed_matters(self):
        a = run_sweep(small_config(master_seed=1))
        b = run_sweep(small_config(master_seed=2))
        assert a.cells != b.cells

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

        def broken_at_m2(flags, **kwargs):
            if kwargs["m"] == 2:
                raise ValueError("no cell")
            return real(flags, **kwargs)

        monkeypatch.setattr(qdfi.sweep, "adequacy_cell", broken_at_m2)
        with pytest.raises(SweepCellError) as err:
            run_sweep(self._config())
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

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ["isotonic_fit", "_bootstrap_counts"])
    def test_onset_failure_names_every_delta(self, monkeypatch, name,
                                             threads):
        def broken(*args, **kwargs):
            raise ValueError(f"{name} broke")

        monkeypatch.setattr(qdfi.sweep, name, broken)
        cfg = self._config()
        t0 = float(build_time_grid(cfg.time_grid)[0])
        with pytest.raises(SweepCellError) as err:
            run_sweep(cfg, threads=threads)
        message = str(err.value)
        for delta in cfg.deltas:
            assert (f"(t={t0}, delta={delta}, random): ValueError: "
                    f"{name} broke") in message
        assert message.count(f"{name} broke") == len(cfg.deltas)
        cause = err.value.__cause__
        if threads == 1:
            assert isinstance(cause, ValueError)
        else:  # a pool re-raises with the worker's traceback as the cause
            assert f"ValueError: {name} broke" in str(cause)


class TestFiSoftViolations:
    @staticmethod
    def _traj(*points):
        """Trajectory at t = 1, 2, ... from (fi, m_star_lo, m_star_hi)."""
        from qdfi import OnsetEstimate
        estimates = tuple(
            OnsetEstimate(t=float(t), delta=0.05, m_star=4, m_star_lo=lo,
                          m_star_hi=hi, r=None, r_eff=None, eta=0.0, fi=fi,
                          fi_eff=fi)
            for t, (fi, lo, hi) in enumerate(points, start=1))
        return RedundancyTrajectory(delta=0.05, protocol="random",
                                    points=estimates)

    def test_dip_wider_than_both_widths_counts(self):
        # each width is log2(20 / 10) = 1 bit, so a dip of 3 > 1 + 1 counts
        traj = self._traj((5.0, 10, 20), (2.0, 10, 20))
        assert qdfi.sweep._fi_soft_violations([traj]) == 1

    def test_dip_within_widths_is_noise(self):
        traj = self._traj((5.0, 10, 20), (3.5, 10, 20))
        assert qdfi.sweep._fi_soft_violations([traj]) == 0

    def test_missing_bound_is_skipped(self):
        traj = self._traj((5.0, 10, 20), (0.0, None, 20))
        assert qdfi.sweep._fi_soft_violations([traj]) == 0

    def test_run_stats_report_the_count(self):
        result = run_sweep(small_config())
        assert result.stats.fi_soft_violations == (
            qdfi.sweep._fi_soft_violations(result.trajectories))


class TestTrajectoryRecord:
    def test_times_must_increase(self):
        from qdfi import OnsetEstimate
        mk = lambda t: OnsetEstimate(t=t, delta=0.05, m_star=None,
                                     m_star_lo=None, m_star_hi=None, r=None,
                                     r_eff=None, eta=None, fi=None,
                                     fi_eff=None)
        with pytest.raises(ConfigError):
            RedundancyTrajectory(delta=0.05, protocol="random",
                                 points=(mk(2.0), mk(1.0)))

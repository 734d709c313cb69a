"""Config parsing, table writing, and command-line behavior.

CLI commands run in-process through main(argv) so exit codes and files
can be checked without spawning interpreters; the one subprocess test
lives in the acceptance suite.
"""

from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import qdfi.cli
from qdfi import (ConfigError, OnsetEstimate, RedundancyTrajectory, RunConfig,
                  RunStats, SweepResult, TimeGridSpec, parse_config_text,
                  read_metadata, read_onset_table, run_sweep,
                  serialize_config, write_tables)
from qdfi.cli import _parse_threads, main
from qdfi.sampling import PROTOCOLS
from qdfi.sweep import CONFIG_KEYS

FAST_CFG = """
# compact but real run
N = 12
deltas = 0.01, 0.05, 0.1
protocols = random, disjoint
n_fragments = 150
m_grid = 1, 2, 3, 4, 5, 6, 7, 8
n_dense = 6
n_coarse = 6
bootstrap_B = 100
overlap_pairs = 30
master_seed = 5
"""


def _open_unit(**kw):
    """Floats strictly inside (0, 1)."""
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, **kw)


@st.composite
def valid_configs(draw):
    """RunConfigs with every key drawn from its valid range."""
    # N <= 20 keeps every C(N, m) of an exhaustive run within
    # ENUMERATION_CAP: the largest, C(20, 10), is 184756
    n_sites = draw(st.integers(2, 20), label="N")
    m_grid = sorted(draw(st.sets(st.integers(1, n_sites), min_size=1),
                         label="m_grid"))
    protocols = draw(st.lists(st.sampled_from(PROTOCOLS), min_size=1,
                              max_size=3, unique=True), label="protocols")
    t_min, t_knee, t_max = draw(st.lists(
        st.floats(1e-6, 1e3), min_size=3, max_size=3, unique=True),
        label="times")
    positive = st.floats(1e-3, 1e3)
    return RunConfig(
        n_sites=n_sites, g=draw(positive, label="g"),
        coupling_rate=draw(positive, label="coupling_rate"),
        p0=draw(_open_unit(), label="p0"),
        deltas=draw(st.lists(st.floats(1e-4, 1.0, exclude_max=True),
                             min_size=1, max_size=4, unique=True),
                    label="deltas"),
        theta=draw(_open_unit(), label="theta"), protocols=protocols,
        n_fragments=draw(st.integers(1, 10 ** 6), label="n_fragments"),
        m_grid=m_grid,
        time_grid=TimeGridSpec(
            *sorted((t_min, t_knee, t_max)),
            n_dense=draw(st.integers(2, 200), label="n_dense"),
            n_coarse=draw(st.integers(1, 200), label="n_coarse")),
        alpha=draw(st.floats(2.0 ** -53, 1.0, exclude_min=True,
                             exclude_max=True), label="alpha"),
        bootstrap_replicates=draw(st.integers(1, 10 ** 6), label="B"),
        overlap_pairs=draw(st.integers(1, 10 ** 6), label="pairs"),
        master_seed=draw(st.integers(0, 2 ** 64 - 1), label="seed"))


@st.composite
def onset_estimates(draw, t, delta):
    """One onset at (t, delta): absent, or present with optional bounds."""
    if not draw(st.booleans(), label="present"):
        return OnsetEstimate(t=t, delta=delta, m_star=None, m_star_lo=None,
                             m_star_hi=None, r=None, r_eff=None, eta=None,
                             fi=None, fi_eff=None)
    size = st.integers(1, 10 ** 6)
    optional_size = st.none() | size
    real = st.floats(allow_nan=False, allow_infinity=False)
    return OnsetEstimate(
        t=t, delta=delta, m_star=draw(size), m_star_lo=draw(optional_size),
        m_star_hi=draw(optional_size), r=draw(real), r_eff=draw(real),
        eta=draw(real), fi=draw(real), fi_eff=draw(real))


def _result_of(config, trajectories=()):
    """A SweepResult holding only the given trajectories and no cells."""
    return SweepResult(config=config, couplings=None, time_grid=None,
                       cells=(), trajectories=tuple(trajectories),
                       overlaps=(), stats=RunStats(0, 0))


@pytest.fixture()
def fast_cfg_file(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG, encoding="utf-8")
    return path


@pytest.fixture()
def fast_run_dir(tmp_path, fast_cfg_file):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(fast_cfg_file),
                 "--out", str(out)]) == 0
    return out


class TestConfigParsing:
    def test_readme_table_lists_every_key(self):
        # the first column of README's config table, in the order of the
        # one key table that parses and serializes config files
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("\n## Config file\n", 1)[1].split("\n## ")[0]
        rows = [line for line in section.splitlines()
                if line.startswith("| ")][2:]   # past header and rule
        keys = [key for row in rows
                for key in row.split("|")[1].strip().split(", ")]
        assert keys == list(CONFIG_KEYS)

    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg.n_sites == 50
        assert cfg.g == 0.5
        assert cfg.coupling_rate == 1.0
        assert cfg.theta == 0.9
        assert cfg.n_fragments == 600
        assert cfg.bootstrap_replicates == 1000
        assert cfg.overlap_pairs == 200
        assert cfg.master_seed == 0
        assert cfg.deltas == (0.01, 0.05, 0.1)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\n\nN = 20  # trailing\n")
        assert cfg.n_sites == 20

    def test_negative_size_names_the_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("N = -3\n")
        assert "N" in str(err.value)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("N = 10\nwibble = 3\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("line", ["bootstrap_budget = 10",
                                      "enumeration_cap = 5"])
    def test_removed_keys_rejected_with_line(self, line):
        # the bootstrap always runs and the enumeration cap is a constant
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^line 2: unknown key "
                                              rf"'{key}'"):
            parse_config_text(f"N = 10\n{line}\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("N = 10\nN = 11\n")

    def test_malformed_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("g = fast\n")

    def test_round_trip(self):
        cfg = RunConfig(n_sites=33, g=0.35, coupling_rate=2.5, p0=0.3,
                        deltas=(0.02, 0.2), theta=0.55,
                        protocols=("disjoint", "random"),
                        n_fragments=123, m_grid=(1, 3, 9),
                        time_grid=TimeGridSpec(0.02, 0.9, 5.0, 7, 9),
                        alpha=0.1, bootstrap_replicates=77,
                        overlap_pairs=13, master_seed=99)
        # every field off its default, so no key can round-trip by luck
        default = RunConfig()
        for obj, ref in ((cfg, default), (cfg.time_grid, default.time_grid)):
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(ref, f.name), f.name
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert parse_config_text(serialize_config(cfg)) == cfg

    @given(valid_configs())
    def test_round_trip_generated(self, cfg):
        assert parse_config_text(serialize_config(cfg)) == cfg


class TestTableWriting:
    def test_header_only_phi_for_empty_cells(self, tmp_path):
        written = write_tables(_result_of(RunConfig()), tmp_path)
        lines = written["phi"].read_text().splitlines()
        assert lines == ["t,m,delta,protocol,n,k,phi_hat,phi_iso,"
                         "ci_low,ci_high"]

    def test_full_bundle_files(self, tmp_path):
        cfg = RunConfig(n_sites=12, n_fragments=100,
                        m_grid=tuple(range(1, 7)),
                        time_grid=TimeGridSpec(n_dense=5, n_coarse=5),
                        bootstrap_replicates=50, overlap_pairs=20)
        res = run_sweep(cfg)
        written = write_tables(res, tmp_path)
        assert set(written) == {"metadata", "phi", "onset", "overlap"}
        onset_lines = written["onset"].read_text().splitlines()
        assert onset_lines[0] == ("t,delta,protocol,theta,m_star,m_star_lo,"
                                  "m_star_hi,R,R_eff,eta,FI,FI_eff")
        # early rows have no onset: the optional fields stay empty
        first = onset_lines[1].split(",")
        assert first[4] == "" and first[7] == "" and first[10] == ""

    def test_rerun_byte_identical(self, tmp_path):
        cfg = RunConfig(n_sites=10, n_fragments=80,
                        m_grid=tuple(range(1, 6)),
                        time_grid=TimeGridSpec(n_dense=4, n_coarse=4),
                        bootstrap_replicates=40, overlap_pairs=10)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            write_tables(run_sweep(cfg), d)
        for name in ("run_metadata.txt", "phi.csv", "onset.csv",
                     "overlap.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_metadata_round_trip(self, tmp_path):
        cfg = RunConfig(n_sites=14, deltas=(0.03,), n_fragments=90,
                        m_grid=(1, 2, 4),
                        time_grid=TimeGridSpec(n_dense=3, n_coarse=3),
                        bootstrap_replicates=30, overlap_pairs=15,
                        master_seed=8)
        write_tables(run_sweep(cfg), tmp_path)
        assert read_metadata(tmp_path) == cfg

    def test_onset_table_round_trip(self, tmp_path):
        cfg = RunConfig(n_sites=14, n_fragments=90, m_grid=(1, 2, 4, 8),
                        time_grid=TimeGridSpec(n_dense=4, n_coarse=4),
                        bootstrap_replicates=30, overlap_pairs=15)
        res = run_sweep(cfg)
        write_tables(res, tmp_path)
        trajs = read_onset_table(tmp_path, cfg)
        assert len(trajs) == len(res.trajectories)
        for got, want in zip(trajs, res.trajectories):
            assert got.delta == want.delta
            assert got.protocol == want.protocol
            for a, b in zip(got.points, want.points):
                assert a.m_star == b.m_star
                assert a.r == b.r
                assert a.fi == b.fi

    @given(st.data())
    def test_onset_table_round_trip_generated(self, tmp_path_factory, data):
        cfg = RunConfig(
            n_sites=10,
            deltas=data.draw(st.lists(st.floats(1e-4, 1.0, exclude_max=True),
                                      min_size=1, max_size=3, unique=True),
                             label="deltas"),
            protocols=data.draw(st.lists(st.sampled_from(PROTOCOLS),
                                         min_size=1, max_size=3, unique=True),
                                label="protocols"),
            theta=data.draw(_open_unit(), label="theta"))
        times = sorted(data.draw(st.sets(st.floats(0.0, 1e3), min_size=1,
                                         max_size=5), label="times"))
        trajectories = [
            RedundancyTrajectory(delta=delta, protocol=protocol, points=tuple(
                data.draw(onset_estimates(t, delta)) for t in times))
            for protocol in cfg.protocols for delta in cfg.deltas]
        out = tmp_path_factory.mktemp("onsets")
        write_tables(_result_of(cfg, trajectories), out)
        assert read_onset_table(out, cfg) == trajectories

    def test_theta_mismatch_detected(self, tmp_path):
        cfg = RunConfig(n_sites=10, n_fragments=50, m_grid=(1, 2),
                        time_grid=TimeGridSpec(n_dense=3, n_coarse=2),
                        bootstrap_replicates=20, overlap_pairs=10)
        write_tables(run_sweep(cfg), tmp_path)
        other = RunConfig(n_sites=10, theta=0.5, n_fragments=50,
                          m_grid=(1, 2),
                          time_grid=TimeGridSpec(n_dense=3, n_coarse=2),
                          bootstrap_replicates=20, overlap_pairs=10)
        with pytest.raises(ConfigError):
            read_onset_table(tmp_path, other)


class TestCliCommands:
    def test_simulate_writes_tables(self, fast_run_dir):
        for name in ("run_metadata.txt", "phi.csv", "onset.csv",
                     "overlap.csv"):
            assert (fast_run_dir / name).is_file()

    def test_simulate_reports_every_file_it_writes(self, tmp_path,
                                                   fast_cfg_file,
                                                   monkeypatch):
        # bench/traced.py counts io rows and bytes from the name -> path
        # dict that write_tables returns, so that dict must cover --out
        returned = []

        def recording(*args, **kwargs):
            written = write_tables(*args, **kwargs)
            returned.append(written)
            return written

        monkeypatch.setattr(qdfi.cli, "write_tables", recording)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(fast_cfg_file),
                     "--out", str(out)]) == 0
        assert len(returned) == 1
        assert set(out.iterdir()) == set(returned[0].values())

    def test_threads_auto_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(qdfi.cli.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(qdfi.cli.os, "cpu_count", lambda: 2)
        assert _parse_threads("auto") == 1

    def test_analyze_then_report(self, tmp_path, fast_run_dir, capsys):
        out = tmp_path / "an"
        assert main(["analyze", "--in", str(fast_run_dir),
                     "--out", str(out)]) == 0
        for name in ("slopes.csv", "scaling.csv", "summary.csv"):
            assert (out / name).is_file()
        capsys.readouterr()
        assert main(["report", "--in", str(fast_run_dir)]) == 0
        shown = capsys.readouterr().out
        for token in ("0.01", "0.05", "0.1"):
            assert token in shown

    def test_report_has_row_per_delta(self, fast_run_dir, capsys):
        assert main(["report", "--in", str(fast_run_dir)]) == 0
        body = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.strip() and not ln.startswith(("protocol", "     d"))]
        assert len(body) == 3

    def test_plot_data_fi_schema(self, tmp_path, fast_run_dir):
        out = tmp_path / "figs"
        assert main(["plot-data", "--in", str(fast_run_dir), "--figure",
                     "fi", "--out", str(out)]) == 0
        lines = (out / "fig_fi.csv").read_text().splitlines()
        assert lines[0] == "t,delta,FI,FI_eff,FI_lo,FI_hi"
        assert len(lines) > 1

    def test_plot_data_all_figures(self, tmp_path, fast_run_dir):
        out = tmp_path / "figs"
        for figure in ("R_vs_t", "holevo_cdf", "growth", "protocol"):
            assert main(["plot-data", "--in", str(fast_run_dir),
                         "--figure", figure, "--out", str(out)]) == 0
            assert (out / f"fig_{figure}.csv").is_file()

    def test_plot_data_bad_m_is_config_error(self, tmp_path, fast_run_dir):
        code = main(["plot-data", "--in", str(fast_run_dir), "--figure",
                     "holevo_cdf", "--m", "99", "--out", str(tmp_path)])
        assert code == 1

    def test_oracle_passes_small_env(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("N = 10\nn_fragments = 600\n"
                       "m_grid = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n"
                       "n_dense = 6\nn_coarse = 6\nbootstrap_B = 50\n",
                       encoding="utf-8")
        assert main(["oracle", "--config", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_invalid_config_value_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("N = -3\n", encoding="utf-8")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1

    def test_unenumerable_exhaustive_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "exhaustive.cfg"
        cfg.write_text("N = 30\nprotocols = exhaustive\nm_grid = 15\n",
                       encoding="utf-8")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "C(30, 15)" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["alpha = 1e-17", "g = 1e200",
                                      "coupling_rate = 1e-310",
                                      "t_max = inf"])
    def test_config_that_breaks_every_cell_exits_1(self, tmp_path, capsys,
                                                   line):
        # such configs used to validate, then fail at run time: in every
        # cell (exit 2), on infinite couplings (exit 2) or, for t_max = inf,
        # on the trajectory times once the whole sweep had run
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(f"N = 12\n{line}\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert line.split(" = ")[0] + " must" in capsys.readouterr().err

    def test_missing_run_dir_exits_1(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "ghost")]) == 1

    def test_corrupt_onset_table_exits_2(self, tmp_path, fast_run_dir):
        (fast_run_dir / "onset.csv").write_text("t,broken\n1,2\n",
                                                encoding="utf-8")
        code = main(["report", "--in", str(fast_run_dir)])
        assert code in (1, 2)

    def test_usage_error_exits_1(self, capsys):
        assert main(["kaboom"]) == 1
        assert main(["simulate"]) == 1  # --out is required
        capsys.readouterr()

    def test_bad_threads_exits_1(self, tmp_path, fast_cfg_file):
        assert main(["simulate", "--config", str(fast_cfg_file), "--out",
                     str(tmp_path / "o"), "--threads", "zero"]) == 1
        assert main(["simulate", "--config", str(fast_cfg_file), "--out",
                     str(tmp_path / "o"), "--threads", "0"]) == 1

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_default_run_report(self, tmp_path, capsys):
        # App-default configuration straight through the front end
        out = tmp_path / "defaults"
        assert main(["simulate", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        shown = capsys.readouterr().out.splitlines()
        body = [ln for ln in shown
                if ln.strip() and not ln.startswith(("protocol", "     d"))]
        assert len(body) == 3

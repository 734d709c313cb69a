"""Config parsing, table writing, and command-line behavior.

CLI commands run in-process through main(argv) so exit codes and files
can be checked without spawning interpreters; the one subprocess test
lives in the acceptance suite.
"""

import importlib
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, strategies as st

from test_sweep import ABSENT, same_onsets

import qdfi.cli
from qdfi import (ConfigError, OracleReport, RunConfig, RunStats,
                  SweepResult, TimeGridSpec, build_time_grid, parse_config,
                  parse_config_text, read_metadata, read_onset_table,
                  run_sweep, serialize_config, write_csv, write_tables)
from qdfi.cli import _parse_threads, main
from qdfi.model import ENTROPY_FLOOR, binary_entropy
from qdfi.sampling import PROTOCOLS
from qdfi.sweep import CELL_DTYPE, CONFIG_KEYS, ONSET_DTYPE

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


def _deltas(max_size):
    """Distinct delta lists drawn from [1e-4, 1)."""
    return st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1,
                    max_size=max_size, unique=True)


def _assume_threshold_clears_floor(p0, deltas):
    """Keep only the p0 and deltas RunConfig accepts: the smallest
    adequacy threshold must exceed what a clipped entropy reads."""
    assume((1.0 - max(deltas)) * binary_entropy(p0) > ENTROPY_FLOOR)


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
    g = draw(positive, label="g")
    coupling_rate = draw(positive, label="coupling_rate")
    p0 = draw(_open_unit(), label="p0")
    deltas = draw(_deltas(4), label="deltas")
    _assume_threshold_clears_floor(p0, deltas)
    try:
        time_grid = TimeGridSpec(
            *sorted((t_min, t_knee, t_max)),
            n_dense=draw(st.integers(2, 200), label="n_dense"),
            n_coarse=draw(st.integers(1, 200), label="n_coarse"))
    except ConfigError:   # ends too close for a strictly rising grid
        reject()
    return RunConfig(
        n_sites=n_sites, g=g, coupling_rate=coupling_rate, p0=p0,
        deltas=deltas, theta=draw(_open_unit(), label="theta"), protocols=protocols,
        n_fragments=draw(st.integers(1, 10 ** 6), label="n_fragments"),
        m_grid=m_grid,
        time_grid=time_grid,
        alpha=draw(st.floats(2.0 ** -53, 1.0, exclude_min=True,
                             exclude_max=True), label="alpha"),
        bootstrap_replicates=draw(st.integers(1, 10 ** 6), label="B"),
        overlap_pairs=draw(st.integers(1, 10 ** 6), label="pairs"),
        master_seed=draw(st.integers(0, 2 ** 64 - 1), label="seed"))


@st.composite
def onset_estimates(draw, m_grid):
    """One ONSET_DTYPE row: absent (0 for each m, NaN for each real), or
    present with optional bounds, its m values on m_grid and its reals
    finite."""
    if not draw(st.booleans(), label="present"):
        return ABSENT
    size = st.sampled_from(m_grid)
    optional_size = st.just(0) | size
    real = st.floats(allow_nan=False, allow_infinity=False)
    return (draw(size), draw(optional_size), draw(optional_size),
            *(draw(real) for _ in range(5)))


def _rename_protocol(rows):
    """Give the first delta = 0.05 row of onset.csv a protocol no config
    lists."""
    i = next(i for i, row in enumerate(rows) if row.split(",")[1] == "0.05")
    t, delta, _, *rest = rows[i].split(",")
    rows[i] = ",".join([t, delta, "bogus", *rest])
    return rows


def _drop_first_time(rows):
    """Drop every onset.csv row at the first row's time, so each
    (protocol, delta) loses the same time."""
    t = rows[1].split(",")[0]
    return [row for row in rows if row.split(",")[0] != t]


def _set_time(line, text):
    """An edit that writes ``text`` as the t of onset.csv's row on ``line``
    (the header is line 1)."""
    def edit(rows):
        rows[line - 1] = f"{text},{rows[line - 1].split(',', 1)[1]}"
        return rows
    return edit


def _shift_times(rows):
    """Move the time of every onset.csv row by the same 1e-3."""
    header, *body = rows
    return [header] + [",".join([repr(float(t) + 1e-3), rest])
                       for t, rest in (row.split(",", 1) for row in body)]


def _result_of(config, onsets=None):
    """A SweepResult holding only the given (t, delta, protocol) onsets on
    the config's time grid, an empty run table and an empty overlap array
    (no cells); with no onsets, no times either."""
    m, d, p = len(config.m_grid), len(config.deltas), len(config.protocols)
    times = np.empty(0)
    if onsets is None:
        onsets = np.empty((0, d, p), ONSET_DTYPE)
    else:
        times = build_time_grid(config.time_grid)
    return SweepResult(config=config, time_grid=times,
                       cells=np.empty((0, m, d, p), CELL_DTYPE),
                       onsets=onsets, overlaps=np.empty((0, m, p)),
                       stats=RunStats(0, 0))


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

    def test_readme_module_paths_resolve(self):
        # every `qdfi.<module>.<NAME>` README names is bound there
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        paths = re.findall(r"`qdfi\.(\w+)\.(\w+)`", readme)
        assert paths
        for module, name in paths:
            assert hasattr(importlib.import_module(f"qdfi.{module}"),
                           name), f"qdfi.{module}.{name}"

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
            assert np.array_equal(got.t, want.t)
            # read back into the result's own (t, delta, protocol) layout
            assert got.onsets.strides == want.onsets.strides
            assert same_onsets(got.onsets, want.onsets,
                               names=("m_star", "r", "fi"))

    @given(st.data())
    def test_onset_table_round_trip_generated(self, tmp_path_factory, data):
        deltas = data.draw(_deltas(3), label="deltas")
        _assume_threshold_clears_floor(RunConfig.p0, deltas)
        try:
            time_grid = TimeGridSpec(
                *sorted(data.draw(st.lists(st.floats(1e-6, 1e3), min_size=3,
                                           max_size=3, unique=True),
                                  label="grid ends")),
                n_dense=data.draw(st.integers(2, 3), label="n_dense"),
                n_coarse=data.draw(st.integers(1, 2), label="n_coarse"))
        except ConfigError:   # ends too close for a strictly rising grid
            reject()
        cfg = RunConfig(
            n_sites=10, deltas=deltas,
            protocols=data.draw(st.lists(st.sampled_from(PROTOCOLS),
                                         min_size=1, max_size=3, unique=True),
                                label="protocols"),
            theta=data.draw(_open_unit(), label="theta"),
            time_grid=time_grid)
        times = build_time_grid(cfg.time_grid).tolist()
        onsets = np.array(
            [[[data.draw(onset_estimates(cfg.m_grid)) for _ in cfg.protocols]
              for _ in cfg.deltas] for _ in times], dtype=ONSET_DTYPE)
        result = _result_of(cfg, onsets)
        out = tmp_path_factory.mktemp("onsets")
        write_tables(result, out)
        # the reader places each row at its t, whatever the row order
        header, *rows = (out / "onset.csv").read_text().splitlines()
        rows = data.draw(st.permutations(rows), label="row order")
        (out / "onset.csv").write_text("\n".join([header, *rows]) + "\n")
        got = read_onset_table(out, cfg)
        assert len(got) == len(result.trajectories)
        for a, b in zip(got, result.trajectories):
            assert (a.protocol, a.delta) == (b.protocol, b.delta)
            assert a.t.tolist() == times
            assert same_onsets(a.onsets, b.onsets)

    def test_write_csv_streams_rows(self, tmp_path):
        # 20,000 rows of ten fields make a file of about 2.1 MB.  A writer
        # that formats, writes and drops one row at a time holds one row
        # and the file object's buffers, a few KiB whatever the row count;
        # one that joins every line first holds the lines, the text and
        # its bytes, about three times the file.
        rows = ((i, i / 7, "random", None, i * 0.1, i / 3, 1 / (i + 1),
                 -i / 11, i, 2.0 ** -i) for i in range(20_000))
        path = tmp_path / "rows.csv"
        tracemalloc.start()
        try:
            write_csv(path, "a,b,c,d,e,f,g,h,i,j", rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < size / 10, f"peak {peak} B for a {size} B file"
        lines = path.read_text().splitlines()
        assert len(lines) == 20_001
        assert lines[1] == "0,0.0,random,,0.0,0.0,1.0,0.0,0,1.0"

    def test_read_onsets_are_read_only(self, fast_run_dir):
        config = read_metadata(fast_run_dir)
        for traj in read_onset_table(fast_run_dir, config):
            assert traj.onsets.dtype == ONSET_DTYPE
            assert traj.onsets.shape == traj.t.shape == (12,)
            assert not traj.t.flags.writeable
            assert not traj.onsets.flags.writeable

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

    def test_simulate_prints_soft_fi_violations(self, tmp_path, capsys,
                                                fast_cfg_file, monkeypatch):
        # bench/run.py reads the Holevo count as the second comma-separated
        # field, so the soft FI violation count comes after it, and the
        # CPU time is the last field
        results = []

        def recording(*args, **kwargs):
            results.append(run_sweep(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(qdfi.cli, "run_sweep", recording)
        assert main(["simulate", "--config", str(fast_cfg_file),
                     "--out", str(tmp_path / "run")]) == 0
        summary = capsys.readouterr().out.splitlines()[0].split(", ")
        stats = results[0].stats
        assert summary[1] == f"{stats.holevo_evaluations} holevo evaluations"
        assert summary[2] == f"{stats.fi_soft_violations} soft FI violations"
        assert re.fullmatch(r"\d+\.\ds CPU", summary[-1]), summary[-1]

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

    def test_internal_error_exits_2(self, tmp_path, capsys, fast_cfg_file,
                                    monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("pool died")

        monkeypatch.setattr(qdfi.cli, "run_sweep", broken)
        assert main(["simulate", "--config", str(fast_cfg_file),
                     "--out", str(tmp_path / "run")]) == 2
        assert "error: RuntimeError: pool died" in capsys.readouterr().err

    def test_oracle_failure_exits_3(self, capsys, fast_cfg_file,
                                    monkeypatch):
        no_cells = np.empty((0, 0, 0), CELL_DTYPE)
        failed = OracleReport(times=np.empty(0), sampled=no_cells,
                              exact=no_cells, max_abs_deviation=0.5,
                              fraction_within=0.5, passed=False)
        monkeypatch.setattr(qdfi.cli, "oracle_report", lambda config: failed)
        assert main(["oracle", "--config", str(fast_cfg_file)]) == 3
        captured = capsys.readouterr()
        assert "within-band fraction = 0.5000" in captured.out
        assert "oracle: FAIL" in captured.err
        assert "PASS" not in captured.out

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
                                      "g = 1e154",
                                      "coupling_rate = 1e-310",
                                      "coupling_rate = 1e-308",
                                      "t_max = inf"])
    def test_config_that_breaks_every_cell_exits_1(self, tmp_path, capsys,
                                                   line):
        # such configs used to validate, then fail at run time: in every
        # cell (exit 2), on infinite couplings (exit 2; at 1e-308 the
        # reciprocal is finite, but an Exp(1) variate above 1.8 is not once
        # scaled by it) or, for t_max = inf, on the trajectory times once
        # the whole sweep had run; g = 1e154 has a finite square, but its
        # log overlaps overflowed at t_max with a RuntimeWarning (exit 0)
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(f"N = 12\n{line}\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert line.split(" = ")[0] + " must" in capsys.readouterr().err

    P0_RUN = ("N = 40\ndeltas = 0.01\nn_fragments = 50\n"
              "m_grid = 1, 2, 4, 8\nn_dense = 3\nn_coarse = 2\n"
              "bootstrap_B = 20\noverlap_pairs = 10\n")

    def test_threshold_under_the_entropy_floor_exits_1(self, tmp_path,
                                                       capsys):
        # the threshold (1 - 0.01) * H(1e-15) = 5.076e-14 lies below the
        # 5.127e-14 that a clipped chi reads, so this run used to exit 0
        # with m* = 1 from the clip alone
        cfg = tmp_path / "p0.cfg"
        cfg.write_text("p0 = 1e-15\n" + self.P0_RUN, encoding="utf-8")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "p0 = 1e-15 with delta = 0.01" in capsys.readouterr().err

    def test_threshold_over_the_entropy_floor_runs(self, tmp_path, capsys):
        # threshold (1 - 0.01) * H(2e-15) = 9.95e-14
        cfg = tmp_path / "p0.cfg"
        cfg.write_text("p0 = 2e-15\n" + self.P0_RUN, encoding="utf-8")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    def test_config_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        # a Latin-1 byte used to escape as UnicodeDecodeError (exit 2)
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\nN = 12\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert f"{cfg} is not UTF-8" in capsys.readouterr().err

    def test_config_content_error_names_the_file(self, tmp_path, capsys):
        # the message named the line but not the file
        cfg = tmp_path / "bad.cfg"
        text = FAST_CFG.lstrip()
        lineno = text.count("\n") + 1
        cfg.write_text(text + "bogus = 3\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert (f"config error: {cfg}: line {lineno}: unknown key 'bogus'"
                in capsys.readouterr().err)

    def test_run_metadata_content_error_names_the_file(
            self, tmp_path, fast_run_dir, capsys):
        meta = fast_run_dir / "run_metadata.txt"
        lineno = len(meta.read_text(encoding="utf-8").splitlines()) + 1
        with open(meta, "a", encoding="utf-8") as fh:
            fh.write("junk = 1\n")
        assert main(["analyze", "--in", str(fast_run_dir),
                     "--out", str(tmp_path / "analysis")]) == 1
        assert (f"config error: {meta}: line {lineno}: unknown key 'junk'"
                in capsys.readouterr().err)

    def test_config_with_a_byte_order_mark_runs(self, tmp_path, capsys):
        # some editors save one; it used to read as part of the first key
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("\ufeff" + FAST_CFG.lstrip(), encoding="utf-8")
        assert parse_config(cfg) == parse_config_text(FAST_CFG)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["simulate", "oracle"])
    def test_config_naming_a_directory_exits_1(self, tmp_path, capsys,
                                               command):
        argv = [command, "--config", str(tmp_path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, command", [
        ("run_metadata.txt", "analyze"), ("onset.csv", "report")])
    def test_run_file_that_is_not_utf8_exits_1(self, tmp_path, fast_run_dir,
                                               capsys, name, command):
        with open(fast_run_dir / name, "ab") as fh:
            fh.write(b"\xe9")
        argv = [command, "--in", str(fast_run_dir)]
        if command == "analyze":
            argv += ["--out", str(tmp_path / "analysis")]
        assert main(argv) == 1
        assert f"{fast_run_dir / name} is not UTF-8" in (
            capsys.readouterr().err)

    def test_out_naming_a_file_exits_1_before_any_work(
            self, tmp_path, fast_cfg_file, fast_run_dir, capsys,
            monkeypatch):
        # simulate used to run the whole sweep before failing with
        # FileExistsError, and all three commands exited 2
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")

        def sweep(*args, **kwargs):
            raise AssertionError("simulate ran the sweep")

        monkeypatch.setattr(qdfi.cli, "run_sweep", sweep)
        for argv in (["simulate", "--config", str(fast_cfg_file)],
                     ["analyze", "--in", str(fast_run_dir)],
                     ["plot-data", "--in", str(fast_run_dir),
                      "--figure", "fi"]):
            capsys.readouterr()
            assert main(argv + ["--out", str(taken)]) == 1, argv[0]
            assert f"config error: --out {taken}" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == ""

    def test_missing_run_dir_exits_1(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "ghost")]) == 1

    def test_corrupt_onset_table_exits_1(self, fast_run_dir, capsys):
        onset = fast_run_dir / "onset.csv"
        lines = onset.read_text().splitlines()
        header, first = lines[:2]
        last = len(lines)

        def last_row_with(field, value):
            fields = lines[-1].split(",")
            fields[field] = value
            return "\n".join(lines[:-1] + [",".join(fields)]) + "\n"

        # a non-numeric t used to escape as ValueError and an onset
        # without its R as TypeError (exit 2); an m off the grid 1..8 and a
        # NaN or infinite real used to read (exit 0), so plot-data wrote
        # R = nan and report a final FI of inf
        for text, why in [("t,broken\n1,2\n", "unexpected header"),
                          (f"{header}\nx{first}\n", "line 2: could not "
                           "convert string to float"),
                          # a blank line used to fail on its unpacking
                          (f"{header}\n{first}\n\n", "line 3: 1 fields, "
                           "not 12"),
                          (last_row_with(4, "0"), f"line {last}: m_star 0 "
                           "is not on the config's m grid"),
                          (last_row_with(5, "0"), f"line {last}: m_star_lo "
                           "0 is not on the config's m grid"),
                          (last_row_with(4, "10"), f"line {last}: m_star 10 "
                           "is not on the config's m grid"),
                          (last_row_with(7, "nan"), f"line {last}: R nan is "
                           "not a finite number"),
                          (last_row_with(10, "inf"), f"line {last}: FI inf "
                           "is not a finite number"),
                          (last_row_with(7, ""), f"line {last}: R, R_eff, "
                           "eta, FI and FI_eff must be empty exactly when "
                           "m_star is")]:
            onset.write_text(text, encoding="utf-8")
            assert main(["report", "--in", str(fast_run_dir)]) == 1
            err = capsys.readouterr().err
            assert f"config error: {onset}" in err and why in err

    @pytest.mark.parametrize("command, edit, why", [
        # analyze used to fit the shortened trajectory (exit 0)
        ("analyze", lambda rows: rows[:5] + rows[6:],
         "lacks rows: none for t 0.01, delta 0.1, protocol 'disjoint'"),
        # report used to drop the row (exit 0)
        ("report", _rename_protocol,
         "protocol 'bogus', delta 0.05 is not in the run's config"),
        ("report", lambda rows: rows[:1], "lacks rows"),
        # a repeated row, and a t that is off the grid or not a number,
        # used to be found only as a group that lacks rows, with no line
        ("report", lambda rows: rows + rows[-1:],
         "line 74: a second row for t 6.0, delta 0.1, protocol 'random'"),
        ("report", _set_time(6, "nan"),
         "line 6: t nan is not one of the config's 12 grid times"),
        ("report", _set_time(6, "0.5"),
         "line 6: t 0.5 is not one of the config's 12 grid times"),
        # every group still lists the same times as the others
        ("report", _drop_first_time, "lacks rows"),
        ("analyze", _shift_times,
         "line 2: t 0.011 is not one of the config's 12 grid times"),
    ], ids=["deleted-row", "foreign-protocol", "header-only",
            "repeated-row", "nan-time", "off-grid-time", "dropped-time",
            "shifted-times"])
    def test_onset_rows_that_do_not_fit_the_config_exit_1(
            self, tmp_path, fast_run_dir, capsys, command, edit, why):
        onset = fast_run_dir / "onset.csv"
        rows = edit(onset.read_text().splitlines())
        onset.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = [command, "--in", str(fast_run_dir)]
        if command == "analyze":
            argv += ["--out", str(tmp_path / "analysis")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"config error: {onset}" in err and why in err

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

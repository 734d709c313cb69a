"""Every config that validates runs every command.

A derandomized hypothesis search over every config key that favours the
edges of the valid region: p0 next to the entropy floor, a delta next to
1, alpha next to 2**-53, g and coupling_rate next to their overflow
bounds, time-grid anchors next to each other, gapped m grids, exhaustive
families at the enumeration cap, one fragment per family and one overlap
pair.  Each edge is found by bisecting against RunConfig's own
validation, so every config drawn validates.  Each runs, in-process
through qdfi.cli.main, simulate with one and with two workers, analyze,
report, every plot-data figure and, when every C(N, m) fits the cap,
the enumeration oracle; a RuntimeWarning is an error in each.
"""

import contextlib
import io
import math
import struct
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qdfi import (ConfigError, RunConfig, TimeGridSpec, build_time_grid,
                  read_metadata, read_onset_table, serialize_config)
from qdfi.cli import FIGURES, main
from qdfi.sampling import ENUMERATION_CAP, PROTOCOLS

TABLES = ("run_metadata.txt", "phi.csv", "onset.csv", "overlap.csv")

# (key, the value it moves toward): a key of the time grid may move
# toward another anchor, named as the key it moves toward
EDGES = (("p0", 0.0), ("p0", 1.0), ("delta", 1.0), ("alpha", 0.0),
         ("alpha", 1.0), ("theta", 0.0), ("theta", 1.0), ("g", 0.0),
         ("g", math.inf), ("coupling_rate", 0.0),
         ("coupling_rate", math.inf), ("t_knee", "t_min"),
         ("t_max", "t_knee"))


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _with(config: RunConfig, key: str, value: float) -> RunConfig:
    """config with one value changed; "delta" is its last delta."""
    if key == "delta":
        return replace(config, deltas=config.deltas[:-1] + (value,))
    if hasattr(config.time_grid, key):
        return replace(config,
                       time_grid=replace(config.time_grid, **{key: value}))
    return replace(config, **{key: value})


def _value(config: RunConfig, key: str) -> float:
    if key == "delta":
        return config.deltas[-1]
    if hasattr(config.time_grid, key):
        return getattr(config.time_grid, key)
    return getattr(config, key)


def at_edge(config: RunConfig, key: str, toward) -> RunConfig:
    """config with ``key`` moved as far toward ``toward`` as it validates.

    Bisection over the bit patterns of the two nonnegative floats, which
    order them as their values do; it only ever keeps a value that
    validates, so it ends at one next to a value that does not."""
    if isinstance(toward, str):
        toward = _value(config, toward)
    good, bad = _bits(_value(config, key)), _bits(toward)
    while abs(bad - good) > 1:
        mid = (good + bad) // 2
        try:
            _with(config, key, _float(mid))
        except ConfigError:
            bad = mid
        else:
            good = mid
    return _with(config, key, _float(good))


@st.composite
def configs(draw):
    protocols = tuple(draw(st.lists(st.sampled_from(PROTOCOLS), min_size=1,
                                    max_size=3, unique=True)))
    n_sites = draw(st.integers(2, 24))
    sizes = [m for m in range(1, n_sites + 1)
             if "exhaustive" not in protocols
             or math.comb(n_sites, m) <= ENUMERATION_CAP]
    # () is the default grid, 1..N, allowed when every m fits
    m_grid = draw(st.one_of(
        st.just(()) if len(sizes) == n_sites else st.nothing(),
        st.lists(st.sampled_from(sizes), min_size=1, max_size=4,
                 unique=True).map(sorted).map(tuple)))
    t_min = draw(st.floats(1e-3, 1.0))
    t_knee = t_min + draw(st.floats(1e-2, 5.0))
    t_max = t_knee + draw(st.floats(1e-2, 10.0))
    time_grid = TimeGridSpec(t_min, t_knee, t_max,
                             n_dense=draw(st.integers(2, 4)),
                             n_coarse=draw(st.integers(1, 3)))
    config = RunConfig(
        n_sites=n_sites,
        g=draw(st.floats(0.05, 2.0)),
        coupling_rate=draw(st.floats(0.1, 10.0)),
        p0=draw(st.floats(0.05, 0.95)),
        deltas=tuple(draw(st.lists(
            st.one_of(st.just(1e-4), st.floats(1e-4, 0.5)), min_size=1,
            max_size=3, unique=True))),
        theta=draw(st.floats(0.05, 0.95)),
        protocols=protocols,
        n_fragments=draw(st.one_of(st.just(1), st.integers(1, 60))),
        m_grid=m_grid,
        time_grid=time_grid,
        alpha=draw(st.floats(0.01, 0.5)),
        bootstrap_replicates=draw(st.integers(1, 30)),
        overlap_pairs=draw(st.one_of(st.just(1), st.integers(1, 30))),
        master_seed=draw(st.one_of(st.just(2 ** 64 - 1),
                                   st.integers(0, 2 ** 64 - 1))))
    for key, toward in draw(st.lists(st.sampled_from(EDGES), max_size=5,
                                     unique=True)):
        config = at_edge(config, key, toward)
    return config


def _run(*argv) -> None:
    """Run one command in-process; it must exit 0, or oracle 3."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code == 0 or (argv[0] == "oracle" and code == 3), (
        f"{' '.join(map(str, argv))} exited {code}: {err.getvalue()}")


SMALL = dict(n_fragments=1, overlap_pairs=1, bootstrap_replicates=5,
             time_grid=TimeGridSpec(n_dense=2, n_coarse=1))
# every exhaustive family at m = 10 of N = 20 has C(20, 10) = 184756
# fragments, the largest count under the cap
AT_THE_CAP = RunConfig(n_sites=20, protocols=("exhaustive", "random"),
                       m_grid=(1, 10), **SMALL)
# p0 at the entropy floor and, as far as that leaves room, the last
# delta next to 1; then every other key at one of its edges
AT_EVERY_EDGE = RunConfig(n_sites=6, protocols=("random", "disjoint"),
                          m_grid=(1, 3, 6), **SMALL)
for _key, _toward in (("p0", 0.0), ("delta", 1.0), ("alpha", 0.0),
                      ("theta", 1.0), ("t_knee", "t_min"),
                      ("t_max", "t_knee"), ("coupling_rate", 0.0),
                      ("g", math.inf)):
    AT_EVERY_EDGE = at_edge(AT_EVERY_EDGE, _key, _toward)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs())
@example(config=AT_THE_CAP)
@example(config=AT_EVERY_EDGE)
def test_every_command_runs(config):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        root = Path(tmp)
        cfg_file = root / "run.cfg"
        cfg_file.write_text(serialize_config(config), encoding="utf-8")
        run, rerun = root / "run", root / "rerun"
        _run("simulate", "--config", cfg_file, "--out", run, "--threads", 1)
        _run("simulate", "--config", cfg_file, "--out", rerun,
             "--threads", 2)
        for name in TABLES:
            assert (run / name).read_bytes() == (rerun / name).read_bytes()
        assert read_metadata(run) == config
        read_onset_table(run, config)
        _run("analyze", "--in", run, "--out", root / "analysis")
        _run("report", "--in", run)
        for figure in FIGURES:
            _run("plot-data", "--in", run, "--figure", figure,
                 "--m", config.m_grid[0], "--out", root / "figures")
        _, *rows = (run / "phi.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == (build_time_grid(config.time_grid).size
                             * len(config.m_grid) * len(config.deltas)
                             * len(config.protocols))
        for row in rows:
            _, _, _, _, n, k, _, _, ci_low, ci_high = row.split(",")
            assert float(ci_low) <= int(k) / int(n) <= float(ci_high), row
        if all(math.comb(config.n_sites, m) <= ENUMERATION_CAP
               for m in config.m_grid):
            _run("oracle", "--config", cfg_file)

"""Golden output digests: the bytes a refactor must not move.

Each case runs ``qdfi simulate`` in-process on a small config and hashes
everything written to ``--out``: the SHA-256 of the sorted file names,
each followed by that file's bytes.  The cases between them cover the
random, disjoint and exhaustive protocols, p0 on both sides of 1/2,
non-default g and coupling_rate, and both random samplers (slot redraw
while 8m <= N, key ranking above).  One run is also carried through
``analyze`` and every ``plot-data`` figure, and the enumerable config
pins the exact numbers of ``oracle_report``.

A change that alters any digest changes what the program writes; it is
not a refactor, and it updates these values in a change of its own that
says why.  The digests were recorded with numpy 2.4.6; the PCG64 streams
and the float formatting they depend on are stable across numpy releases.
"""

import hashlib
from pathlib import Path

import pytest

from qdfi.cli import FIGURES, main
from qdfi.io import parse_config_text
from qdfi.sweep import oracle_report

CONFIGS = {
    # random only, bootstrap on
    "random-bootstrap-n40": """
        N = 40
        g = 0.6
        deltas = 0.02, 0.1
        protocols = random
        n_fragments = 80
        m_grid = 1, 2, 3, 4, 6, 8, 12, 16, 24, 32
        n_dense = 5
        n_coarse = 4
        bootstrap_B = 50
        overlap_pairs = 20
        master_seed = 11
    """,
    # random and disjoint, biased prior
    "protocols-p03-n300": """
        N = 300
        g = 0.7
        p0 = 0.3
        deltas = 0.05, 0.2
        protocols = random, disjoint
        n_fragments = 50
        m_grid = 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16
        t_min = 0.3
        t_knee = 0.9
        t_max = 1.5
        n_dense = 9
        n_coarse = 2
        bootstrap_B = 40
        overlap_pairs = 25
        master_seed = 3
    """,
    # random and disjoint; the key-ranking sampler runs from m = 9 at
    # N = 64, so for m = 12, 16, 24, 32 on this grid
    "keys-n64": """
        N = 64
        coupling_rate = 2.0
        deltas = 0.01, 0.1
        protocols = random, disjoint
        n_fragments = 100
        m_grid = 1, 2, 4, 8, 12, 16, 24, 32
        n_dense = 5
        n_coarse = 4
        bootstrap_B = 30
        overlap_pairs = 20
        master_seed = 21
    """,
    # exhaustive and random, prior above 1/2
    "exhaustive-p07-n12": """
        N = 12
        p0 = 0.7
        deltas = 0.01, 0.1
        protocols = exhaustive, random
        n_fragments = 100
        n_dense = 4
        n_coarse = 3
        bootstrap_B = 40
        overlap_pairs = 20
        master_seed = 8
    """,
}

SIMULATE_DIGESTS = {
    "random-bootstrap-n40":
        "2c1df87890344024b32b47b83fbe3e64551d77bd43d1ffc7ff2d8ca6c1e34b53",
    "protocols-p03-n300":
        "db2ed66b5b8a7090e53d473a8e661e4bbb4d3525d100816334d2edfd9beb734f",
    "keys-n64":
        "9cc321408ab4890e47ef5c8e1c4ff87c47719c648d99279ce463d90bd63387f7",
    "exhaustive-p07-n12":
        "84ff77b2211c11bda69b9f4186680fc30467ce161fe84b1dc840f1818f4c821e",
}

# analyze and the five plot-data figures, from the protocols-p03-n300 run
ANALYSIS_RUN = "protocols-p03-n300"
ANALYZE_DIGEST = (
    "f6d47138b73c79be3b6f4cfd9d4a104e24853f1a4b7dc3af39220f43aca1aa90")
PLOT_DATA_DIGEST = (
    "105afa968940076b5beb4896245df7e41fafb6f39d8f581b8dad44040f35cea6")

# oracle_report on exhaustive-p07-n12: (cells, max |phi_hat - phi_exact|,
# within-band fraction), compared exactly
ORACLE_RUN = "exhaustive-p07-n12"
ORACLE_EXPECTED = (72, 0.0854545454545454, 1.0)


def _config_text(name):
    return "\n".join(line.strip()
                     for line in CONFIGS[name].splitlines()) + "\n"


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir(), key=lambda p: p.name):
        h.update(f.name.encode("utf-8") + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _simulate(tmp_path: Path, name: str) -> Path:
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(_config_text(name), encoding="utf-8")
    out = tmp_path / name
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_digest(tmp_path, name):
    assert _dir_digest(_simulate(tmp_path, name)) == SIMULATE_DIGESTS[name]


def test_analyze_and_plot_data_digests(tmp_path):
    run = _simulate(tmp_path, ANALYSIS_RUN)
    analyzed = tmp_path / "analyze"
    assert main(["analyze", "--in", str(run), "--out", str(analyzed)]) == 0
    figures = tmp_path / "figures"
    for figure in FIGURES:
        assert main(["plot-data", "--in", str(run), "--figure", figure,
                     "--m", "5", "--out", str(figures)]) == 0
    assert sorted(p.name for p in figures.iterdir()) == sorted(
        f"fig_{f}.csv" for f in FIGURES)
    assert _dir_digest(analyzed) == ANALYZE_DIGEST
    assert _dir_digest(figures) == PLOT_DATA_DIGEST


def test_phi_and_overlap_rows_ignore_delta_order(tmp_path):
    # phi.csv lists deltas by value and overlap.csv has no delta, so
    # listing the deltas in the other order writes the same bytes
    # (onset.csv differs: bootstrap seeds follow the delta's position).
    # No seed depends on a protocol's position, so listing the protocols
    # in the other order writes the same bytes in onset.csv too.
    text = _config_text(ANALYSIS_RUN)
    reorders = {
        "deltas": ("deltas = 0.05, 0.2", "deltas = 0.2, 0.05",
                   ("phi.csv", "overlap.csv")),
        "protocols": ("protocols = random, disjoint",
                      "protocols = disjoint, random",
                      ("phi.csv", "onset.csv", "overlap.csv")),
    }
    for key, (listed, reordered, names) in reorders.items():
        assert listed + "\n" in text
        tables = []
        for order, line in enumerate((listed, reordered)):
            cfg = tmp_path / f"{key}{order}.cfg"
            cfg.write_text(text.replace(listed, line), encoding="utf-8")
            out = tmp_path / f"{key}{order}"
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
            tables.append([(out / name).read_bytes() for name in names])
        assert tables[0] == tables[1], key


def test_oracle_report_numbers():
    report = oracle_report(parse_config_text(_config_text(ORACLE_RUN)))
    assert (report.sampled.size, report.max_abs_deviation,
            report.fraction_within) == ORACLE_EXPECTED

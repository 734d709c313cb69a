"""Golden output digests: the bytes a refactor must not move.

Each case runs ``qdfi simulate`` in-process on a small config and hashes
everything written to ``--out``: the SHA-256 of the sorted file names,
each followed by that file's bytes.  The cases between them cover the
random, disjoint and exhaustive protocols, p0 on both sides of 1/2,
non-default g and coupling_rate, bootstrap on and off, and both random
samplers (slot redraw while 8m <= N, key ranking above).  One run is
also carried through ``analyze`` and every ``plot-data`` figure, and the
enumerable config pins the exact numbers of ``oracle_report``.

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
    # random and disjoint, bootstrap off; the key-ranking sampler runs
    # from m = 9 at N = 64, so for m = 12, 16, 24, 32 on this grid
    "no-bootstrap-keys-n64": """
        N = 64
        coupling_rate = 2.0
        deltas = 0.01, 0.1
        protocols = random, disjoint
        n_fragments = 100
        m_grid = 1, 2, 4, 8, 12, 16, 24, 32
        n_dense = 5
        n_coarse = 4
        bootstrap_B = 30
        bootstrap_budget = 10
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
        "3871960b346f4f234cdf83ec72461a5e1cd7d99e79715f859dbd81f545d16a84",
    "protocols-p03-n300":
        "8d6c815c35664b5996fb7e88b0f3e662b02061c1a5799f7436168ace21dd5fd5",
    "no-bootstrap-keys-n64":
        "333ceb188c952a72d8ec0d14633184aed2f8363f68ef58fdb8ad3906abbb36c8",
    "exhaustive-p07-n12":
        "29bd4443f2e41bb88059a68e9ac8105d2d2633526a6b44152470b6c44caa6144",
}

# analyze and the five plot-data figures, from the protocols-p03-n300 run
ANALYSIS_RUN = "protocols-p03-n300"
ANALYZE_DIGEST = (
    "c88af9f326ca38cdee1ad3339387be9fbd76dbcbcec6c224156031d018b2b5c4")
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


def test_oracle_report_numbers():
    report = oracle_report(parse_config_text(_config_text(ORACLE_RUN)))
    assert (len(report.cells), report.max_abs_deviation,
            report.fraction_within) == ORACLE_EXPECTED

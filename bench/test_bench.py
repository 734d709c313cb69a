"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def test_smoke_covers_every_workload_and_metric():
    """Toy sizes go through the timed path, the traced path and all checks."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    # two timed runs and one traced run per workload
    assert result["attempted"] == 3 * len(run.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            entry = result["metrics"][f"{wl['name']}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]


def test_refuses_to_run_without_package_sources(tmp_path):
    """With only BENCHMARK.json and bench/, it fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "plateau-n1024",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _onset_table(path, rows):
    header = ("t,delta,protocol,theta,m_star,m_star_lo,m_star_hi,"
              "R,R_eff,eta,FI,FI_eff")
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    (path / "onset.csv").write_text("\n".join(lines) + "\n")


def test_science_checks_catch_wrong_results(tmp_path):
    large = run.workload_config(run.WORKLOADS["large-n150k"], 29, False)
    good = [[6.0, d, "random", 0.5, 1, 1, 1, 150000.0, 150000.0, 0.0,
             17.194602975157967, 17.194602975157967]
            for d in run._deltas(large)]
    _onset_table(tmp_path, good)
    assert run._check_large(large, run.Onsets.read(tmp_path)) == []
    # one delta stops short of the plateau at the final time
    good[0][4:] = [2, 1, 3, 75000.0, 75000.0, 0.0, 16.19, 16.19]
    _onset_table(tmp_path, good)
    problems = run._check_large(large, run.Onsets.read(tmp_path))
    assert len(problems) == 2 and all("0.0025" in p for p in problems)

    protocols = run.workload_config(run.WORKLOADS["protocols-n2000"], 17,
                                    False)
    rows = []
    for d in run._deltas(protocols):
        rows.append([6.0, d, "random", 0.5, 1, 1, 1, 2000.0, 2000.0, 0.0,
                     10.97, 10.97])
        rows.append([6.0, d, "disjoint", 0.5, 3, 1, 4, 666.7, 666.7, 0.0,
                     9.38, 9.38])
    _onset_table(tmp_path, rows)
    assert len(run._check_protocols(protocols,
                                    run.Onsets.read(tmp_path))) == 3


def test_expected_counts_follow_the_config():
    cfg = run.workload_config(run.WORKLOADS["protocols-n2000"], 17, False)
    counts = run.expected_counts(cfg)
    n_times = cfg["n_dense"] + cfg["n_coarse"]
    disjoint = sum(min(2000 // m, 400) for m in range(1, 65))
    assert counts["sampling.fragments"] == n_times * (64 * 400 + disjoint)
    assert counts["model.holevo_evals"] == counts["sampling.fragments"]
    assert counts["estimation.cells"] == n_times * 2 * 64 * 3
    assert counts["estimation.bootstrap_draws"] == n_times * 2 * 3 * 1000 * 64
    assert counts["sweep.tasks"] == 2 * n_times

"""The benchmark's trace contract, checked on every test run.

bench/traced.py wraps the layer entry points that qdfi.sweep and qdfi.cli
bind and counts the work done through them; bench/run.py rejects a run
whose counts differ from its closed-form expected_counts.  This runs one
traced simulate on the toy-size smoke config of every workload (a single
protocol, five deltas, and both sampling protocols with eta, all with
bootstrap) and checks every count, so a change that moves or renames a
wrapped call fails here rather than only in the benchmark.  It also runs
bench/setup_probe.py on each smoke config, since the probe imports names
from qdfi.sweep and qdfi.model that bench/run.py needs on every workload.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_run_module():
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


RUN = _bench_run_module()


def _run_bench_script(tmp_path, workload, script, *args):
    """Run a bench script on the workload's smoke config with the package
    under src; the parsed JSON object of its last stdout line."""
    wl = RUN.WORKLOADS[workload]
    cfg = RUN.workload_config(wl, wl.seed, smoke=True)
    cfg_path = tmp_path / "config.txt"
    RUN.write_config(cfg, cfg_path)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / script), str(cfg_path), *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return cfg, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_traced_counts_match_expected(tmp_path, workload):
    cfg, trace = _run_bench_script(tmp_path, workload, "traced.py",
                                   str(tmp_path / "out"))

    counts = trace["counts"]
    for name, want in RUN.expected_counts(cfg).items():
        assert counts[name] == want, name
    assert counts["model.holevo_evals"] == trace["holevo_evaluations"]


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_setup_probe_runs_on_the_package(tmp_path, workload):
    _, probe = _run_bench_script(tmp_path, workload, "setup_probe.py")
    assert probe["setup_s"] > 0.0
    module = Path(probe["module"]).resolve()
    assert module.parent == (ROOT / "src" / "qdfi").resolve()

#!/usr/bin/env python3
"""Benchmark of `qdfi simulate` on three frozen acceptance shapes.

Run from the repository root:

    python3 bench/run.py --workload plateau-n1024 --seed 11 --trace 0
    python3 bench/run.py --workload all --trace 1   # every workload and metric
    python3 bench/run.py --smoke                    # toy sizes, a few seconds

For one workload the harness

1. writes the workload's config file from the seed,
2. for ``--seconds`` seconds, alternates a run of the reference kernel
   (bench/reference.py), a set-up probe in a fresh interpreter
   (bench/setup_probe.py) and a timed ``qdfi simulate`` process, timed
   from spawn to exit, whose CPU time and peak memory come from
   ``os.wait4``; times are reported in calibrated seconds (see
   ``REFERENCE_S``),
3. with ``--trace 1``, runs one traced single-process simulate
   (bench/traced.py) that times each layer from outside the package,
4. checks every output: exit code, the workload's science check, the
   closed-form work counts and a SHA-256 digest that must match the
   first run of the workload, traced run included.

The package itself is never imported here; every measurement of it is
taken in a child process that runs the checkout's ``src/`` tree.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_run"

# The harness must end well inside three minutes whatever the children do.
HARD_DEADLINE_S = 165.0
# Timed simulate runs per workload never drop below this, so the median
# and the determinism check always have something to work on.
MIN_TIMED_RUNS = 3
# The shared host's speed drifts by tens of percent over minutes, for any
# code.  So times are reported in calibrated seconds: seconds on a host
# where bench/reference.py takes this long.  It took 0.35-0.44 s here.
REFERENCE_S = 0.4

# Mirrors sampling.DEFAULT_BLOCK_CAP and the RunConfig defaults; the exact
# work counts below are derived from them independently of the package.
DISJOINT_BLOCK_CAP = 400
BOOTSTRAP_REPLICATES = 1000
BOOTSTRAP_BUDGET = 1_000_000
OVERLAP_PAIRS = 200


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """One frozen acceptance shape.

    ``config`` holds the flat config keys except ``master_seed``, which
    comes from ``--seed``.  Only the time grid (``n_dense``, ``n_coarse``)
    is thinned from the acceptance test; N, the m grid, the fragment
    count, the deltas, the protocols and the worker count decide which
    layer does the work and are kept.  ``smoke`` overrides keys for the
    toy-size run of ``--smoke``.
    """

    name: str
    seed: int
    threads: int
    config: Dict[str, object]
    smoke: Dict[str, object]
    check: Callable[[Dict[str, object], "Onsets"], List[str]]


def _m_grid(top: int) -> str:
    return ", ".join(str(m) for m in range(1, top + 1))


def _check_plateau(cfg, onsets) -> List[str]:
    """Final FI is exactly log2 N for every delta (criterion 1)."""
    target = math.log2(int(cfg["N"]))
    problems = []
    for delta in _deltas(cfg):
        fi = onsets.final_value("random", delta, "FI")
        if fi is None or abs(fi - target) >= 1e-9:
            problems.append(f"delta={delta}: final FI {fi}, want {target}")
    return problems


def _check_large(cfg, onsets) -> List[str]:
    """Peak R is N and the final FI is 17.19 +/- 0.01 bits (criterion 2)."""
    n_sites = int(cfg["N"])
    problems = []
    for delta in _deltas(cfg):
        max_r = onsets.max_r.get(("random", delta))
        if max_r != n_sites:
            problems.append(f"delta={delta}: max R {max_r}, want {n_sites}")
        fi = onsets.final_value("random", delta, "FI")
        if fi is None or abs(fi - 17.19) > 0.01:
            problems.append(f"delta={delta}: final FI {fi}, want 17.19")
    return problems


def _check_protocols(cfg, onsets) -> List[str]:
    """Final onsets of the two protocols differ by at most 1 (criterion 7)."""
    problems = []
    for delta in _deltas(cfg):
        rnd = onsets.final_value("random", delta, "m_star")
        dis = onsets.final_value("disjoint", delta, "m_star")
        if rnd is None or dis is None or abs(rnd - dis) > 1:
            problems.append(f"delta={delta}: final onsets random={rnd} "
                            f"disjoint={dis}")
    return problems


_GRID = {"t_min": 0.01, "t_knee": 1.0, "t_max": 6.0}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="plateau-n1024", seed=11, threads=1,
        config={"N": 1024, "g": 0.5, "coupling_rate": 1.0,
                "deltas": "0.01, 0.05", "theta": 0.5,
                "protocols": "random", "n_fragments": 400,
                "m_grid": _m_grid(64), **_GRID,
                "n_dense": 8, "n_coarse": 4},
        smoke={"N": 64, "n_fragments": 50, "m_grid": _m_grid(16),
               "n_dense": 3, "n_coarse": 2},
        check=_check_plateau),
    Workload(
        name="large-n150k", seed=29, threads=2,
        config={"N": 150000, "g": 0.5, "coupling_rate": 1.0,
                "deltas": "0.0025, 0.005, 0.01, 0.02, 0.05", "theta": 0.5,
                "protocols": "random", "n_fragments": 1000,
                "m_grid": _m_grid(128), **_GRID,
                "n_dense": 10, "n_coarse": 4},
        smoke={"n_fragments": 100, "m_grid": _m_grid(16),
               "n_dense": 3, "n_coarse": 2},
        check=_check_large),
    Workload(
        name="protocols-n2000", seed=17, threads=2,
        config={"N": 2000, "g": 0.5, "coupling_rate": 1.0,
                "deltas": "0.01, 0.02, 0.05", "theta": 0.5,
                "protocols": "random, disjoint", "n_fragments": 400,
                "m_grid": _m_grid(64), "overlap_pairs": OVERLAP_PAIRS,
                **_GRID, "n_dense": 8, "n_coarse": 4},
        smoke={"n_fragments": 60, "m_grid": _m_grid(16),
               "n_dense": 3, "n_coarse": 2},
        check=_check_protocols),
)}


def _deltas(cfg) -> List[float]:
    return [float(d) for d in str(cfg["deltas"]).split(",")]


def _ints(text) -> List[int]:
    return [int(v) for v in str(text).split(",")]


def workload_config(wl: Workload, seed: int, smoke: bool) -> Dict[str, object]:
    cfg = dict(wl.config)
    if smoke:
        cfg.update(wl.smoke)
    cfg["master_seed"] = seed
    return cfg


def write_config(cfg: Dict[str, object], path: Path) -> None:
    lines = [f"{key} = {value}" for key, value in cfg.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def expected_counts(cfg: Dict[str, object]) -> Dict[str, int]:
    """Closed-form work counts of one sweep of ``cfg``.

    Every count depends on the config alone, never on the seed, so a
    traced run that disagrees with these has changed the work done.
    """
    n_sites = int(cfg["N"])
    ms = _ints(cfg["m_grid"])
    n_frag = int(cfg["n_fragments"])
    protocols = [p.strip() for p in str(cfg["protocols"]).split(",")]
    n_deltas = len(_deltas(cfg))
    n_times = int(cfg["n_dense"]) + int(cfg["n_coarse"])
    pairs = int(cfg.get("overlap_pairs", OVERLAP_PAIRS))
    bootstrap = n_frag * len(ms) <= BOOTSTRAP_BUDGET

    fragments = index_bytes = gather_bytes = eta_pairs = 0
    for protocol in protocols:
        for m in ms:
            if protocol == "random":
                n = n_frag
            else:
                n = min(n_sites // m, min(n_sites, DISJOINT_BLOCK_CAP))
            fragments += n
            index_bytes += n * m * 8
            gather_bytes += cell_gather_bytes(n, m)
            eta_pairs += pairs if n >= 2 else 0
    cells_per_time = len(protocols) * len(ms)
    return {
        "sampling.calls": n_times * cells_per_time,
        "sampling.fragments": n_times * fragments,
        "sampling.index_bytes": n_times * index_bytes,
        "sampling.eta_pairs": n_times * eta_pairs,
        "model.holevo_evals": n_times * fragments,
        "estimation.cells": n_times * cells_per_time * n_deltas,
        "estimation.bootstrap_draws": (
            n_times * len(protocols) * n_deltas * BOOTSTRAP_REPLICATES
            * len(ms) if bootstrap else 0),
        "sweep.tasks": n_times * len(protocols),
        "sweep.gather_bytes": n_times * gather_bytes,
    }


def cell_gather_bytes(n: int, m: int) -> int:
    """Computed bytes of one cell's gather+sum over an n x m index block.

    Reads the int64 indices and the float64 couplings they select, writes
    the gathered float64 block and reads it back in the row sum, then
    writes n float64 sums.  Cache effects are ignored.
    """
    return n * m * 32 + n * 8


# --------------------------------------------------------------------------
# output checks


@dataclass
class Onsets:
    """One run's onset table: final row and peak R per (protocol, delta)."""

    final: Dict[Tuple[str, float], Dict[str, str]] = field(
        default_factory=dict)
    max_r: Dict[Tuple[str, float], float] = field(default_factory=dict)

    @classmethod
    def read(cls, out_dir: Path) -> "Onsets":
        onsets = cls()
        with open(out_dir / "onset.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["protocol"], float(row["delta"]))
                last = onsets.final.get(key)
                if last is None or float(row["t"]) > float(last["t"]):
                    onsets.final[key] = row
                if row["R"]:
                    onsets.max_r[key] = max(onsets.max_r.get(key, 0.0),
                                            float(row["R"]))
        return onsets

    def final_value(self, protocol: str, delta: float, column: str):
        row = self.final.get((protocol, delta))
        if row is None or not row[column]:
            return None
        return int(row[column]) if column == "m_star" else float(row[column])


def phi_fragments(out_dir: Path, n_deltas: int) -> int:
    """Fragments evaluated: the n column of phi.csv summed, per delta."""
    with open(out_dir / "phi.csv", newline="", encoding="utf-8") as fh:
        total = sum(int(row["n"]) for row in csv.DictReader(fh))
    return total // n_deltas


def output_digest(out_dir: Path) -> str:
    """SHA-256 over every file simulate wrote, by sorted name."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_output(wl: Workload, cfg, out_dir: Path, expected: Dict[str, int],
                 stdout: str) -> Tuple[List[str], int]:
    """Science check, work counts and fragment total of one finished run."""
    problems = [f"{wl.name}: {p}" for p in wl.check(cfg, Onsets.read(out_dir))]
    fragments = phi_fragments(out_dir, len(_deltas(cfg)))
    want = expected["model.holevo_evals"]
    if fragments != want:
        problems.append(f"phi.csv holds {fragments} fragments, want {want}")
    reported = _reported_evaluations(stdout)
    if reported != want:
        problems.append(f"simulate reported {reported} holevo evaluations, "
                        f"want {want}")
    return problems, fragments


def _reported_evaluations(stdout: str) -> Optional[int]:
    for line in stdout.splitlines():
        if line.startswith("simulate:") and "holevo evaluations" in line:
            return int(line.split(",")[1].split()[0])
    return None


# --------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def run_child(args: List[str], log_stem: Path, deadline: Deadline) -> Child:
    """Run one child interpreter on the checkout's sources.

    Wall time runs from spawn to exit; CPU time and peak RSS come from
    the ``wait4`` rusage, which covers the child and every process it
    reaped, such as pool workers.  A child still running at the deadline
    is killed with its whole process group.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = log_stem.with_suffix(".out")
    err_path = log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        killer = threading.Timer(max(deadline.left(), 0.0), _kill_group,
                                 args=(proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 maxrss_kb=usage.ru_maxrss,
                 stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                 stderr=err_path.read_text(encoding="utf-8", errors="replace"))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _last_json(text: str) -> Optional[dict]:
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


SIMULATE = ["-c", "import sys; from qdfi.cli import main; "
                  "sys.exit(main(sys.argv[1:]))", "simulate"]


# --------------------------------------------------------------------------
# one workload


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: Optional[str] = None
    e2e: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    shares: Dict[str, float] = field(default_factory=dict)
    runs: List[Dict[str, float]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def bench_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                   smoke: bool, deadline: Deadline) -> Result:
    cfg = workload_config(wl, seed, smoke)
    expected = expected_counts(cfg)
    work = WORK_DIR / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "workload.cfg"
    write_config(cfg, cfg_path)
    result = Result(workload=wl.name, seed=seed)

    # Set-up probes and reference runs alternate with the timed runs, so
    # that all three medians sample the same stretch of a drifting host.
    setup: List[float] = []
    refs: List[float] = []
    started = time.perf_counter()
    min_runs = 2 if smoke else MIN_TIMED_RUNS
    while (result.attempted < min_runs
           or time.perf_counter() - started < seconds):
        if deadline.left() < 1.0:
            result.problems.append("deadline reached before the timed runs "
                                   "ended")
            break
        if not (_reference(wl, work, refs, result, deadline)
                and _setup_probe(cfg_path, work, setup, result, deadline)):
            break
        _timed_run(wl, cfg, cfg_path, expected, work, result, deadline)

    if trace:
        _traced_run(wl, cfg, cfg_path, expected, work, result, deadline)

    runs = result.runs
    if runs and setup:
        result.raw = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "fragments_per_s": statistics.median(
                r["fragments_per_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "reference_s": statistics.median(refs),
        }
        scale = REFERENCE_S / result.raw["reference_s"]
        result.e2e = {
            "wall_s": result.raw["wall_s"] * scale,
            "fragments_per_s": result.raw["fragments_per_s"] / scale,
            "cpu_s": result.raw["cpu_s"] * scale,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "setup_s": result.raw["setup_s"] * scale,
        }
        result.layers["sweep.core_util"] = statistics.median(
            r["cpu_s"] / (wl.threads * r["wall_s"]) for r in runs)
    result.e2e["error_rate"] = result.failed / max(result.attempted, 1)
    (work / "result.json").write_text(json.dumps({
        "workload": wl.name, "seed": seed, "smoke": smoke,
        "digest": result.digest, "attempted": result.attempted,
        "failed": result.failed, "problems": result.problems,
        "setup_s": setup, "reference_s": refs, "runs": runs,
        "uncalibrated": result.raw, "end_to_end": result.e2e,
        "per_layer": result.layers,
    }, indent=1) + "\n", encoding="utf-8")
    return result


def _reference(wl, work, refs, result, deadline) -> bool:
    """Time the reference kernel once; False if it fails."""
    child = run_child([str(BENCH_DIR / "reference.py"), str(wl.threads)],
                      work / f"reference-{len(refs)}", deadline)
    if child.code != 0:
        result.problems.append(f"reference kernel exited {child.code}: "
                               f"{child.stderr.strip()[-300:]}")
        return False
    refs.append(float(child.stdout.split()[-1]))
    return True


def _setup_probe(cfg_path, work, setup, result, deadline) -> bool:
    """Time one fresh interpreter's set-up; False once a probe fails."""
    child = run_child([str(BENCH_DIR / "setup_probe.py"), str(cfg_path)],
                      work / f"setup-{len(setup)}", deadline)
    probe = _last_json(child.stdout)
    if child.code != 0 or probe is None:
        result.problems.append(f"setup probe exited {child.code}: "
                               f"{child.stderr.strip()[-300:]}")
        return False
    if Path(probe["module"]).resolve().parent.parent != SRC.resolve():
        result.problems.append(f"setup probe imported {probe['module']}, "
                               f"not the package under {SRC}")
        return False
    setup.append(probe["setup_s"])
    return True


def _timed_run(wl, cfg, cfg_path, expected, work, result, deadline) -> None:
    i = result.attempted
    out = work / f"out-{i}"
    result.attempted += 1
    child = run_child([*SIMULATE, "--config", str(cfg_path), "--out",
                       str(out), "--threads", str(wl.threads)],
                      work / f"simulate-{i}", deadline)
    if child.code != 0:
        result.fail(f"run {i}: simulate exited {child.code}: "
                    f"{child.stderr.strip()[-300:]}")
        return
    problems, fragments = check_output(wl, cfg, out, expected, child.stdout)
    problems += _check_digest(result, output_digest(out))
    shutil.rmtree(out)
    if problems:
        result.fail(f"run {i}: " + "; ".join(problems))
        return
    result.runs.append({
        "wall_s": child.wall_s, "cpu_s": child.cpu_s,
        "peak_rss_mb": child.maxrss_kb / 1024.0,
        "fragments_per_s": fragments / child.wall_s,
    })


def _check_digest(result: Result, digest: str) -> List[str]:
    if result.digest is None:
        result.digest = digest
        return []
    if digest != result.digest:
        return [f"output digest {digest[:16]} differs from the first "
                f"run's {result.digest[:16]}"]
    return []


def _traced_run(wl, cfg, cfg_path, expected, work, result, deadline) -> None:
    out = work / "out-traced"
    result.attempted += 1
    child = run_child([str(BENCH_DIR / "traced.py"), str(cfg_path),
                       str(out)], work / "traced", deadline)
    trace = _last_json(child.stdout)
    if child.code != 0 or trace is None:
        result.fail(f"traced run exited {child.code}: "
                    f"{child.stderr.strip()[-300:]}")
        return
    problems, _ = check_output(wl, cfg, out, expected, child.stdout)
    problems += _check_digest(result, output_digest(out))
    shutil.rmtree(out)

    counts = trace["counts"]
    for name, want in expected.items():
        if counts[name] != want:
            problems.append(f"{name} = {counts[name]}, want {want}")
    if counts["model.holevo_evals"] != trace["holevo_evaluations"]:
        problems.append(f"model.holevo_evals {counts['model.holevo_evals']} "
                        f"!= RunStats.holevo_evaluations "
                        f"{trace['holevo_evaluations']}")
    if problems:
        result.fail("traced run: " + "; ".join(problems))
        return

    wall = trace["wall_s"]
    for layer, seconds in trace["self_s"].items():
        if layer != "cli":
            result.layers[f"{layer}_s"] = seconds
            result.shares[f"{layer}_s"] = seconds / wall
    informative = counts.pop("estimation.informative_cells")
    result.layers.update(counts)
    result.layers["estimation.informative_share"] = (
        informative / counts["estimation.cells"])
    result.layers["analysis.fit_s"] = trace["analysis_s"]
    result.layers["trace.wall_s"] = wall
    result.layers["trace.covered_share"] = 1.0 - trace["self_s"]["cli"] / wall
    if result.runs:
        cpu = statistics.median(r["cpu_s"] for r in result.runs)
        result.layers["trace.overhead_share"] = trace["total_s"] / cpu - 1.0


# --------------------------------------------------------------------------
# reporting


def print_table(result: Result, wl: Workload, trace: bool,
                spec: Dict[str, list]) -> None:
    digest = result.digest[:16] if result.digest else "-"
    print(f"workload {wl.name}  seed {result.seed}  threads {wl.threads}  "
          f"timed runs {len(result.runs)}  attempted {result.attempted}  "
          f"failed {result.failed}  digest {digest}")
    rows = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    rows.append(("error_rate", "ratio"))
    if trace:
        rows += [(m["name"], m["unit"]) for m in spec["per_layer"]]
    values = {**result.layers, **result.e2e}
    for name, unit in rows:
        share = result.shares.get(name)
        note = f"  {100 * share:5.1f}% of traced wall" if share else ""
        print(f"  {name:<30} {_fmt(values.get(name)):>16} {unit}{note}")
    if result.raw:
        print("  uncalibrated: " + ", ".join(
            f"{name} {_fmt(value)}" for name, value in result.raw.items()))
    for problem in result.problems:
        print(f"  FAILED {problem}")


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def metric_block(result: Result, trace: bool,
                 spec: Dict[str, list]) -> Dict[str, dict]:
    """The metrics the result line carries, named as in BENCHMARK.json."""
    values = {**result.layers, **result.e2e}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]
            if m["name"] in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int,
                        help="master seed (default: the workload's "
                             "acceptance seed)")
    parser.add_argument("--seconds", type=float,
                        help="how long the timed simulate runs go on "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, timed and traced")
    ns = parser.parse_args(argv)
    # Termination unwinds through run_child, which kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (SRC / "qdfi" / "cli.py").is_file():
        print(f"error: no package sources at {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = Deadline(HARD_DEADLINE_S)
    if ns.smoke:
        names, seconds, trace = list(WORKLOADS), 0.0, True
    else:
        names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
        seconds = spec["run_seconds"] if ns.seconds is None else ns.seconds
        trace = bool(ns.trace)
    if len(names) > 1:
        # every workload must fit in one three-minute run
        deadline = Deadline(HARD_DEADLINE_S * len(names))

    results = []
    for name in names:
        wl = WORKLOADS[name]
        seed = wl.seed if ns.seed is None else ns.seed
        result = bench_workload(wl, seed, seconds, trace, ns.smoke, deadline)
        print_table(result, wl, trace, spec)
        results.append(result)

    correct = all(not r.problems for r in results) and all(
        r.runs for r in results)
    if len(results) == 1:
        metrics = metric_block(results[0], trace, spec)
    else:
        metrics = {}
        for r in results:
            for kind in (False, True) if trace else (False,):
                for name, entry in metric_block(r, kind, spec).items():
                    metrics[f"{r.workload}/{name}"] = entry
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

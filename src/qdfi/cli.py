"""Command-line front end.

Subcommands:
    simulate   run the counting pipeline and write phi/onset/overlap tables
    analyze    fit growth rates and scaling, write slopes/scaling/summary
    report     print the per-delta summary table to stdout
    plot-data  emit tidy per-figure CSVs from a finished run directory
    oracle     exact-enumeration cross-check for small environments

Exit codes: 0 success, 1 configuration or usage error, 2 runtime error,
3 oracle tolerance failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ._version import __version__
from .analysis import (SlopeFit, fit_early_slope, scaling_exponent,
                       summary_table)
from .io import (parse_config, read_metadata, read_onset_table, write_analysis,
                 write_csv, write_tables)
from .sweep import (ConfigError, RunConfig, build_time_grid, cell_chi_values,
                    oracle_report, run_sweep)

__all__ = ["main"]

FIGURES = ("R_vs_t", "holevo_cdf", "growth", "protocol", "fi")


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdfi",
                     description="Redundancy and functional information "
                                 "in dephasing spin environments")
    parser.add_argument("--version", action="version",
                        version=f"qdfi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a sweep and write tables")
    sim.add_argument("--config", help="config file (defaults when omitted)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--threads", default="1",
                     help="worker processes, an integer or 'auto'")
    sim.set_defaults(handler=_cmd_simulate)

    ana = sub.add_parser("analyze", help="fit slopes and summarize a run")
    ana.add_argument("--in", dest="indir", required=True,
                     help="directory written by simulate")
    ana.add_argument("--out", required=True, help="output directory")
    ana.set_defaults(handler=_cmd_analyze)

    rep = sub.add_parser("report", help="print the per-delta summary")
    rep.add_argument("--in", dest="indir", required=True)
    rep.set_defaults(handler=_cmd_report)

    plot = sub.add_parser("plot-data", help="emit tidy per-figure CSVs")
    plot.add_argument("--in", dest="indir", required=True)
    plot.add_argument("--figure", required=True, choices=FIGURES)
    plot.add_argument("--m", type=int, default=5,
                      help="fragment size for holevo_cdf (default 5)")
    plot.add_argument("--out", help="output directory (default: --in)")
    plot.set_defaults(handler=_cmd_plot_data)

    orc = sub.add_parser("oracle",
                         help="exact-enumeration cross-check (small N)")
    orc.add_argument("--config", required=True)
    orc.set_defaults(handler=_cmd_oracle)
    return parser


def _parse_threads(text: str) -> int:
    if text == "auto":
        # the CPUs this process may run on, which taskset can narrow
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(text)
    except ValueError:
        raise ConfigError(f"--threads must be an integer or 'auto', "
                          f"got {text!r}") from None
    if threads < 1:
        raise ConfigError("--threads must be >= 1")
    return threads


def _out_dir(path: str) -> Path:
    """Create the output directory before any work is done; ConfigError
    naming --out when it cannot be, as for the path of an existing file."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path} is not a usable directory: "
                          f"{exc.strerror}") from None
    return out


def _cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (the pool
    workers), user plus system."""
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def _cmd_simulate(ns) -> int:
    config = RunConfig() if ns.config is None else parse_config(ns.config)
    threads = _parse_threads(ns.threads)
    _out_dir(ns.out)
    started, cpu_started = time.perf_counter(), _cpu_seconds()
    result = run_sweep(config, threads=threads)
    written = write_tables(result, ns.out)
    elapsed = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu_started
    # Timing goes to stdout only; output files must be rerun-identical.
    print(f"simulate: {result.cells.size} cells, "
          f"{result.stats.holevo_evaluations} holevo evaluations, "
          f"{result.stats.fi_soft_violations} soft FI violations, "
          f"{elapsed:.1f}s, {cpu:.1f}s CPU")
    for name in sorted(written):
        print(f"  {written[name]}")
    return 0


def _analysis_bundle(indir: str):
    config = read_metadata(indir)
    trajectories = read_onset_table(indir, config)
    primary = config.protocols[0]
    primary_trajs = [t for t in trajectories if t.protocol == primary]
    m_cap = max(config.m_grid)
    fits: Dict[float, Optional[SlopeFit]] = {}
    scalings: List = []
    for traj in primary_trajs:
        fits[traj.delta] = fit_early_slope(traj)
        scalings.append((traj.delta, scaling_exponent(traj, m_cap=m_cap)))
    rows = summary_table(primary_trajs, fits)
    return config, fits, scalings, rows


def _cmd_analyze(ns) -> int:
    _out_dir(ns.out)
    config, fits, scalings, rows = _analysis_bundle(ns.indir)
    written = write_analysis(config, [(d, fits[d]) for d in config.deltas],
                             scalings, rows, ns.out)
    for name in sorted(written):
        print(f"  {written[name]}")
    return 0


def _cmd_report(ns) -> int:
    config, _, _, rows = _analysis_bundle(ns.indir)
    def cell(v, spec="{:.6g}"):
        return "-" if v is None else spec.format(v)
    print(f"protocol: {config.protocols[0]}   theta = {config.theta}   "
          f"N = {config.n_sites}")
    print(f"{'delta':>10} {'max_R':>12} {'final_FI':>10} {'kappa':>10} "
          f"{'r2':>8} {'t_star':>10}")
    for row in rows:
        print(f"{row.delta:>10.6g} {cell(row.max_r):>12} "
              f"{cell(row.final_fi):>10} {cell(row.kappa):>10} "
              f"{cell(row.r2):>8} {cell(row.t_star):>10}")
    return 0


def _cmd_plot_data(ns) -> int:
    config = read_metadata(ns.indir)
    out_dir = _out_dir(ns.out) if ns.out else Path(ns.indir)
    path = out_dir / f"fig_{ns.figure}.csv"
    n = config.n_sites
    primary = config.protocols[0]

    if ns.figure == "holevo_cdf":
        if ns.m not in config.m_grid:
            raise ConfigError(f"--m {ns.m} is not on the configured m grid")
        m_index = config.m_grid.index(ns.m)

        def rows():
            # one time point's chi values at a time, never the whole table
            for t_index, t in enumerate(build_time_grid(config.time_grid)):
                chi = np.sort(
                    cell_chi_values(config, t_index, m_index, primary))
                cdf = np.arange(1, chi.size + 1) / chi.size
                for c, f in zip(chi, cdf):
                    yield float(t), ns.m, float(c), float(f)
        write_csv(path, "t,m,chi,cdf", rows())
        print(path)
        return 0

    trajectories = read_onset_table(ns.indir, config)
    primary_trajs = [t for t in trajectories if t.protocol == primary]

    # Python scalars (.tolist()) keep math's arithmetic: np.log is not math.log
    if ns.figure in ("R_vs_t", "fi"):
        # fi is R_vs_t on a log2 scale: FI = log2 R bit for bit
        q, scale = ("FI", math.log2) if ns.figure == "fi" else ("R", float)
        rows = []
        for traj in primary_trajs:
            columns = traj.onsets[["r", "r_eff", "m_star_hi", "m_star_lo"]]
            for t, (r, r_eff, m_hi, m_lo) in zip(traj.t.tolist(),
                                                 columns.tolist()):
                values = (r, r_eff, n / m_hi if m_hi else math.nan,
                          n / m_lo if m_lo else math.nan)
                rows.append([t, traj.delta] + [
                    None if math.isnan(v) else scale(v) for v in values])
        write_csv(path, f"t,delta,{q},{q}_eff,{q}_lo,{q}_hi", rows)
    elif ns.figure == "growth":
        rows = []
        for traj in primary_trajs:
            fit = fit_early_slope(traj)
            for i, (t, (m_star, r)) in enumerate(zip(
                    traj.t.tolist(), traj.onsets[["m_star", "r"]].tolist())):
                if not m_star:
                    continue
                in_win = (fit is not None
                          and fit.window_start <= i <= fit.window_end)
                pred = (fit.kappa * t + fit.intercept) if in_win else None
                rows.append([traj.delta, t, math.log(r), int(in_win), pred])
        write_csv(path, "delta,t,ln_R,in_window,fit", rows)
    else:  # protocol comparison
        rows = []
        for traj in trajectories:
            columns = traj.onsets[["r", "r_eff"]].tolist()
            for t, values in zip(traj.t.tolist(), columns):
                rows.append([t, traj.delta, traj.protocol] + [
                    None if math.isnan(v) else v for v in values])
        write_csv(path, "t,delta,protocol,R,R_eff", rows)
    print(path)
    return 0


def _cmd_oracle(ns) -> int:
    config = parse_config(ns.config)
    report = oracle_report(config)
    print(f"oracle: {report.sampled.size} cells, "
          f"max |phi_hat - phi_exact| = {report.max_abs_deviation:.6g}, "
          f"within-band fraction = {report.fraction_within:.4f}")
    if not report.passed:
        print("oracle: FAIL (exact value escaped the 99% Wilson band in "
              "too many cells)", file=sys.stderr)
        return 3
    print("oracle: PASS")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (1) or --help/--version (0)
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return ns.handler(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""One traced single-process `qdfi simulate`, timed per layer from outside.

    python3 bench/traced.py CONFIG OUT

Before running ``qdfi.cli.main(["simulate", ...])`` with one worker, this
script replaces the names that ``qdfi.sweep`` binds from ``sampling``,
``model`` and ``estimation``, and the ``run_sweep`` and ``write_tables``
that ``qdfi.cli`` binds, with timing wrappers.  No file of the package
changes.  Each wrapper opens a span; a layer's self time is its spans'
duration minus the spans opened inside them, so the self times of all
layers plus the residual ``cli`` layer add up to the traced wall time.

After simulate it times the public read-back and fits of ``analyze``.
Prints one JSON object on its last line: self times, work counts, the
traced wall, the ``RunStats.holevo_evaluations`` of the run and the
analysis time.
"""

import time

_STARTED = time.perf_counter()

import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import qdfi.cli as cli  # noqa: E402
import qdfi.sweep as sweep  # noqa: E402
from qdfi.analysis import (fit_early_slope, scaling_exponent,  # noqa: E402
                           summary_table)
from qdfi.io import read_metadata, read_onset_table  # noqa: E402
from run import cell_gather_bytes  # noqa: E402

LAYERS = ("sampling.random", "sampling.disjoint", "sampling.eta",
          "model.holevo", "estimation.cell", "estimation.isotonic",
          "estimation.inversion", "estimation.bootstrap", "estimation.onset",
          "sweep.self", "io.write", "cli")
COUNTS = ("sampling.calls", "sampling.fragments", "sampling.index_bytes",
          "sampling.eta_pairs", "model.holevo_evals", "estimation.cells",
          "estimation.informative_cells", "estimation.bootstrap_draws",
          "sweep.tasks", "sweep.gather_bytes")


class Tracer:
    """Nested spans over wrapped callables, summed per layer."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.run = None       # the SweepResult of the traced run
        self.written = {}     # table name -> path, from write_tables
        self._inner = []      # time covered by child spans, per open span

    def wrap(self, layer, fn, count=None):
        """``fn`` timed as a span of ``layer``; ``count`` sees each result.

        ``count`` runs after the span closes, so its cost lands in the
        caller's layer, never in the one it counts.
        """
        def traced(*args, **kwargs):
            self._inner.append(0.0)
            started = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self.self_s[layer] += elapsed - self._inner.pop()
                if self._inner:
                    self._inner[-1] += elapsed
            if count is not None:
                count(out, args, kwargs)
            return out
        return traced

    def add(self, name, value):
        self.counts[name] += value


def install(tracer: Tracer) -> None:
    """Wrap the package's layer entry points where its callers look them up."""
    def sample(out, args, kwargs):
        n, m = out.n_fragments, out.m
        tracer.add("sampling.calls", 1)
        tracer.add("sampling.fragments", n)
        tracer.add("sampling.index_bytes", n * m * 8)
        tracer.add("sweep.gather_bytes", cell_gather_bytes(n, m))

    def eta(out, args, kwargs):
        tracer.add("sampling.eta_pairs", out.pairs_used)

    def holevo(out, args, kwargs):
        tracer.add("model.holevo_evals", int(out.size))

    def cell(out, args, kwargs):
        tracer.add("estimation.cells", 1)
        tracer.add("estimation.informative_cells", int(0 < out.k < out.n))

    bootstrap_sig = inspect.signature(sweep._bootstrap_counts)

    def bootstrap(out, args, kwargs):
        bound = bootstrap_sig.bind(*args, **kwargs).arguments
        tracer.add("estimation.bootstrap_draws",
                   bound["n_replicates"] * len(bound["n"]))

    def run(out, args, kwargs):
        tracer.run = out
        tracer.add("sweep.tasks",
                   len(out.config.protocols) * int(out.time_grid.size))

    def written(out, args, kwargs):
        tracer.written = out

    wrapped = {
        (sweep, "sample_random_fragments"): ("sampling.random", sample),
        (sweep, "partition_disjoint"): ("sampling.disjoint", sample),
        (sweep, "estimate_overlap_eta"): ("sampling.eta", eta),
        (sweep, "holevo_biased"): ("model.holevo", holevo),
        (sweep, "adequacy_cell"): ("estimation.cell", cell),
        (sweep, "isotonic_fit"): ("estimation.isotonic", None),
        (sweep, "onset_ci_inversion"): ("estimation.inversion", None),
        (sweep, "_bootstrap_counts"): ("estimation.bootstrap", bootstrap),
        (sweep, "IsotonicCurve"): ("estimation.onset", None),
        (sweep, "onset_from_curve"): ("estimation.onset", None),
        (sweep, "combine_onset_ci"): ("estimation.onset", None),
        (sweep, "redundancy_fi"): ("estimation.onset", None),
        (cli, "run_sweep"): ("sweep.self", run),
        (cli, "write_tables"): ("io.write", written),
    }
    for (module, name), (layer, count) in wrapped.items():
        setattr(module, name, tracer.wrap(layer, getattr(module, name), count))


def analysis_seconds(run_dir: str) -> float:
    """The read-back and fits that ``qdfi analyze`` performs, timed."""
    started = time.perf_counter()
    config = read_metadata(run_dir)
    primary = [t for t in read_onset_table(run_dir, config)
               if t.protocol == config.protocols[0]]
    fits = {t.delta: fit_early_slope(t) for t in primary}
    for traj in primary:
        scaling_exponent(traj, m_cap=max(config.m_grid))
    summary_table(primary, fits)
    return time.perf_counter() - started


def main(config_path: str, out_dir: str) -> int:
    tracer = Tracer()
    install(tracer)
    simulate = tracer.wrap("cli", cli.main)
    started = time.perf_counter()
    code = simulate(["simulate", "--config", config_path, "--out", out_dir,
                     "--threads", "1"])
    finished = time.perf_counter()
    if code != 0:
        return code
    files = [Path(p) for p in tracer.written.values()]
    rows = sum(p.read_text(encoding="utf-8").count("\n") - 1
               for p in files if p.suffix == ".csv")
    print(json.dumps({
        "wall_s": finished - started,
        "total_s": finished - _STARTED,
        "self_s": tracer.self_s,
        "counts": {**tracer.counts, "io.rows": rows,
                   "io.bytes_written": sum(p.stat().st_size for p in files)},
        "holevo_evaluations": tracer.run.stats.holevo_evaluations,
        "analysis_s": analysis_seconds(out_dir),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

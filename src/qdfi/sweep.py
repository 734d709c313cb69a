"""Sweep orchestration: quenched couplings, adaptive time grid, cell loop.

One run draws couplings once and walks an adaptive time grid (geometric
before the knee where onsets move fast, linear after).  Each (protocol,
t) work unit runs in three phases.  Per m, it samples the fragment
family, keeps only each fragment's coupling sum and estimates the pair
overlap.  Per block of consecutive families of at most _CHI_BLOCK
fragments (a larger family is a block of its own), one Holevo pass
gives every fragment's chi and adequacy flag per delta, and each
(t, m, delta) cell counts its slice: blocking changes how many calls do
the work, not the work or any output byte.  Per delta, the adequate
fractions are isotonically smoothed along m, the onset is extracted,
and the Wilson-inversion and bootstrap bounds are combined.  A failed
chi pass names every (t, m) of its block, a failed cell its own (t, m)
and a failed onset its (t, delta).

Determinism contract: every random decision derives its seed from the
master seed and the cell coordinates through an avalanche mixer, and
results are assembled in canonical order, so output is byte-identical
for any thread count.  Workers therefore communicate nothing but cell
coordinates and finished payloads.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .estimation import (AdequacyCell, IsotonicCurve, OnsetEstimate,
                         _bootstrap_counts, adequacy_cell, combine_onset_ci,
                         isotonic_fit, onset_ci_inversion, onset_from_curve,
                         redundancy_fi)
from .model import (CouplingSet, PointerEnsemble, Tolerance, holevo_biased,
                    is_adequate)
from .sampling import (ENUMERATION_CAP, PROTOCOLS, FragmentSample,
                       enumerate_fragments, estimate_overlap_eta,
                       partition_disjoint, sample_random_fragments)

__all__ = [
    "ConfigError",
    "SweepCellError",
    "TimeGridSpec",
    "RunConfig",
    "RedundancyTrajectory",
    "OverlapRecord",
    "RunStats",
    "SweepResult",
    "OracleReport",
    "build_time_grid",
    "derive_cell_seed",
    "run_sweep",
    "cell_chi_values",
    "oracle_report",
]


class ConfigError(ValueError):
    """A run configuration value is missing, unknown, or out of range."""


class SweepCellError(RuntimeError):
    """One or more cells failed; the message lists their coordinates."""


# Seed-stream id of each protocol: its position in sampling.PROTOCOLS.
_PROTOCOL_IDS = {name: i for i, name in enumerate(PROTOCOLS)}

# Purpose tags keep independent random streams from colliding even when
# the coordinate indices agree.
PURPOSE_COUPLINGS = 1
PURPOSE_FRAGMENTS = 2
PURPOSE_PAIRS = 3
PURPOSE_BOOTSTRAP = 4

_MASK64 = (1 << 64) - 1

# The enumeration oracle checks each exact value against the sampled
# (1 - ORACLE_BAND_ALPHA) = 99% Wilson band; at least ORACLE_MIN_FRACTION
# of cells must fall inside for the check to pass.
ORACLE_BAND_ALPHA = 0.01
ORACLE_MIN_FRACTION = 0.98

# Fragments per Holevo pass: the sweep evaluates chi and the adequacy
# flags of consecutive families of a time point together, up to this many
# fragments (64 KiB per float64 temporary), so that the fixed cost of each
# call is shared; a larger family is evaluated alone.
_CHI_BLOCK = 2 ** 13


def _splitmix(z: int) -> int:
    """One splitmix64 step: full-avalanche mixing of a 64-bit word."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_cell_seed(master_seed: int, t_index: int = 0, m_index: int = 0,
                     delta_index: int = 0, protocol_id: int = 0,
                     purpose: int = 0) -> int:
    """Stable 64-bit seed for one cell and purpose.

    Chained splitmix64 over the coordinates: any single-field change
    avalanches the result, and the value depends only on the arguments,
    never on scheduling.
    """
    parts = (t_index, m_index, delta_index, protocol_id, purpose)
    if any(p < 0 for p in parts) or master_seed < 0:
        raise ConfigError("seed components must be nonnegative")
    h = _splitmix(master_seed & _MASK64)
    for part in parts:
        h = _splitmix(h ^ (part & _MASK64))
    return h


def _integral(name: str, value) -> int:
    """``value`` as an int; ConfigError unless it is a whole number."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """``value`` as a float; ConfigError unless it is a real number."""
    try:
        if isinstance(value, numbers.Real):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def _entries(name: str, value) -> tuple:
    """The entries of a list field as a tuple; ConfigError naming the
    field for a bare string or a value that cannot be iterated."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be a sequence, got {value!r}")


@dataclass(frozen=True)
class TimeGridSpec:
    """Adaptive grid: n_dense geometric points on [t_min, t_knee] followed
    by n_coarse linear points on (t_knee, t_max]."""

    t_min: float = 0.01
    t_knee: float = 1.0
    t_max: float = 6.0
    n_dense: int = 40
    n_coarse: int = 60

    def __post_init__(self) -> None:
        for attr, key, check in _GRID_SCALARS:
            object.__setattr__(self, attr, check(key, getattr(self, attr)))
        for key in ("t_min", "t_knee", "t_max"):
            if not math.isfinite(value := getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not (0.0 < self.t_min < self.t_knee < self.t_max):
            raise ConfigError(
                f"need 0 < t_min < t_knee < t_max, got "
                f"({self.t_min}, {self.t_knee}, {self.t_max})")
        if self.n_dense < 2:
            raise ConfigError("n_dense must be >= 2")
        if self.n_coarse < 1:
            raise ConfigError("n_coarse must be >= 1")


def build_time_grid(spec: TimeGridSpec) -> np.ndarray:
    """Materialize the grid; strictly increasing, endpoints included."""
    dense = np.geomspace(spec.t_min, spec.t_knee, spec.n_dense)
    steps = np.arange(1, spec.n_coarse + 1, dtype=float) / spec.n_coarse
    coarse = spec.t_knee + (spec.t_max - spec.t_knee) * steps
    grid = np.concatenate([dense, coarse])
    if not np.all(np.diff(grid) > 0.0):
        raise ConfigError("time grid failed to be strictly increasing")
    return grid


def _list_of(item: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a comma-separated list of ``item`` values; blanks skipped."""
    def parse(text: str) -> tuple:
        return tuple(item(p.strip()) for p in text.split(",") if p.strip())
    return parse


# key in the config file -> (RunConfig attribute path, value parser), in the
# order io.serialize_config writes them; GRID_PREFIX keys build the
# TimeGridSpec.
GRID_PREFIX = "time_grid."
CONFIG_KEYS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "N": ("n_sites", int),
    "g": ("g", float),
    "coupling_rate": ("coupling_rate", float),
    "p0": ("p0", float),
    "deltas": ("deltas", _list_of(float)),
    "theta": ("theta", float),
    "protocols": ("protocols", _list_of(str)),
    "n_fragments": ("n_fragments", int),
    "m_grid": ("m_grid", _list_of(int)),
    "t_min": (GRID_PREFIX + "t_min", float),
    "t_knee": (GRID_PREFIX + "t_knee", float),
    "t_max": (GRID_PREFIX + "t_max", float),
    "n_dense": (GRID_PREFIX + "n_dense", int),
    "n_coarse": (GRID_PREFIX + "n_coarse", int),
    "alpha": ("alpha", float),
    "bootstrap_B": ("bootstrap_replicates", int),
    "overlap_pairs": ("overlap_pairs", int),
    "master_seed": ("master_seed", int),
}

# (attribute, key, check) of each int or float field of TimeGridSpec and
# of RunConfig itself; the check makes whole numbers ints and real numbers
# floats, and raises ConfigError naming the key for anything else.
_CHECKS = {int: _integral, float: _real}
_GRID_SCALARS, _RUN_SCALARS = (
    tuple((attr.removeprefix(GRID_PREFIX), key, _CHECKS[parse])
          for key, (attr, parse) in CONFIG_KEYS.items()
          if parse in _CHECKS and attr.startswith(GRID_PREFIX) == grid)
    for grid in (True, False))


@dataclass(frozen=True)
class RunConfig:
    """Complete scientific description of one sweep.

    Everything that affects output bytes lives here; execution details
    such as worker count are deliberately excluded so that reruns of one
    config are comparable file-for-file.
    """

    n_sites: int = 50
    g: float = 0.5
    coupling_rate: float = 1.0
    p0: float = 0.5
    deltas: Tuple[float, ...] = (0.01, 0.05, 0.1)
    theta: float = 0.9
    protocols: Tuple[str, ...] = ("random",)
    n_fragments: int = 600
    m_grid: Tuple[int, ...] = ()   # empty = 1..min(128, N)
    time_grid: TimeGridSpec = TimeGridSpec()
    alpha: float = 0.05
    bootstrap_replicates: int = 1000
    overlap_pairs: int = 200
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(
            _real("deltas entry", d) for d in _entries("deltas", self.deltas)))
        object.__setattr__(self, "protocols",
                           _entries("protocols", self.protocols))
        for attr, key, check in _RUN_SCALARS:
            object.__setattr__(self, attr, check(key, getattr(self, attr)))
        grid = tuple(_integral("m_grid entry", m)
                     for m in _entries("m_grid", self.m_grid))
        if not grid:
            grid = tuple(range(1, min(128, self.n_sites) + 1))
        object.__setattr__(self, "m_grid", grid)
        self._validate()

    def _validate(self) -> None:
        if self.n_sites < 2:
            raise ConfigError(f"N must be >= 2, got {self.n_sites}")
        # the kernel squares g
        if not (math.isfinite(self.g * self.g) and self.g > 0.0):
            raise ConfigError(
                f"g must be positive with a finite square, got {self.g}")
        # the couplings are drawn with scale 1 / coupling_rate
        if not (0.0 < self.coupling_rate < math.inf
                and math.isfinite(1.0 / self.coupling_rate)):
            raise ConfigError(f"coupling_rate must be positive with a finite "
                              f"reciprocal, got {self.coupling_rate}")
        if not (0.0 < self.p0 < 1.0):
            raise ConfigError(f"p0 must lie in (0, 1), got {self.p0}")
        if not self.deltas:
            raise ConfigError("deltas must be nonempty")
        for d in self.deltas:
            if not (1e-4 <= d < 1.0):
                raise ConfigError(
                    f"deltas must lie in [1e-4, 1); got {d} (delta = 0 is "
                    f"rejected, not clamped)")
        if len(set(self.deltas)) != len(self.deltas):
            raise ConfigError("deltas must be distinct")
        if not (0.0 < self.theta < 1.0):
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta}")
        if not self.protocols:
            raise ConfigError("protocols must be nonempty")
        for p in self.protocols:
            if p not in _PROTOCOL_IDS:
                raise ConfigError(
                    f"unknown protocol {p!r}; choose from "
                    f"{sorted(_PROTOCOL_IDS)}")
        if len(set(self.protocols)) != len(self.protocols):
            raise ConfigError("protocols must be distinct")
        if self.n_fragments < 1:
            raise ConfigError("n_fragments must be >= 1")
        ms = self.m_grid
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError("m_grid must be strictly increasing")
        if ms[0] < 1 or ms[-1] > self.n_sites:
            raise ConfigError(
                f"m_grid must stay within [1, N = {self.n_sites}]")
        # the Wilson band needs 1 - alpha/2 < 1, which fails below 2**-53
        if not (0.0 < self.alpha < 1.0 and 1.0 - self.alpha / 2.0 < 1.0):
            raise ConfigError(
                f"alpha must lie in (2**-53, 1), got {self.alpha}")
        if self.bootstrap_replicates < 1:
            raise ConfigError("bootstrap_B must be >= 1")
        if self.overlap_pairs < 1:
            raise ConfigError("overlap_pairs must be >= 1")
        if "exhaustive" in self.protocols:
            _check_enumerable(self)
        if not (0 <= self.master_seed <= _MASK64):
            raise ConfigError("master_seed must fit in 64 bits")

    def couplings(self) -> CouplingSet:
        """The run's quenched couplings, drawn from the master seed."""
        seed = derive_cell_seed(self.master_seed, purpose=PURPOSE_COUPLINGS)
        return CouplingSet.exponential(self.n_sites, self.coupling_rate,
                                       self.g, seed)


def _check_enumerable(config: RunConfig) -> None:
    """Raise ConfigError unless every C(N, m) on the grid fits the cap."""
    for m in config.m_grid:
        count = math.comb(config.n_sites, m)
        if count > ENUMERATION_CAP:
            raise ConfigError(
                f"m = {m} is not enumerable: C({config.n_sites}, {m}) = "
                f"{count} exceeds the enumeration cap {ENUMERATION_CAP}")


@dataclass(frozen=True)
class RedundancyTrajectory:
    """Ordered onset estimates over the time grid for one (delta, protocol)."""

    delta: float
    protocol: str
    points: Tuple[OnsetEstimate, ...]

    def __post_init__(self) -> None:
        ts = [p.t for p in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigError("trajectory times must be strictly increasing")
        if any(p.delta != self.delta for p in self.points):
            raise ConfigError("trajectory points carry a foreign delta")


@dataclass(frozen=True)
class OverlapRecord:
    t: float
    m: int
    protocol: str
    eta: float
    pairs_used: int


@dataclass(frozen=True)
class RunStats:
    """Cross-checks exposed by the engine, not part of the science output."""

    holevo_evaluations: int
    fi_soft_violations: int


@dataclass(frozen=True, eq=False)
class SweepResult:
    config: RunConfig
    couplings: CouplingSet
    time_grid: np.ndarray
    cells: Tuple[AdequacyCell, ...]
    trajectories: Tuple[RedundancyTrajectory, ...]
    overlaps: Tuple[OverlapRecord, ...]
    stats: RunStats


def _sample_cell(config: RunConfig, t_index: int, m_index: int,
                 protocol: str) -> FragmentSample:
    """Draw the fragment family for one cell from its derived seed."""
    m = config.m_grid[m_index]
    seed = derive_cell_seed(config.master_seed, t_index, m_index, 0,
                            _PROTOCOL_IDS[protocol], PURPOSE_FRAGMENTS)
    if protocol == "random":
        return sample_random_fragments(config.n_sites, m,
                                       config.n_fragments, seed)
    if protocol == "disjoint":
        return partition_disjoint(config.n_sites, m, seed)
    return enumerate_fragments(config.n_sites, m)


def _tolerances(config: RunConfig) -> List[Tolerance]:
    """The adequacy tolerance of each configured delta, in config order."""
    entropy = PointerEnsemble(config.p0).entropy
    return [Tolerance.for_entropy(d, entropy) for d in config.deltas]


def _coupling_sums(couplings: CouplingSet,
                   sample: FragmentSample) -> np.ndarray:
    """Each fragment's coupling sum."""
    return np.sum(couplings.couplings[sample.indices], axis=1)


def _adequacy(config: RunConfig, t: float, sums: np.ndarray,
              tols: Sequence[Tolerance]) -> Tuple[np.ndarray, list]:
    """Holevo information chi at time t of fragments with coupling sums
    ``sums`` and their adequacy flags per tolerance.  The log overlap is
    -g^2 t^2 times the sum (model.log_overlap); this order fixes the bytes."""
    chi = holevo_biased(-(config.g ** 2) * (t * t) * sums, config.p0)
    return chi, [is_adequate(chi, tol) for tol in tols]


def _cells(flags: Sequence[np.ndarray], start: int, stop: int, t: float,
           m: int, protocol: str, tols: Sequence[Tolerance],
           alpha: float) -> List[AdequacyCell]:
    """One AdequacyCell per tolerance from flags[start:stop] (size m)."""
    return [adequacy_cell(f[start:stop], t=t, m=m, delta=tol.delta,
                          protocol=protocol, alpha=alpha)
            for f, tol in zip(flags, tols)]


def _blocks(families: List[Tuple[int, np.ndarray]]) -> Iterator[list]:
    """Consecutive (m, sums) families grouped into blocks of at most
    _CHI_BLOCK fragments; a larger family is a block of its own."""
    block, size = [], 0
    for m, sums in families:
        if block and size + sums.size > _CHI_BLOCK:
            yield block
            block, size = [], 0
        block.append((m, sums))
        size += sums.size
    if block:
        yield block


@contextmanager
def _reported(errors: List[Tuple[tuple, Exception]], *where: tuple):
    """Record the body's exception once per coordinate in ``where``."""
    try:
        yield
    except Exception as exc:  # aggregated, reported with coordinates
        errors.extend((w, exc) for w in where)


def cell_chi_values(config: RunConfig, couplings: CouplingSet,
                    time_grid: np.ndarray, t_index: int, m_index: int,
                    protocol: str) -> np.ndarray:
    """Per-fragment Holevo information chi for one cell.

    This is the exact computation the sweep performs, reproduced from the
    same derived seed, so post-hoc diagnostics can recover the fragment
    -level distribution without storing it.
    """
    sample = _sample_cell(config, t_index, m_index, protocol)
    return _adequacy(config, float(time_grid[t_index]),
                     _coupling_sums(couplings, sample), ())[0]


@dataclass
class _TimePayload:
    """Everything one (protocol, t) work unit produces."""

    cells: List[AdequacyCell]
    onsets: List[OnsetEstimate]    # one per delta, in config order
    overlaps: List[OverlapRecord]
    holevo_evaluations: int


def _compute_time_point(config: RunConfig, couplings: CouplingSet,
                        time_grid: np.ndarray, protocol: str,
                        t_index: int) -> _TimePayload:
    t = float(time_grid[t_index])
    tols = _tolerances(config)
    proto_id = _PROTOCOL_IDS[protocol]
    # (("m", m) or ("delta", delta), exception) of each failed step at t
    errors: List[Tuple[tuple, Exception]] = []

    # Per m: each family's coupling sums and overlap estimate; its index
    # block is dropped before the next draw.
    families: List[Tuple[int, np.ndarray]] = []
    eta_by_m: Dict[int, float] = {}
    overlaps: List[OverlapRecord] = []
    for m_index, m in enumerate(config.m_grid):
        with _reported(errors, ("m", m)):
            sample = _sample_cell(config, t_index, m_index, protocol)
            sums = _coupling_sums(couplings, sample)
            if sample.n_fragments >= 2:
                pair_seed = derive_cell_seed(config.master_seed, t_index,
                                             m_index, 0, proto_id,
                                             PURPOSE_PAIRS)
                stat = estimate_overlap_eta(sample, config.overlap_pairs,
                                            pair_seed)
                overlaps.append(OverlapRecord(t=t, m=m, protocol=protocol,
                                              eta=stat.eta,
                                              pairs_used=stat.pairs_used))
                # pairs that all saw one set (eta = 1, as at m = N) leave
                # the onset uncorrected, like a single-fragment family
                eta_by_m[m] = stat.eta if stat.eta < 1.0 else 0.0
            del sample
            families.append((m, sums))

    # Per block: one Holevo pass, then each family's cells from its slice;
    # a chi failure names every (t, m) of the block, a cell failure one.
    cells_by_m: List[List[AdequacyCell]] = []
    evaluations = 0
    for block in _blocks(families):
        with _reported(errors, *(("m", m) for m, _ in block)):
            chi, flags = _adequacy(
                config, t, np.concatenate([s for _, s in block]), tols)
            evaluations += int(chi.size)
            start = 0
            for m, sums in block:
                with _reported(errors, ("m", m)):
                    cells_by_m.append(_cells(
                        flags, start, start + sums.size, t, m, protocol,
                        tols, config.alpha))
                start += sums.size
    del families  # the onsets need counts only; free the sums for them

    out_cells: List[AdequacyCell] = []
    onsets: List[OnsetEstimate] = []
    m_arr = np.asarray(config.m_grid, dtype=np.int64)
    # Per delta: onsets need every cell of the time point, so none is
    # computed once a cell has failed.
    for d_index, cells in enumerate([] if errors else zip(*cells_by_m)):
        delta = config.deltas[d_index]
        with _reported(errors, ("delta", delta)):
            n_arr = np.array([c.n for c in cells], dtype=float)
            iso = isotonic_fit(np.array([c.p_hat for c in cells]), n_arr)
            cells = [replace(c, phi_iso=float(v)) for c, v in zip(cells, iso)]
            m_star = onset_from_curve(IsotonicCurve(m_arr, iso), config.theta)
            m_lo, m_hi = onset_ci_inversion(cells, config.theta)
            boot_seed = derive_cell_seed(config.master_seed, t_index, 0,
                                         d_index, proto_id, PURPOSE_BOOTSTRAP)
            boot = _bootstrap_counts(
                m_arr, np.array([c.k for c in cells], dtype=float), n_arr,
                config.theta, config.bootstrap_replicates, boot_seed)
            m_lo, m_hi = combine_onset_ci((m_lo, m_hi), boot)

            eta = r = r_eff = fi = fi_eff = None
            if m_star is not None:
                # a single-fragment family has no pair estimate
                eta = eta_by_m.get(m_star, 0.0)
                r, r_eff, fi, fi_eff = redundancy_fi(config.n_sites, m_star,
                                                     eta)
            onsets.append(OnsetEstimate(
                t=t, delta=delta, m_star=m_star, m_star_lo=m_lo,
                m_star_hi=m_hi, r=r, r_eff=r_eff, eta=eta, fi=fi,
                fi_eff=fi_eff))
            out_cells.extend(cells)

    if errors:
        raise SweepCellError("cell failures: " + "; ".join(
            f"(t={t}, {key}={value}, {protocol}): {type(exc).__name__}: {exc}"
            for (key, value), exc in errors)) from errors[0][1]
    return _TimePayload(cells=out_cells, onsets=onsets, overlaps=overlaps,
                        holevo_evaluations=evaluations)


# Worker-side state for process pools, installed once per worker.
_WORKER: Dict[str, object] = {}


def _worker_init(config: RunConfig, couplings: CouplingSet,
                 time_grid: np.ndarray) -> None:
    _WORKER["config"] = config
    _WORKER["couplings"] = couplings
    _WORKER["time_grid"] = time_grid


def _worker_run(task: Tuple[str, int]) -> _TimePayload:
    protocol, t_index = task
    return _compute_time_point(_WORKER["config"], _WORKER["couplings"],
                               _WORKER["time_grid"], protocol, t_index)


def _fi_soft_violations(
        trajectories: Sequence[RedundancyTrajectory]) -> int:
    """Count FI decreases along t that exceed the adjacent CI widths.

    Sampling noise can make FI dip; a dip is only flagged when it is
    larger than the sum of the two points' FI interval widths, and the
    count is advisory (exposed in RunStats, never fatal).
    """
    def width(p: OnsetEstimate) -> Optional[float]:
        if p.m_star_lo is None or p.m_star_hi is None:
            return None
        return math.log2(p.m_star_hi / p.m_star_lo)

    violations = 0
    for traj in trajectories:
        present = [p for p in traj.points if p.fi is not None]
        for a, b in zip(present, present[1:]):
            wa, wb = width(a), width(b)
            if wa is None or wb is None:
                continue
            if b.fi < a.fi - (wa + wb):
                violations += 1
    return violations


def run_sweep(config: RunConfig, threads: int = 1) -> SweepResult:
    """Execute the full counting pipeline for one configuration.

    threads > 1 fans the (protocol, t) work units over a process pool of
    at most one worker per unit; the result is identical for any thread
    count because all randomness is derived per cell and assembly order
    is canonical.
    """
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    couplings = config.couplings()
    time_grid = build_time_grid(config.time_grid)
    tasks = [(protocol, t_index)
             for protocol in config.protocols
             for t_index in range(time_grid.size)]

    if threads == 1:
        payloads = [_compute_time_point(config, couplings, time_grid, p, i)
                    for p, i in tasks]
    else:
        with ProcessPoolExecutor(
                max_workers=min(threads, len(tasks)),
                initializer=_worker_init,
                initargs=(config, couplings, time_grid)) as pool:
            payloads = list(pool.map(_worker_run, tasks))

    # Payloads come back in task order: protocol-major, then time.
    cells: List[AdequacyCell] = []
    overlaps: List[OverlapRecord] = []
    evaluations = 0
    for payload in payloads:
        cells.extend(payload.cells)
        overlaps.extend(payload.overlaps)
        evaluations += payload.holevo_evaluations
    n_t = time_grid.size
    trajectories = [
        RedundancyTrajectory(
            delta=delta, protocol=protocol,
            points=tuple(p.onsets[d_index]
                         for p in payloads[p_index * n_t:(p_index + 1) * n_t]))
        for p_index, protocol in enumerate(config.protocols)
        for d_index, delta in enumerate(config.deltas)]

    cells.sort(key=lambda c: (c.t, c.m, c.delta, c.protocol))
    overlaps.sort(key=lambda o: (o.t, o.m, o.protocol))
    stats = RunStats(
        holevo_evaluations=evaluations,
        fi_soft_violations=_fi_soft_violations(trajectories))
    return SweepResult(config=config, couplings=couplings,
                       time_grid=time_grid, cells=tuple(cells),
                       trajectories=tuple(trajectories),
                       overlaps=tuple(overlaps), stats=stats)


@dataclass(frozen=True)
class OracleCell:
    t: float
    m: int
    delta: float
    phi_hat: float
    phi_exact: float
    ci_low: float
    ci_high: float
    within: bool


@dataclass(frozen=True)
class OracleReport:
    """Sampled-vs-exact adequacy comparison for an enumerable environment."""

    cells: Tuple[OracleCell, ...]
    max_abs_deviation: float
    fraction_within: float
    passed: bool


def oracle_report(config: RunConfig) -> OracleReport:
    """Cross-check the sweep's fragment -> cell kernel against enumeration.

    Requires C(N, m) within the enumeration cap for every m on the grid.
    At three times (quartile indices of the grid) the kernel counts each
    cell's random family and the exact family of all C(N, m) fragments;
    a cell passes when the exact fraction falls inside the sampled
    (1 - ORACLE_BAND_ALPHA) Wilson band, and the report passes when at
    least ORACLE_MIN_FRACTION of cells do.
    """
    _check_enumerable(config)
    couplings = config.couplings()
    time_grid = build_time_grid(config.time_grid)
    n_t = time_grid.size
    t_indices = sorted({n_t // 4, n_t // 2, (3 * n_t) // 4})
    tols = _tolerances(config)

    def family_cells(t: float, sample: FragmentSample) -> List[AdequacyCell]:
        _, flags = _adequacy(config, t, _coupling_sums(couplings, sample),
                             tols)
        return _cells(flags, 0, sample.n_fragments, t, sample.m,
                      sample.protocol, tols, ORACLE_BAND_ALPHA)

    # The exact family depends on m only: enumerate it once per m, then
    # report cells in (t, m, delta) order.
    by_coords: Dict[Tuple[int, int], List[OracleCell]] = {}
    for m_index, m in enumerate(config.m_grid):
        exact_sample = enumerate_fragments(config.n_sites, m)
        for t_index in t_indices:
            t = float(time_grid[t_index])
            sampled = family_cells(
                t, _sample_cell(config, t_index, m_index, "random"))
            exact = family_cells(t, exact_sample)
            by_coords[(t_index, m_index)] = [
                OracleCell(t=t, m=m, delta=s.delta, phi_hat=s.p_hat,
                           phi_exact=e.p_hat, ci_low=s.ci_low,
                           ci_high=s.ci_high,
                           within=s.ci_low <= e.p_hat <= s.ci_high)
                for s, e in zip(sampled, exact)]
    out = [c for coords in sorted(by_coords) for c in by_coords[coords]]

    max_dev = max(abs(c.phi_hat - c.phi_exact) for c in out)
    frac = sum(c.within for c in out) / len(out)
    return OracleReport(cells=tuple(out), max_abs_deviation=max_dev,
                        fraction_within=frac,
                        passed=frac >= ORACLE_MIN_FRACTION)

"""Sweep orchestration: quenched couplings, adaptive time grid, cell loop.

One run draws couplings once and walks an adaptive time grid (geometric
before the knee where onsets move fast, linear after), which
build_time_grid returns read-only; _run_inputs keeps both, per process,
for the last config asked for.  Each (protocol, t) work unit takes the
config and its coordinates, runs _count_stage, then _onset_stage on its
counts (their docstrings state each phase), and returns its cells,
overlaps and onsets as arrays, not as records.  run_sweep copies each
block into one preallocated array whose axes follow the config: the
time grid, m_grid, deltas and protocols, in the config's order.
SweepResult.cells, .overlaps and .onsets are those arrays, read-only;
RedundancyTrajectory.of views onset columns as trajectories, for a run
and for io's read-back, and io alone orders every CSV's rows.

Determinism contract: every random decision derives its seed from the
master seed and the cell coordinates through an avalanche mixer, and
results are assembled in canonical order, so output is byte-identical
for any thread count.  Workers therefore communicate nothing but the
config, unit coordinates and finished payloads.  One thread runs every
work unit in the calling process, which never imports the process-pool
modules (concurrent.futures, multiprocessing); run_sweep imports them
only when it starts a pool.
"""

from __future__ import annotations

import math
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .estimation import (IsotonicCurve, _bootstrap_counts, adequacy_cell,
                         combine_onset_ci, isotonic_fit, onset_ci_inversion,
                         onset_from_curve, redundancy_fi)
from .model import (ENTROPY_FLOOR, CouplingSet, Tolerance, binary_entropy,
                    holevo_biased, is_adequate)
from .sampling import (ENUMERATION_CAP, PROTOCOLS, FragmentSample,
                       enumerate_fragments, estimate_overlap_eta,
                       partition_disjoint, sample_random_fragments)

__all__ = [
    "ConfigError",
    "SweepCellError",
    "TimeGridSpec",
    "RunConfig",
    "RedundancyTrajectory",
    "RunStats",
    "CELL_DTYPE",
    "ONSET_DTYPE",
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

# An upper bound on numpy's Exp(1) variates: the ziggurat's tail returns
# r - log1p(-u) with r = 7.697 and u <= 1 - 2**-53, at most 44.434; the
# margin covers the rounding of a sum of up to N couplings.
_EXP_VARIATE_MAX = 44.5

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
        build_time_grid(self)    # anchors too close for a rising grid fail


def build_time_grid(spec: TimeGridSpec) -> np.ndarray:
    """Materialize the grid, read-only; strictly increasing, endpoints
    included."""
    dense = np.geomspace(spec.t_min, spec.t_knee, spec.n_dense)
    steps = np.arange(1, spec.n_coarse + 1, dtype=float) / spec.n_coarse
    coarse = spec.t_knee + (spec.t_max - spec.t_knee) * steps
    grid = np.concatenate([dense, coarse])
    if not np.all(np.diff(grid) > 0.0):
        raise ConfigError("time grid failed to be strictly increasing")
    grid.flags.writeable = False
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
        # the couplings are drawn with scale 1 / coupling_rate, so none of
        # them, and no sum of up to N of them, may overflow
        min_rate = self.n_sites * _EXP_VARIATE_MAX / sys.float_info.max
        if not (min_rate <= self.coupling_rate < math.inf):
            raise ConfigError(
                f"coupling_rate must be positive with a finite reciprocal "
                f"and at least N * {_EXP_VARIATE_MAX} / float max = "
                f"{min_rate:.4g}, got {self.coupling_rate}")
        # the log overlap is -g^2 t^2 times a coupling sum; its bound is
        # taken in the sweep's product order, and _EXP_VARIATE_MAX's margin
        # over the largest variate (0.15%) covers the rounding of the sum,
        # of t_max on the grid and of the products
        t_max = self.time_grid.t_max
        log_overlap_max = ((self.g * self.g) * (t_max * t_max)
                           * (self.n_sites * _EXP_VARIATE_MAX
                              / self.coupling_rate))
        if not (math.isfinite(log_overlap_max) and self.g > 0.0):
            raise ConfigError(
                f"g must be positive with a finite square and a finite "
                f"g^2 * t_max^2 * N * {_EXP_VARIATE_MAX} / coupling_rate, "
                f"got {self.g}")
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
        # binary_entropy clips its argument, so a threshold at or below
        # what a clipped chi reads would let the clip decide adequacy
        d_max = max(self.deltas)
        if not (1.0 - d_max) * binary_entropy(self.p0) > ENTROPY_FLOOR:
            raise ConfigError(
                f"p0 = {self.p0} with delta = {d_max} gives an adequacy "
                f"threshold (1 - delta) * H(p0) at or below the entropy "
                f"floor {ENTROPY_FLOOR:.4g}; move p0 toward 1/2")
        if not (0.0 < self.theta < 1.0):
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta}")
        if not self.protocols:
            raise ConfigError("protocols must be nonempty")
        for p in self.protocols:
            # a tuple test needs no hash, so an unhashable entry is unknown
            if p not in PROTOCOLS:
                raise ConfigError(
                    f"unknown protocol {p!r}; choose from {sorted(PROTOCOLS)}")
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
        for m in self.m_grid if "exhaustive" in self.protocols else ():
            count = math.comb(self.n_sites, m)
            if count > ENUMERATION_CAP:
                raise ConfigError(
                    f"m = {m} is not enumerable: C({self.n_sites}, {m}) = "
                    f"{count} exceeds the enumeration cap {ENUMERATION_CAP}")
        if not (0 <= self.master_seed <= _MASK64):
            raise ConfigError("master_seed must fit in 64 bits")

    def couplings(self) -> CouplingSet:
        """The run's quenched couplings, drawn from the master seed."""
        seed = derive_cell_seed(self.master_seed, purpose=PURPOSE_COUPLINGS)
        return CouplingSet.exponential(self.n_sites, self.coupling_rate,
                                       self.g, seed)


@dataclass(frozen=True, eq=False)
class RedundancyTrajectory:
    """One (delta, protocol)'s times t and ONSET_DTYPE onset at each."""

    delta: float
    protocol: str
    t: np.ndarray
    onsets: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.t[1:] <= self.t[:-1]):
            raise ConfigError("trajectory times must be strictly increasing")

    @classmethod
    def of(cls, config: RunConfig, t: np.ndarray,
           onsets: np.ndarray) -> Tuple[RedundancyTrajectory, ...]:
        """The trajectories of a (t, delta, protocol) onset array, one per
        (protocol, delta) in config order: views of t and of one column."""
        return tuple(cls(delta, protocol, t, onsets[:, d_index, p_index])
                     for p_index, protocol in enumerate(config.protocols)
                     for d_index, delta in enumerate(config.deltas))


@dataclass(frozen=True)
class RunStats:
    """Cross-checks exposed by the engine, not part of the science output."""

    holevo_evaluations: int
    fi_soft_violations: int


# One cell's numbers in a work unit's block and in the run table; its
# coordinates are the table's axes, in config order.
CELL_DTYPE = np.dtype([("n", np.int64), ("k", np.int64),
                       ("ci_low", np.float64), ("ci_high", np.float64),
                       ("phi_iso", np.float64)])

# One onset's numbers, at its (t, delta, protocol) in the result; an absent
# m is 0 (every grid m is >= 1) and an absent real NaN.
ONSET_DTYPE = np.dtype([("m_star", np.int64), ("m_star_lo", np.int64),
                        ("m_star_hi", np.int64), ("r", np.float64),
                        ("r_eff", np.float64), ("eta", np.float64),
                        ("fi", np.float64), ("fi_eff", np.float64)])


@dataclass(frozen=True, eq=False)
class SweepResult:
    config: RunConfig
    couplings: CouplingSet
    time_grid: np.ndarray
    cells: np.ndarray    # CELL_DTYPE, (t, m, delta, protocol), read-only
    onsets: np.ndarray    # ONSET_DTYPE, (t, delta, protocol), read-only
    overlaps: np.ndarray    # float64 eta, (t, m, protocol), NaN = no estimate
    stats: RunStats

    @property
    def trajectories(self) -> Tuple[RedundancyTrajectory, ...]:
        """Per (protocol, delta) in config order, views of t and onsets."""
        return RedundancyTrajectory.of(self.config, self.time_grid,
                                       self.onsets)


@lru_cache(maxsize=1)
def _run_inputs(config: RunConfig) -> Tuple[CouplingSet, np.ndarray]:
    """The run's couplings and read-only time grid, drawn once per process
    for the last config asked for; a forked worker inherits them."""
    return config.couplings(), build_time_grid(config.time_grid)


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


@contextmanager
def _reported(errors: List[Tuple[tuple, Exception]], *where: tuple):
    """Record the body's exception once per coordinate in ``where``."""
    try:
        yield
    except Exception as exc:  # aggregated, reported with coordinates
        errors.extend((w, exc) for w in where)


def cell_chi_values(config: RunConfig, t_index: int, m_index: int,
                    protocol: str) -> np.ndarray:
    """Per-fragment Holevo information chi for one cell.

    This is the exact computation the sweep performs, on the couplings
    and time grid the config draws and the same derived seed, so post-hoc
    diagnostics can recover the fragment-level distribution without
    storing it.  An index off the config's grids or an unknown protocol
    raises ConfigError naming it.
    """
    couplings, time_grid = _run_inputs(config)
    for name, value, valid in (("t_index", t_index, range(time_grid.size)),
                               ("m_index", m_index, range(len(config.m_grid))),
                               ("protocol", protocol, PROTOCOLS)):
        if value not in valid:
            raise ConfigError(f"{name} {value!r} is not in {valid}")
    sample = _sample_cell(config, t_index, m_index, protocol)
    return _adequacy(config, float(time_grid[t_index]),
                     _coupling_sums(couplings, sample), ())[0]


@dataclass
class _TimePayload:
    """Everything one (protocol, t) work unit produces."""

    cells: np.ndarray    # CELL_DTYPE, (m, delta), deltas in config order
    onsets: np.ndarray    # ONSET_DTYPE, (delta,), in config order
    overlaps: np.ndarray    # float64 eta, (m,), NaN for a single fragment
    holevo_evaluations: int


def _raise_failures(t: float, protocol: str, errors: list) -> None:
    """Raise one SweepCellError naming each ((key, value), exception)."""
    if errors:
        raise SweepCellError("cell failures: " + "; ".join(
            f"(t={t}, {key}={value}, {protocol}): {type(exc).__name__}: {exc}"
            for (key, value), exc in errors)) from errors[0][1]


def _count_stage(config: RunConfig, protocol: str,
                 t_index: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """A work unit's count stage: the (m, delta) CELL_DTYPE cells with NaN
    phi_iso, the (m,) overlap etas and the Holevo evaluation count.  Per m,
    it samples the fragment family, keeps only each fragment's coupling
    sum, dropping its index block before the next draw, and estimates the
    pair overlap.  The sums of consecutive families wait in one block of
    at most _CHI_BLOCK fragments (a larger family is a block of its own);
    before the next family would overfill it, one Holevo pass gives every
    fragment's chi and adequacy flag per delta, and each (t, m, delta)
    cell counts its slice, keeping no record.  Blocking changes how many
    calls do the work, not the work or any output byte, and a unit holds
    one block of sums at a time.  A failed chi pass names every (t, m) of
    its block, a failed family or cell its own (t, m), all in one
    SweepCellError."""
    couplings, time_grid = _run_inputs(config)
    t = float(time_grid[t_index])
    entropy = binary_entropy(config.p0)
    tols = [Tolerance.for_entropy(d, entropy) for d in config.deltas]
    proto_id = _PROTOCOL_IDS[protocol]
    errors: List[Tuple[tuple, Exception]] = []
    block: List[Tuple[int, np.ndarray]] = []
    table = np.empty((len(config.m_grid), len(tols)), dtype=CELL_DTYPE)
    evaluations = 0

    def evaluate_block() -> None:
        nonlocal evaluations
        with _reported(errors, *(("m", config.m_grid[i]) for i, _ in block)):
            chi, flags = _adequacy(
                config, t, np.concatenate([s for _, s in block]), tols)
            evaluations += int(chi.size)
            start = 0
            for m_index, sums in block:
                stop = start + sums.size
                with _reported(errors, ("m", config.m_grid[m_index])):
                    cells = [adequacy_cell(f[start:stop], config.alpha)
                             for f in flags]
                    table[m_index] = [(c.n, c.k, c.ci_low, c.ci_high,
                                       math.nan) for c in cells]
                start = stop
        block.clear()

    etas = np.full(len(config.m_grid), math.nan)
    for m_index, m in enumerate(config.m_grid):
        with _reported(errors, ("m", m)):
            sample = _sample_cell(config, t_index, m_index, protocol)
            sums = _coupling_sums(couplings, sample)
            if sample.n_fragments >= 2:
                pair_seed = derive_cell_seed(config.master_seed, t_index,
                                             m_index, 0, proto_id,
                                             PURPOSE_PAIRS)
                etas[m_index] = estimate_overlap_eta(
                    sample, config.overlap_pairs, pair_seed).eta
            del sample
            if block and (sum(s.size for _, s in block) + sums.size
                          > _CHI_BLOCK):
                evaluate_block()
            block.append((m_index, sums))
    if block:
        evaluate_block()
    _raise_failures(t, protocol, errors)
    return table, etas, evaluations


def _onset_stage(config: RunConfig, protocol: str, t_index: int,
                 cells: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """A work unit's onset stage: the (delta,) ONSET_DTYPE onsets of a
    successful count stage's cells and etas (onsets need every cell of
    the time point).  Per delta, the adequate fractions are isotonically
    smoothed along m into the cells' phi_iso, the onset is extracted, the
    Wilson-inversion and bootstrap bounds are combined, and R and FI are
    taken at the onset with its m's eta; a failed delta names its
    (t, delta), all in one SweepCellError."""
    t = float(_run_inputs(config)[1][t_index])
    proto_id = _PROTOCOL_IDS[protocol]
    errors: List[Tuple[tuple, Exception]] = []
    onsets = np.empty(len(config.deltas), dtype=ONSET_DTYPE)
    m_arr = np.asarray(config.m_grid, dtype=np.int64)
    for d_index, delta in enumerate(config.deltas):
        column = cells[:, d_index]
        with _reported(errors, ("delta", delta)):
            n_arr = column["n"].astype(float)
            k_arr = column["k"].astype(float)
            iso = isotonic_fit(k_arr / n_arr, n_arr)
            column["phi_iso"] = iso
            m_star = onset_from_curve(IsotonicCurve(m_arr, iso), config.theta)
            m_lo, m_hi = onset_ci_inversion(m_arr, n_arr, column["ci_low"],
                                            column["ci_high"], config.theta)
            boot_seed = derive_cell_seed(config.master_seed, t_index, 0,
                                         d_index, proto_id, PURPOSE_BOOTSTRAP)
            boot = _bootstrap_counts(
                m_arr, k_arr, n_arr, config.theta, config.alpha,
                config.bootstrap_replicates, boot_seed)
            m_lo, m_hi = combine_onset_ci((m_lo, m_hi), boot)

            eta = r = r_eff = fi = fi_eff = math.nan
            if m_star is not None:
                # a single-fragment family (NaN) and pairs that all saw one
                # set (eta = 1, as at m = N) leave the onset uncorrected
                eta = float(etas[config.m_grid.index(m_star)])
                eta = eta if eta < 1.0 else 0.0
                r, r_eff, fi, fi_eff = redundancy_fi(config.n_sites, m_star,
                                                     eta)
            onsets[d_index] = (m_star or 0, m_lo or 0, m_hi or 0, r, r_eff,
                               eta, fi, fi_eff)
    _raise_failures(t, protocol, errors)
    return onsets


def _compute_time_point(config: RunConfig, protocol: str,
                        t_index: int) -> _TimePayload:
    """One (protocol, t) work unit: _onset_stage after _count_stage."""
    cells, etas, evaluations = _count_stage(config, protocol, t_index)
    onsets = _onset_stage(config, protocol, t_index, cells, etas)
    return _TimePayload(cells=cells, onsets=onsets, overlaps=etas,
                        holevo_evaluations=evaluations)


def _fi_soft_violations(onsets: np.ndarray) -> int:
    """Count FI decreases along t, onsets' first axis, that exceed the
    adjacent CI widths.

    Sampling noise can make FI dip; a dip between consecutive present
    onsets of a trajectory is only flagged when it is larger than the sum
    of the two points' FI interval widths, and the count is advisory
    (exposed in RunStats, never fatal).
    """
    rows = onsets.reshape(len(onsets), -1).T    # one per trajectory
    present = rows["m_star"] > 0
    owner, points = np.nonzero(present)[0], rows[present]
    lo, hi, fi = points["m_star_lo"], points["m_star_hi"], points["fi"]
    # math.log2, as np.log2 can be one ulp off; NaN without both bounds
    log2_ratio = np.frompyfunc(
        lambda a, b: math.log2(b / a) if a and b else math.nan, 2, 1)
    width = log2_ratio(lo, hi).astype(float)
    dip = fi[1:] < fi[:-1] - (width[:-1] + width[1:])
    return int(np.count_nonzero(dip & (owner[1:] == owner[:-1])))


def run_sweep(config: RunConfig, threads: int = 1) -> SweepResult:
    """Execute the full counting pipeline for one configuration.

    threads = 1 runs the (protocol, t) work units in this process and
    imports no process-pool module.  threads > 1 imports
    concurrent.futures just before it starts a pool of min(threads,
    units) worker processes; each unit receives only the config and its
    coordinates, and each worker draws the couplings and time grid at
    most once (_run_inputs).  The result is identical for any thread
    count because all randomness is derived per cell and assembly order
    is canonical.  Each unit's blocks of cells, overlaps and onsets are
    copied into the run table, the overlap array and the onset array as
    they arrive, at its time and protocol; their axes follow the config,
    and they and the time grid are read-only.
    """
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    couplings, time_grid = _run_inputs(config)
    n_t = time_grid.size
    protocols = [p for p in config.protocols for _ in range(n_t)]
    t_indices = list(range(n_t)) * len(config.protocols)
    unit = partial(_compute_time_point, config)

    table = np.empty((n_t, len(config.m_grid), len(config.deltas),
                      len(config.protocols)), dtype=CELL_DTYPE)
    overlaps = np.empty((n_t, len(config.m_grid), len(config.protocols)))
    onsets = np.empty((n_t, len(config.deltas), len(config.protocols)),
                      dtype=ONSET_DTYPE)
    evaluations = 0

    def gather(payloads) -> None:
        # payloads come in task order: protocol-major, then time
        nonlocal evaluations
        for task, payload in enumerate(payloads):
            p_index, t_index = divmod(task, n_t)
            table[t_index, :, :, p_index] = payload.cells
            overlaps[t_index, :, p_index] = payload.overlaps
            onsets[t_index, :, p_index] = payload.onsets
            evaluations += payload.holevo_evaluations

    if threads == 1:
        gather(map(unit, protocols, t_indices))
    else:
        # imported here, so a one-worker run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=min(threads, len(protocols))) as pool:
            gather(pool.map(unit, protocols, t_indices))
    for array in (table, overlaps, onsets):
        array.flags.writeable = False

    stats = RunStats(holevo_evaluations=evaluations,
                     fi_soft_violations=_fi_soft_violations(onsets))
    return SweepResult(config=config, couplings=couplings,
                       time_grid=time_grid, cells=table, onsets=onsets,
                       overlaps=overlaps, stats=stats)


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Sampled-vs-exact adequacy comparison for an enumerable environment:
    the grid times checked and, at each, the random and the exhaustive
    cells as CELL_DTYPE tables of shape (time, m, delta), from the count
    stage only, so their phi_iso is NaN."""

    times: np.ndarray
    sampled: np.ndarray
    exact: np.ndarray
    max_abs_deviation: float
    fraction_within: float
    passed: bool


def oracle_report(config: RunConfig) -> OracleReport:
    """Cross-check sampled adequacy against exact enumeration.

    At three times (quartile indices of the grid) runs the count stage of
    simulate's own (protocol, t) work unit, _count_stage, and never its
    onset stage, for the random protocol and for the exhaustive family of
    all C(N, m) fragments, with the Wilson band at ORACLE_BAND_ALPHA; the
    tables' phi_iso is therefore NaN.  The config with those protocols
    must validate, so every C(N, m) on the grid must fit the enumeration
    cap.  Each protocol's (m, delta) blocks are stacked into one (time,
    m, delta) table, with m and delta in config order.  A cell passes
    when the exact fraction k/n falls inside the sampled (1 -
    ORACLE_BAND_ALPHA) Wilson band, and the report passes when at least
    ORACLE_MIN_FRACTION of cells do.
    """
    config = replace(config, protocols=("random", "exhaustive"),
                     alpha=ORACLE_BAND_ALPHA)
    time_grid = _run_inputs(config)[1]
    n_t = time_grid.size
    t_indices = sorted({n_t // 4, n_t // 2, (3 * n_t) // 4})
    sampled, exact = (
        np.stack([_count_stage(config, protocol, t_index)[0]
                  for t_index in t_indices])
        for protocol in config.protocols)
    phi_exact = exact["k"] / exact["n"]
    within = ((sampled["ci_low"] <= phi_exact)
              & (phi_exact <= sampled["ci_high"]))
    frac = np.count_nonzero(within) / within.size
    return OracleReport(
        times=time_grid[t_indices], sampled=sampled, exact=exact,
        max_abs_deviation=float(np.max(np.abs(
            sampled["k"] / sampled["n"] - phi_exact))),
        fraction_within=frac, passed=frac >= ORACLE_MIN_FRACTION)

"""Config files and result tables.

Config format is flat ``key = value`` text: one assignment per line,
``#`` starts a comment, list values are comma-separated.  Unknown and
duplicate keys are hard errors; silent typos corrupt science.

Tables are UTF-8 CSV with LF line endings.  Reals are written with
shortest round-trip representation (17 significant digits when needed),
absent values as empty fields.  Writing is deterministic: identical
inputs give byte-identical files.  Rows may be any iterable, consumed
once and written one at a time, so a table never sits in memory whole.
A row that fails to format leaves the file written up to it, and the
error propagates (simulate exits 2).

Every file is read through _read_text, every config through parse_config
and every onset.csv row through read_onset_table: each raises ConfigError
naming the file it rejects.  The result's arrays keep their axes in
config order, and one walker, _in_csv_order, gives every simulate table
its row order: by t, then m, then delta by value, then protocol by name.
onset.csv reads back into the onsets' (t, delta, protocol) layout and the
run's own trajectories (RedundancyTrajectory.of).
"""

from __future__ import annotations

import math
from itertools import product
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__
from .analysis import ScalingFit, SlopeFit, SummaryRow
from .sweep import (CONFIG_KEYS, GRID_PREFIX, ONSET_DTYPE, ConfigError,
                    RedundancyTrajectory, RunConfig, SweepResult, TimeGridSpec,
                    build_time_grid)

__all__ = [
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "write_csv",
    "write_tables",
    "write_analysis",
    "read_metadata",
    "read_onset_table",
    "METADATA_NAME",
]

METADATA_NAME = "run_metadata.txt"

PHI_HEADER = "t,m,delta,protocol,n,k,phi_hat,phi_iso,ci_low,ci_high"
ONSET_HEADER = ("t,delta,protocol,theta,m_star,m_star_lo,m_star_hi,"
                "R,R_eff,eta,FI,FI_eff")
OVERLAP_HEADER = "t,m,protocol,eta,pairs"
SLOPES_HEADER = ("delta,kappa,kappa_base2,intercept,r2,"
                 "window_t_start,window_t_end,n_points")
SCALING_HEADER = "delta,exponent,n_points"
SUMMARY_HEADER = "delta,max_R,final_FI,kappa,r2,t_star"


def parse_config_text(text: str) -> RunConfig:
    """Parse config text; see parse_config."""
    main: Dict[str, object] = {}
    grid: Dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parse = CONFIG_KEYS[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r}: {exc}") from None
        if attr.startswith(GRID_PREFIX):
            grid[attr.removeprefix(GRID_PREFIX)] = parsed
        else:
            main[attr] = parsed
    if grid:
        main["time_grid"] = TimeGridSpec(**grid)
    return RunConfig(**main)


def parse_config(path) -> RunConfig:
    """Read a flat key = value config file into a RunConfig.

    An empty file yields the full-default configuration.  Unknown keys,
    duplicate keys, malformed values and invalid configs raise ConfigError
    naming the file, and the line where there is one; so does a file that
    cannot be read or is not UTF-8.
    """
    text = _read_text(Path(path))
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _read_text(path: Path) -> str:
    """The text of a config or run file, less a leading byte-order mark;
    ConfigError naming the path if it is missing, a directory, unreadable
    or not UTF-8."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: byte {exc.start} "
                          f"({exc.reason})") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None


def _fmt(value) -> str:
    """Shortest round-trip formatting; absent values become empty fields."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def serialize_config(config: RunConfig) -> str:
    """Render a RunConfig as config text that parses back identically."""
    lines = []
    for key, (attr, _) in CONFIG_KEYS.items():
        value = attrgetter(attr)(config)
        if isinstance(value, tuple):
            text = ", ".join(_fmt(v) for v in value)
        else:
            text = _fmt(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def write_csv(path: Path, header: str,
              rows: Iterable[Iterable[object]]) -> None:
    """Write one header line and the formatted rows, LF-terminated.

    rows is any iterable, consumed once; each row is formatted and
    written before the next is drawn.  A row that fails to format raises
    and leaves the file holding the header and the rows before it.
    """
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _in_csv_order(time_grid: np.ndarray, array: np.ndarray,
                  *axes: Sequence) -> Iterator[Tuple[float, tuple, object]]:
    """Yield (t, key, entry) for every entry of ``array`` in the row order
    of every simulate table: by t, then by each later axis in value order
    (protocols by name).  ``array``'s axes are the time grid and then
    ``axes``, each in config order; key is the entry's axis values.  The
    array is converted one time point at a time."""
    orders = [sorted(range(len(axis)), key=axis.__getitem__)
              for axis in axes]
    keys = list(product(*([axis[i] for i in order]
                          for axis, order in zip(axes, orders))))
    gather = np.ix_(*orders)
    for t, block in zip(time_grid.tolist(), array):
        for key, entry in zip(keys, block[gather].ravel().tolist()):
            yield t, key, entry


def _phi_rows(result: SweepResult) -> Iterator[Tuple[object, ...]]:
    """phi.csv's rows, one per cell."""
    config = result.config
    for t, key, (n, k, ci_low, ci_high, phi_iso) in _in_csv_order(
            result.time_grid, result.cells, config.m_grid, config.deltas,
            config.protocols):
        yield (t, *key, n, k, k / n, phi_iso, ci_low, ci_high)


def _overlap_rows(result: SweepResult) -> Iterator[Tuple[object, ...]]:
    """overlap.csv's rows, with none where the overlap array holds NaN (a
    family of a single fragment).  Every estimate stands for the config's
    overlap_pairs pairs."""
    config = result.config
    for t, key, eta in _in_csv_order(result.time_grid, result.overlaps,
                                     config.m_grid, config.protocols):
        if not math.isnan(eta):
            yield (t, *key, eta, config.overlap_pairs)


def _onset_rows(result: SweepResult) -> Iterator[Tuple[object, ...]]:
    """onset.csv's rows, with an absent m (0) or real (NaN) as an empty
    field."""
    config = result.config
    for t, key, row in _in_csv_order(result.time_grid, result.onsets,
                                     config.deltas, config.protocols):
        yield (t, *key, config.theta, *(m or None for m in row[:3]),
               *(None if math.isnan(v) else v for v in row[3:]))


def _write_run(config: RunConfig,
               tables: Sequence[Tuple[str, str, Iterable[Iterable[object]]]],
               out_dir) -> Dict[str, Path]:
    """Write run metadata, then each (name, header, rows) as name.csv.

    run_metadata.txt echoes the full configuration (plus the package
    version as a comment) and parses back to the identical RunConfig.
    Returns name -> path for every file written, "metadata" included.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = out / METADATA_NAME
    meta.write_text(
        f"# run metadata, version {__version__}\n"
        "# parses back to the generating configuration\n"
        + serialize_config(config),
        encoding="utf-8", newline="")
    written = {"metadata": meta}
    for name, header, rows in tables:
        path = out / f"{name}.csv"
        write_csv(path, header, rows)
        written[name] = path
    return written


def write_tables(result: SweepResult, out_dir) -> Dict[str, Path]:
    """Write simulate's output; returns name -> path.

    The files are run_metadata.txt, phi.csv, onset.csv and overlap.csv.
    Nothing that varies between reruns of one config (wall time, host,
    worker count) is written, so reruns are byte-identical.
    """
    return _write_run(result.config, [
        ("phi", PHI_HEADER, _phi_rows(result)),
        ("onset", ONSET_HEADER, _onset_rows(result)),
        ("overlap", OVERLAP_HEADER, _overlap_rows(result)),
    ], out_dir)


def write_analysis(config: RunConfig,
                   slope_fits: Sequence[Tuple[float, Optional[SlopeFit]]],
                   scalings: Sequence[Tuple[float, Optional[ScalingFit]]],
                   summaries: Sequence[SummaryRow],
                   out_dir) -> Dict[str, Path]:
    """Write analyze's output; returns name -> path.

    The files are run_metadata.txt, slopes.csv, scaling.csv and
    summary.csv.  slope_fits and scalings pair each delta with a
    possibly-absent fit, so the written rows cover every configured delta.
    """
    slopes = [[delta, None, None, None, None, None, None, None]
              if fit is None else
              [delta, fit.kappa, fit.kappa_base2, fit.intercept, fit.r2,
               fit.t_start, fit.t_end, fit.n_points]
              for delta, fit in slope_fits]
    scaling = [[delta, fit.exponent if fit else None,
                fit.n_points if fit else None] for delta, fit in scalings]
    summary = [[s.delta, s.max_r, s.final_fi, s.kappa, s.r2, s.t_star]
               for s in summaries]
    return _write_run(config, [
        ("slopes", SLOPES_HEADER, slopes),
        ("scaling", SCALING_HEADER, scaling),
        ("summary", SUMMARY_HEADER, summary),
    ], out_dir)


def read_metadata(run_dir) -> RunConfig:
    """Recover the RunConfig echoed into a run directory."""
    return parse_config(Path(run_dir) / METADATA_NAME)


def _onset_value(name: str, text: str, m_grid: Sequence[int]):
    """One value field of an onset.csv row: 0 (an m) or NaN (a real) when
    empty; else ValueError unless an m is on m_grid and a real finite."""
    is_m = name.startswith("m_star")
    if not text:
        return 0 if is_m else math.nan
    value = int(text) if is_m else float(text)
    if is_m and value not in m_grid:
        raise ValueError(f"{name} {value} is not on the config's m grid")
    if not (is_m or math.isfinite(value)):
        raise ValueError(f"{name} {text} is not a finite number")
    return value


def read_onset_table(
        run_dir, config: RunConfig) -> Tuple[RedundancyTrajectory, ...]:
    """Rebuild trajectories from onset.csv, in (protocol, delta) config order.

    Rows may come in any order.  Each must parse into the header's 12
    fields, with the config's theta, a grid t, a configured delta and
    protocol, m values empty or on the config's m grid, and R to FI_eff
    finite and empty exactly when m_star is, and be the first row of its
    (t, delta, protocol); else ConfigError names the file and the line.
    A (t, delta, protocol) with no row is named after the last line.
    The rows fill one read-only ONSET_DTYPE array in SweepResult.onsets'
    (t, delta, protocol) layout, an empty m read as 0 and an empty real
    as NaN; a trajectory's onsets are a view of one of its columns.
    """
    path = Path(run_dir) / "onset.csv"
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != ONSET_HEADER:
        raise ConfigError(f"{path} has an unexpected header")
    names = ONSET_HEADER.split(",")
    times = build_time_grid(config.time_grid)
    t_at, d_at, p_at = ({v: i for i, v in enumerate(values)} for values in
                        (times.tolist(), config.deltas, config.protocols))
    shape = (times.size, len(config.deltas), len(config.protocols))
    table = np.empty(shape, dtype=ONSET_DTYPE)
    read = np.zeros(shape, dtype=bool)
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(f"{len(fields)} fields, not {len(names)}")
            t, delta, protocol, theta, *values = fields
            if float(theta) != config.theta:
                raise ValueError(f"theta {theta} is not the config's "
                                 f"{config.theta}")
            if float(t) not in t_at:
                raise ValueError(f"t {t} is not one of the config's "
                                 f"{times.size} grid times")
            at = t_at[float(t)], d_at[float(delta)], p_at[protocol]
            if read[at]:
                raise ValueError(f"a second row for t {t}, delta {delta}, "
                                 f"protocol {protocol!r}")
            row = tuple(_onset_value(name, text, config.m_grid)
                        for name, text in zip(names[4:], values))
            if {math.isnan(v) for v in row[3:]} != {row[0] == 0}:
                raise ValueError("R, R_eff, eta, FI and FI_eff must be empty "
                                 "exactly when m_star is")
        except ValueError as exc:
            raise ConfigError(f"{path}, line {lineno}: {exc}") from None
        except KeyError:
            raise ConfigError(
                f"{path}, line {lineno}: protocol {protocol!r}, delta "
                f"{delta} is not in the run's config") from None
        table[at] = row
        read[at] = True
    if not read.all():
        t, d, p = np.argwhere(~read)[0]
        raise ConfigError(
            f"{path} lacks rows: none for t {float(times[t])}, delta "
            f"{config.deltas[d]}, protocol {config.protocols[p]!r}")
    table.flags.writeable = False
    return RedundancyTrajectory.of(config, times, table)

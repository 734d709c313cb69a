"""Redundancy and functional information in dephasing spin environments.

A small pipeline around one question: how many environment fragments does
it take to learn a qubit's pointer state, and how fast does the count of
adequate fragments grow?  The model is pure dephasing with independent
spin couplings, so every fragment quantity reduces to a sum of couplings
and everything downstream is counting statistics.

Layout:
    model       couplings, overlap decay, Holevo information, thresholds
    sampling    fragment draws (random / disjoint / exhaustive), overlap eta
    estimation  Wilson bands, isotonic smoothing, onset + CI machinery
    sweep       seeded grid runs, parallel scheduling, exact cross-checks
    analysis    growth-rate fits, scaling exponents, summary tables
    io / cli    config files, CSV tables, command-line front end
"""

from ._version import __version__
from .analysis import (ScalingFit, SlopeFit, SummaryRow, fit_early_slope,
                       onset_time, scaling_exponent, summary_table)
from .estimation import (AdequacyCell, EstimationError, IsotonicCurve,
                         OnsetEstimate, RedundancyValues, adequacy_cell,
                         combine_onset_ci, isotonic_fit, onset_ci_inversion,
                         onset_from_curve, redundancy_fi, wilson_interval)
from .model import (CouplingSet, DomainError, Tolerance, binary_entropy,
                    binary_entropy_inverse, capacity_min_size, holevo_biased,
                    is_adequate, landauer_min_heat, log_overlap,
                    overlap_cutoff)
from .sampling import (FragmentSample, OverlapStat, SamplingError,
                       enumerate_fragments, estimate_overlap_eta,
                       partition_disjoint, sample_random_fragments)
from .sweep import (ConfigError, OracleReport, OverlapRecord,
                    RedundancyTrajectory, RunConfig, RunStats, SweepCellError,
                    SweepResult, TimeGridSpec, build_time_grid,
                    cell_chi_values, derive_cell_seed, oracle_report,
                    run_sweep)
from .io import (parse_config, parse_config_text, read_metadata,
                 read_onset_table, serialize_config, write_analysis,
                 write_tables)

__all__ = [
    "__version__",
    "AdequacyCell",
    "ConfigError",
    "CouplingSet",
    "DomainError",
    "EstimationError",
    "FragmentSample",
    "IsotonicCurve",
    "OnsetEstimate",
    "OracleReport",
    "OverlapRecord",
    "OverlapStat",
    "RedundancyTrajectory",
    "RedundancyValues",
    "RunConfig",
    "RunStats",
    "SamplingError",
    "ScalingFit",
    "SlopeFit",
    "SummaryRow",
    "SweepCellError",
    "SweepResult",
    "TimeGridSpec",
    "Tolerance",
    "adequacy_cell",
    "binary_entropy",
    "binary_entropy_inverse",
    "build_time_grid",
    "capacity_min_size",
    "cell_chi_values",
    "combine_onset_ci",
    "derive_cell_seed",
    "enumerate_fragments",
    "estimate_overlap_eta",
    "fit_early_slope",
    "holevo_biased",
    "is_adequate",
    "isotonic_fit",
    "landauer_min_heat",
    "log_overlap",
    "onset_ci_inversion",
    "onset_from_curve",
    "onset_time",
    "oracle_report",
    "overlap_cutoff",
    "parse_config",
    "parse_config_text",
    "partition_disjoint",
    "read_metadata",
    "read_onset_table",
    "redundancy_fi",
    "run_sweep",
    "sample_random_fragments",
    "scaling_exponent",
    "serialize_config",
    "summary_table",
    "wilson_interval",
    "write_analysis",
    "write_tables",
]

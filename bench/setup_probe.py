"""Set-up time of one fresh interpreter, as `qdfi simulate` pays it.

    python3 bench/setup_probe.py CONFIG

Times importing ``qdfi.cli``, parsing CONFIG, drawing the couplings and
building the time grid, which is everything simulate does before its
first cell.  Prints one JSON object: the time and the imported module's
path, so the caller can confirm which sources were measured.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import qdfi.cli  # noqa: E402
from qdfi.io import parse_config  # noqa: E402
from qdfi.model import CouplingSet  # noqa: E402
from qdfi.sweep import (PURPOSE_COUPLINGS, build_time_grid,  # noqa: E402
                        derive_cell_seed)


def main(config_path: str) -> None:
    config = parse_config(config_path)
    seed = derive_cell_seed(config.master_seed, purpose=PURPOSE_COUPLINGS)
    CouplingSet.exponential(config.n_sites, config.coupling_rate, config.g,
                            seed)
    build_time_grid(config.time_grid)
    elapsed = time.perf_counter() - _STARTED
    print(json.dumps({"setup_s": elapsed, "module": qdfi.cli.__file__}))


if __name__ == "__main__":
    main(sys.argv[1])

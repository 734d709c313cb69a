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

import os

# numpy's bundled OpenBLAS starts one helper thread per extra core when
# numpy loads, and each busy-waits about 2^28 cycles before it sleeps.  No
# qdfi command calls BLAS, so with the shortest timeout the idle threads
# sleep at once; unlike OPENBLAS_NUM_THREADS=1 this leaves a caller that
# does use BLAS its threads.  Set before any submodule imports numpy, so
# every qdfi process and pool worker gets it; a value already set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from ._version import __version__
from . import analysis, estimation, model, sampling, sweep, io
from .analysis import *
from .estimation import *
from .model import *
from .sampling import *
from .sweep import *
from .io import *

__all__ = ["__version__"]
__all__ += analysis.__all__
__all__ += estimation.__all__
__all__ += model.__all__
__all__ += sampling.__all__
__all__ += sweep.__all__
__all__ += io.__all__

"""Fragment families over an N-site environment.

Three protocols produce the fragment sets whose adequacy gets counted:

* ``random``     -- independent uniform m-subsets (repeats across draws
  allowed, repeats within a draw impossible),
* ``disjoint``   -- floor(N/m) non-overlapping blocks cut from one seeded
  permutation, capped at 400 blocks,
* ``exhaustive`` -- every m-subset in lexicographic order, for small N.

Random m-subsets come from one of two exact samplers, chosen by the
share m/N: while 8m <= N, draw m indices per row and redraw only the
slots that repeat a site until no row has a repeat; beyond that, rank N
uniform keys per row.  Slot redraw finds repeats with one compare over
the flattened rows and works on a shrinking copy of the rows that still
repeat; key ranking draws its keys in chunks of bounded size, so memory
stays O(n_fragments * m) beyond a fixed chunk.  The overlap estimate
gathers both fragments of every pair in one step and counts shared sites
in the sorted merged rows.

Fragments are stored as rows of a 2-d index array (its shape gives a
family's n_fragments and m), each row sorted strictly increasing.  All
draws run through numpy PCG64 generators seeded explicitly, so identical
arguments give byte-identical samples on any machine and thread count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SamplingError",
    "FragmentSample",
    "OverlapStat",
    "PROTOCOLS",
    "sample_random_fragments",
    "partition_disjoint",
    "enumerate_fragments",
    "estimate_overlap_eta",
]

PROTOCOLS = ("random", "disjoint", "exhaustive")

# Disjoint runs keep at most this many blocks; retained blocks are chosen
# uniformly so the family stays exchangeable.
DEFAULT_BLOCK_CAP = 400
# Exhaustive enumeration refuses to materialize more subsets than this.
ENUMERATION_CAP = 200_000
# The key-ranking sampler holds at most this many float64 keys at a time
# (8 MiB, plus as many int64 ranks from argpartition).
_KEY_CHUNK = 1 << 20


class SamplingError(ValueError):
    """Invalid sampling request (bad sizes, blown enumeration cap, ...)."""


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True, eq=False)
class FragmentSample:
    """A family of same-size fragments: one sorted index row per fragment."""

    indices: np.ndarray
    protocol: str
    m: int = field(init=False)
    n_fragments: int = field(init=False)

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices)
        if idx.ndim != 2:
            raise SamplingError("fragment indices must be a 2-d array")
        if self.protocol not in PROTOCOLS:
            raise SamplingError(f"unknown protocol {self.protocol!r}")
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "m", int(idx.shape[1]))
        object.__setattr__(self, "n_fragments", int(idx.shape[0]))

    def validate(self, n_sites: int) -> None:
        """Assert the structural invariants; raises SamplingError."""
        idx = self.indices
        if idx.size and (idx.min() < 0 or idx.max() >= n_sites):
            raise SamplingError("fragment index out of range")
        if idx.shape[1] > 1 and np.any(np.diff(idx, axis=1) <= 0):
            raise SamplingError("fragment rows must be strictly increasing")
        if self.protocol == "disjoint":
            flat = idx.ravel()
            if np.unique(flat).size != flat.size:
                raise SamplingError("disjoint blocks share sites")


@dataclass(frozen=True)
class OverlapStat:
    """Mean pairwise Jaccard overlap of a fragment family."""

    eta: float
    pairs_used: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and 0.0 <= self.eta <= 1.0):
            raise SamplingError(f"eta must lie in [0, 1], got {self.eta}")
        if self.pairs_used < 1:
            raise SamplingError("pairs_used must be positive")


def _check_sizes(n_sites: int, m: int) -> None:
    if n_sites < 1:
        raise SamplingError(f"environment needs at least one site, "
                            f"got N = {n_sites}")
    if m < 1:
        raise SamplingError(f"fragment size must be >= 1, got m = {m}")
    if m > n_sites:
        raise SamplingError(f"fragment size m = {m} exceeds N = {n_sites}")


def _distinct_rows_by_redraw(rng: np.random.Generator, n_sites: int,
                             m: int, n_rows: int) -> np.ndarray:
    """Uniform m-subsets via redrawing only the slots that repeat a site.

    Each round sorts the rows and redraws, in every row with a repeat, the
    slots equal to their left neighbour.  A row thus holds the distinct
    values of a prefix of its own iid uniform index stream, one that grows
    by exactly the row's missing count per round, so the row stops at the
    first m distinct values of that stream: an exactly uniform m-subset
    by label symmetry.  Rows whose first draw repeats nothing are the
    plain sorted draw, and with m = 1 that is the draw as it is.

    Each round gathers the rows that still repeat into a compact block,
    redraws, sorts and writes them back.  Redrawn slots are filled in
    row-major order, as one draw over the rows in ascending order, so
    the PCG64 stream fixes every row.
    """
    idx = rng.integers(0, n_sites, size=(n_rows, m), dtype=np.int64)
    idx.sort(axis=1)
    slots = _repeated_slots(idx)
    active = np.arange(n_rows)
    while slots.size:
        # the repeating rows among ``active``, and each slot's row among them
        row = slots // m
        first = np.empty(row.size, dtype=bool)
        first[0] = True
        np.not_equal(row[1:], row[:-1], out=first[1:])
        rows, local = row[first], np.cumsum(first) - 1
        active = active[rows]
        work = idx[active]
        flat = work.reshape(-1)
        flat[local * m + slots % m] = rng.integers(0, n_sites, size=slots.size,
                                                   dtype=np.int64)
        work.sort(axis=1)
        idx[active] = work
        slots = _repeated_slots(work)
    return idx


def _repeated_slots(rows: np.ndarray) -> np.ndarray:
    """Flat positions, ascending, of the slots of sorted ``rows`` equal to
    their left neighbour in the same row."""
    flat = rows.reshape(-1)
    at = np.flatnonzero(flat[1:] == flat[:-1]) + 1
    # a row's first slot compared with the last slot of the row before
    return at[at % rows.shape[1] != 0]


def _distinct_rows_by_keys(rng: np.random.Generator, n_sites: int,
                           m: int, n_rows: int) -> np.ndarray:
    """Uniform m-subsets as the m smallest of N iid uniform keys per row.

    Ranking iid continuous keys induces a uniform random permutation, so
    the bottom-m index set is exactly uniform.  Used when 8m > N.  Keys
    are drawn in blocks of at most _KEY_CHUNK (at least one row), so
    memory is O(chunk + n_rows*m); PCG64 fills consecutive blocks from
    one stream, so the rows equal a single draw of all n_rows * N keys.
    """
    rows = np.empty((n_rows, m), dtype=np.int64)
    step = max(1, _KEY_CHUNK // n_sites)
    for start in range(0, n_rows, step):
        keys = rng.random((min(step, n_rows - start), n_sites))
        picked = np.argpartition(keys, m - 1, axis=1)[:, :m]
        rows[start:start + step] = np.sort(picked, axis=1)
    return rows


def _redraw_is_cheaper(n_sites: int, m: int) -> bool:
    """True when slot redraw is the faster sampler: 8m <= N.

    Below that share a redrawn slot lands on a free site with probability
    at least 7/8, so redraw rounds stay few.  Measured against key
    ranking, redraw wins up to m/N = 1/8 for N from 64 to 20000; at
    N = 150000 the two meet near m/N = 1/9, and redraw costs at most
    about 1.3 times the key path between there and 1/8.
    """
    return 8 * m <= n_sites


def sample_random_fragments(n_sites: int, m: int, n_fragments: int,
                            seed: int) -> FragmentSample:
    """Draw n_fragments independent uniform m-subsets of {0, ..., N-1}.

    Distinct draws may repeat the same subset; indices within a draw never
    repeat.  Deterministic in (n_sites, m, n_fragments, seed).
    """
    _check_sizes(n_sites, m)
    if n_fragments < 1:
        raise SamplingError("n_fragments must be >= 1")
    rng = _rng(seed)
    if _redraw_is_cheaper(n_sites, m):
        rows = _distinct_rows_by_redraw(rng, n_sites, m, n_fragments)
    else:
        rows = _distinct_rows_by_keys(rng, n_sites, m, n_fragments)
    return FragmentSample(indices=rows, protocol="random")


def partition_disjoint(n_sites: int, m: int, seed: int) -> FragmentSample:
    """Cut floor(N/m) disjoint m-blocks from one seeded permutation.

    When the partition yields more than DEFAULT_BLOCK_CAP blocks, a
    uniformly chosen subset of blocks of exactly that size is retained.
    Leftover sites (N mod m of them) are dropped.
    """
    _check_sizes(n_sites, m)
    rng = _rng(seed)
    perm = rng.permutation(n_sites)
    n_blocks = n_sites // m
    blocks = perm[: n_blocks * m].reshape(n_blocks, m)
    if n_blocks > DEFAULT_BLOCK_CAP:
        keep = np.sort(rng.choice(n_blocks, size=DEFAULT_BLOCK_CAP,
                                  replace=False))
        blocks = blocks[keep]
    rows = np.sort(blocks, axis=1)
    return FragmentSample(indices=rows, protocol="disjoint")


def enumerate_fragments(n_sites: int, m: int) -> FragmentSample:
    """All C(N, m) fragments in lexicographic order.

    Refuses to enumerate past ENUMERATION_CAP subsets; the error names the
    exact count so callers can report it.
    """
    _check_sizes(n_sites, m)
    count = math.comb(n_sites, m)
    if count > ENUMERATION_CAP:
        raise SamplingError(
            f"C({n_sites}, {m}) = {count} subsets exceed the enumeration "
            f"cap of {ENUMERATION_CAP}")
    flat = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(n_sites), m)),
        dtype=np.int64, count=count * m)
    rows = flat.reshape(count, m)
    return FragmentSample(indices=rows, protocol="exhaustive")


def estimate_overlap_eta(sample: FragmentSample, n_pairs: int,
                         seed: int) -> OverlapStat:
    """Mean Jaccard overlap |F_i & F_j| / |F_i | F_j| over random pairs.

    Pairs are uniformly drawn unordered pairs of distinct fragment
    positions (the fragments themselves may be equal sets, counting as
    overlap 1).  Requires at least two fragments in the family.

    A disjoint family whose n*m sites are all distinct gives every pair
    overlap 0, so the sampled mean is exactly 0.0 whatever pairs are
    drawn: that family returns eta = 0.0 for n_pairs pairs without
    drawing them.  A family labelled disjoint that does share sites is
    sampled like any other.
    """
    if n_pairs < 1:
        raise SamplingError("n_pairs must be >= 1")
    n = sample.n_fragments
    if n < 2:
        raise SamplingError("overlap estimation needs >= 2 fragments")
    if sample.protocol == "disjoint":
        sites = np.sort(sample.indices, axis=None)
        if not np.any(sites[1:] == sites[:-1]):
            return OverlapStat(eta=0.0, pairs_used=n_pairs)
    rng = _rng(seed)
    first = rng.integers(0, n, size=n_pairs)
    # Offset in [1, n-1] makes the second position uniform over the
    # remaining fragments, so no rejection loop is needed.
    second = (first + 1 + rng.integers(0, n - 1, size=n_pairs)) % n
    # both rows of each pair side by side, from one gather; a site shared
    # by the pair is the only way a sorted merged row repeats a value
    merged = sample.indices[np.stack((first, second), 1)].reshape(
        n_pairs, 2 * sample.m)
    merged.sort(axis=1)
    inter = np.count_nonzero(merged[:, 1:] == merged[:, :-1], axis=1)
    union = 2 * sample.m - inter
    # a rounded mean of ratios in [0, 1] cannot leave [0, 1]
    return OverlapStat(eta=float(np.mean(inter / union)), pairs_used=n_pairs)

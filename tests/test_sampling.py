"""Fragment sampling tests: exactness, uniformity, disjointness, overlap.

Uniformity checks use chi-square and Wilson bounds with seeds pinned, so
they are deterministic.  Critical values frozen from scipy.stats.chi2.ppf
run independently: 0.999 quantile at df=49 is 85.351, at df=5 is 20.515,
at df=14 is 36.123, at df=119 is 172.418, at df=1023 is 1168.497.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdfi import (FragmentSample, SamplingError, enumerate_fragments,
                  estimate_overlap_eta, partition_disjoint,
                  sample_random_fragments, wilson_interval)
from qdfi import sampling
from qdfi.sampling import (_distinct_rows_by_keys, _distinct_rows_by_redraw,
                           _redraw_is_cheaper)

CHI2_999_DF14 = 36.123
CHI2_999_DF49 = 85.351
CHI2_999_DF119 = 172.418
CHI2_999_DF1023 = 1168.497


def _rows_as_tuples(sample):
    return [tuple(r) for r in sample.indices]


def reference_redraw(rng, n_sites, m, n_rows):
    """Slot redraw with a 2-d repeat mask and a write-back every round:
    the sampler's first form, kept to pin its PCG64 stream."""
    idx = rng.integers(0, n_sites, size=(n_rows, m), dtype=np.int64)
    idx.sort(axis=1)
    repeat = idx[:, 1:] == idx[:, :-1]
    active = np.flatnonzero(repeat.any(axis=1))
    repeat = repeat[active]
    while active.size:
        rows = idx[active]
        at_row, at_slot = np.nonzero(repeat)
        rows[at_row, at_slot + 1] = rng.integers(0, n_sites, size=at_row.size,
                                                 dtype=np.int64)
        rows.sort(axis=1)
        idx[active] = rows
        repeat = rows[:, 1:] == rows[:, :-1]
        still = repeat.any(axis=1)
        active = active[still]
        repeat = repeat[still]
    return idx


def reference_eta(sample, n_pairs, seed):
    """Sampled mean Jaccard overlap from two gathers, a concatenate and a
    sorted copy: the overlap kernel's first form."""
    n = sample.n_fragments
    rng = sampling._rng(seed)
    first = rng.integers(0, n, size=n_pairs)
    second = (first + 1 + rng.integers(0, n - 1, size=n_pairs)) % n
    a = sample.indices[first]
    b = sample.indices[second]
    merged = np.sort(np.concatenate([a, b], axis=1), axis=1)
    inter = (merged[:, 1:] == merged[:, :-1]).sum(axis=1)
    union = 2 * sample.m - inter
    eta = float(np.mean(inter / union))
    return min(max(eta, 0.0), 1.0)


def _draw_random_shape(data):
    """(N, m, n, seed) with N <= 2000 and n <= 400, on either side of
    8m <= N; m = 1 is drawn on the redraw side whenever N >= 8."""
    n_sites = data.draw(st.integers(1, 2000), label="N")
    if n_sites >= 8 and data.draw(st.booleans(), label="redraw"):
        m = data.draw(st.just(1) | st.integers(1, n_sites // 8), label="m")
    else:
        m = data.draw(st.integers(n_sites // 8 + 1, n_sites), label="m")
    n = data.draw(st.integers(1, 400), label="n")
    seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
    return n_sites, m, n, seed


class TestFragmentSampleValidation:
    def test_accepts_sorted_rows(self):
        s = FragmentSample(indices=np.array([[0, 2], [1, 3]]),
                           protocol="random")
        s.validate(4)

    def test_size_and_count_are_the_index_shape(self):
        s = FragmentSample(indices=np.array([[0, 2, 3], [1, 3, 4]]),
                           protocol="random")
        assert (s.m, s.n_fragments) == (3, 2)
        with pytest.raises(TypeError):
            FragmentSample(indices=np.array([[0, 2]]), protocol="random",
                           m=2)

    def test_rejects_out_of_range(self):
        s = FragmentSample(indices=np.array([[0, 5]]), protocol="random")
        with pytest.raises(SamplingError):
            s.validate(4)

    def test_rejects_duplicate_within_row(self):
        with pytest.raises(SamplingError):
            FragmentSample(indices=np.array([[1, 1]]),
                           protocol="random").validate(4)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SamplingError):
            FragmentSample(indices=np.array([[0, 1]]), protocol="fancy")

    def test_disjoint_claim_is_checked(self):
        s = FragmentSample(indices=np.array([[0, 1], [1, 2]]),
                           protocol="disjoint")
        with pytest.raises(SamplingError):
            s.validate(4)


class TestRandomFragments:
    def test_full_environment_is_the_only_subset(self):
        s = sample_random_fragments(5, 5, 3, seed=0)
        assert _rows_as_tuples(s) == [(0, 1, 2, 3, 4)] * 3

    def test_deterministic(self):
        a = sample_random_fragments(40, 7, 100, seed=5)
        b = sample_random_fragments(40, 7, 100, seed=5)
        assert np.array_equal(a.indices, b.indices)
        c = sample_random_fragments(40, 7, 100, seed=6)
        assert not np.array_equal(a.indices, c.indices)

    def test_rows_sorted_and_valid(self):
        # spans both internal sampling paths
        assert _redraw_is_cheaper(40, 5)
        assert not _redraw_is_cheaper(40, 6)
        for m in (1, 3, 7, 20, 39):
            s = sample_random_fragments(40, m, 200, seed=2)
            s.validate(40)
            assert s.indices.shape == (200, m)

    def test_singleton_uniformity(self):
        # N=50, m=1: per-index counts against the flat law, df = 49
        n = 50_000
        s = sample_random_fragments(50, 1, n, seed=17)
        counts = np.bincount(s.indices[:, 0], minlength=50)
        expected = n / 50
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_999_DF49

    def test_pair_frequencies(self):
        # N=4, m=2: all 6 pairs near 1/6 (8m > N: the key-ranking path)
        n = 60_000
        s = sample_random_fragments(4, 2, n, seed=19)
        seen = {}
        for row in _rows_as_tuples(s):
            seen[row] = seen.get(row, 0) + 1
        assert set(seen) == set(itertools.combinations(range(4), 2))
        for count in seen.values():
            assert abs(count / n - 1 / 6) < 0.01

    @staticmethod
    def _assert_subsets_uniform(n_sites, m, seed):
        # each of the C(N, m) subsets should hold 1/C(N, m) inside its
        # own 99% band
        n = 100_000
        s = sample_random_fragments(n_sites, m, n, seed=seed)
        seen = {}
        for row in _rows_as_tuples(s):
            seen[row] = seen.get(row, 0) + 1
        subsets = math.comb(n_sites, m)
        assert len(seen) == subsets
        for count in seen.values():
            lo, hi = wilson_interval(count, n, alpha=0.01)
            assert lo <= 1 / subsets <= hi

    def test_enumerable_uniformity_wilson(self):
        # N=6, m=3: 8m > N, so the key-ranking path runs
        assert not _redraw_is_cheaper(6, 3)
        self._assert_subsets_uniform(6, 3, seed=23)

    def test_enumerable_uniformity_wilson_keys(self):
        # N=6, m=4: 8m > N, so the key-ranking path runs
        assert not _redraw_is_cheaper(6, 4)
        self._assert_subsets_uniform(6, 4, seed=29)

    @pytest.mark.parametrize("n_sites, m, critical", [
        (16, 2, CHI2_999_DF119),  # the public rule's redraw side, 8m = N
        (6, 4, CHI2_999_DF14),  # 72% of first draws repeat a site
    ])
    def test_redraw_all_subsets_chi_square(self, n_sites, m, critical):
        # every one of the C(N, m) subsets against 1/C(N, m), exact on the
        # redraw path whatever the share of rows that repeat
        n = 120_000
        rows = _distinct_rows_by_redraw(sampling._rng(37), n_sites, m, n)
        FragmentSample(indices=rows, protocol="random").validate(n_sites)
        subsets = math.comb(n_sites, m)
        codes = (rows * n_sites ** np.arange(m)).sum(axis=1)
        counts = np.unique(codes, return_counts=True)[1]
        assert counts.size == subsets
        expected = n / subsets
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < critical

    def test_rows_without_a_repeat_keep_the_plain_draw(self):
        # the first draw is kept as is wherever it repeats no site
        def plain(n_sites, m, n_rows, seed):
            idx = sampling._rng(seed).integers(0, n_sites, size=(n_rows, m),
                                               dtype=np.int64)
            return np.sort(idx, axis=1)

        first = plain(150_000, 8, 50, 43)
        assert np.all(np.diff(first, axis=1) > 0)
        s = sample_random_fragments(150_000, 8, 50, seed=43)
        assert np.array_equal(s.indices, first)

        first = plain(1024, 64, 400, 43)
        clean = np.all(np.diff(first, axis=1) > 0, axis=1)
        assert 0 < clean.sum() < 400
        s = sample_random_fragments(1024, 64, 400, seed=43)
        assert np.array_equal(s.indices[clean], first[clean])

    @pytest.mark.parametrize("m, by_redraw", [(128, True), (129, False)])
    def test_site_uniformity_at_the_crossover(self, m, by_redraw):
        # N=1024 on either side of the rule: every site is drawn with
        # probability m/N per fragment, df = 1023
        assert _redraw_is_cheaper(1024, m) is by_redraw
        n = 4000
        s = sample_random_fragments(1024, m, n, seed=31)
        s.validate(1024)
        counts = np.bincount(s.indices.ravel(), minlength=1024)
        expected = n * m / 1024
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_999_DF1023

    def test_chunked_keys_match_one_shot_draw(self):
        def one_shot(rng, n_sites, m, n_rows):
            keys = rng.random((n_rows, n_sites))
            picked = np.argpartition(keys, m - 1, axis=1)[:, :m]
            return np.sort(picked.astype(np.int64), axis=1)

        cases = [(20000, 400), (1024, 100), (sampling._KEY_CHUNK + 3, 50)]
        for n_sites, m in cases:
            step = max(1, sampling._KEY_CHUNK // n_sites)
            n_rows = 2 * step + 1  # three chunks, the last one short
            got = _distinct_rows_by_keys(sampling._rng(41), n_sites, m,
                                         n_rows)
            want = one_shot(sampling._rng(41), n_sites, m, n_rows)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (n_sites, m)

    def test_key_path_memory_is_bounded(self):
        # the one-shot key matrix would be 500 x 20000 float64 = 80 MB
        assert not _redraw_is_cheaper(20000, 2560)
        tracemalloc.start()
        try:
            s = sample_random_fragments(20000, 2560, 500, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.indices.shape == (500, 2560)
        assert peak < 40 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    @given(st.data())
    def test_rows_valid_and_seeded_on_both_paths(self, data):
        # either side of 8m <= N, for N <= 64 and up to 50 fragments
        if data.draw(st.booleans(), label="redraw"):
            n_sites = data.draw(st.integers(8, 64), label="N")
            m = data.draw(st.integers(1, n_sites // 8), label="m")
        else:
            n_sites = data.draw(st.integers(1, 64), label="N")
            m = data.draw(st.integers(n_sites // 8 + 1, n_sites), label="m")
        n = data.draw(st.integers(1, 50), label="n")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
        s = sample_random_fragments(n_sites, m, n, seed=seed)
        rows = s.indices
        assert rows.shape == (n, m)
        assert rows.min() >= 0 and rows.max() < n_sites
        assert np.all(np.diff(rows, axis=1) > 0)
        again = sample_random_fragments(n_sites, m, n, seed=seed)
        assert np.array_equal(again.indices, rows)

    @given(st.data())
    def test_samplers_cover_enumeration_at_small_n(self, data):
        # 2000 rows reach every one of at most C(6, 3) = 20 subsets except
        # with probability below 20 * (19/20)**2000 < 1e-40; the public
        # sampler takes keys at every N <= 6, so redraw is called directly
        n_sites = data.draw(st.integers(1, 6), label="N")
        m = data.draw(st.integers(1, n_sites), label="m")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
        members = set(_rows_as_tuples(enumerate_fragments(n_sites, m)))
        by_keys = sample_random_fragments(n_sites, m, 2000, seed=seed)
        by_redraw = _distinct_rows_by_redraw(sampling._rng(seed), n_sites,
                                             m, 2000)
        for rows in (by_keys.indices, by_redraw):
            assert set(map(tuple, rows.tolist())) == members

    def test_errors(self):
        with pytest.raises(SamplingError):
            sample_random_fragments(10, 0, 5, seed=0)
        with pytest.raises(SamplingError):
            sample_random_fragments(10, 11, 5, seed=0)
        with pytest.raises(SamplingError):
            sample_random_fragments(10, 2, 0, seed=0)


class TestStreamIdentity:
    """The samplers' kernels against their first forms: same arrays,
    same floats, for any seed."""

    @given(st.data())
    def test_random_fragments_match_reference(self, data):
        n_sites, m, n, seed = _draw_random_shape(data)
        got = sample_random_fragments(n_sites, m, n, seed=seed).indices
        if _redraw_is_cheaper(n_sites, m):
            want = reference_redraw(sampling._rng(seed), n_sites, m, n)
        else:
            want = _distinct_rows_by_keys(sampling._rng(seed), n_sites, m, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_redraw_matches_reference_at_m_1(self):
        for seed in range(20):
            got = _distinct_rows_by_redraw(sampling._rng(seed), 1024, 1, 400)
            want = reference_redraw(sampling._rng(seed), 1024, 1, 400)
            assert np.array_equal(got, want)

    @given(st.data())
    def test_overlap_eta_matches_reference(self, data):
        n_sites, m, n, seed = _draw_random_shape(data)
        n = max(n, 2)
        sample = sample_random_fragments(n_sites, m, n, seed=seed)
        pairs = data.draw(st.integers(1, 400), label="pairs")
        pair_seed = data.draw(st.integers(0, 2 ** 64 - 1), label="pair seed")
        stat = estimate_overlap_eta(sample, pairs, pair_seed)
        assert stat.eta == reference_eta(sample, pairs, pair_seed)
        assert stat.pairs_used == pairs


class TestDisjointPartition:
    def test_floor_count_and_coverage(self):
        s = partition_disjoint(10, 3, seed=0)
        assert s.n_fragments == 3
        flat = s.indices.ravel()
        assert len(set(flat.tolist())) == 9

    def test_pairwise_disjoint(self):
        s = partition_disjoint(6, 2, seed=0)
        assert s.n_fragments == 3
        rows = [set(r) for r in s.indices]
        for a, b in itertools.combinations(rows, 2):
            assert not (a & b)
        s.validate(6)

    def test_oversized_fragment_rejected(self):
        with pytest.raises(SamplingError):
            partition_disjoint(6, 7, seed=0)

    def test_block_cap(self):
        s = partition_disjoint(5000, 10, seed=3)
        assert s.n_fragments == 400
        s.validate(5000)

    def test_cap_never_exceeds_available_blocks(self):
        s = partition_disjoint(12, 5, seed=1)
        assert s.n_fragments == 2

    def test_deterministic(self):
        a = partition_disjoint(100, 7, seed=11)
        b = partition_disjoint(100, 7, seed=11)
        assert np.array_equal(a.indices, b.indices)
        c = partition_disjoint(100, 7, seed=12)
        assert not np.array_equal(a.indices, c.indices)


class TestEnumerateFragments:
    def test_all_pairs_lexicographic(self):
        s = enumerate_fragments(4, 2)
        assert _rows_as_tuples(s) == [(0, 1), (0, 2), (0, 3), (1, 2),
                                      (1, 3), (2, 3)]

    def test_zero_size_rejected(self):
        with pytest.raises(SamplingError):
            enumerate_fragments(5, 0)

    def test_cap_exceeded_names_the_count(self):
        with pytest.raises(SamplingError) as err:
            enumerate_fragments(30, 15)
        assert str(math.comb(30, 15)) in str(err.value)

    def test_count_matches_binomial(self):
        for n, m in [(6, 3), (8, 1), (7, 7)]:
            s = enumerate_fragments(n, m)
            assert s.n_fragments == math.comb(n, m)
            s.validate(n)


class TestOverlapEta:
    def test_disjoint_sample_has_zero_overlap(self):
        s = partition_disjoint(24, 4, seed=0)
        stat = estimate_overlap_eta(s, 50, seed=1)
        assert stat.eta == 0.0
        assert stat.pairs_used == 50

    @pytest.mark.parametrize("n_sites, m", [(2, 1), (24, 5), (300, 7),
                                            (2000, 1), (2000, 30),
                                            (150000, 128)])
    def test_disjoint_family_draws_no_pairs(self, monkeypatch, n_sites, m):
        # floor(N/m) blocks, capped at 400, share no site: eta is 0 for
        # any pairs, so none are drawn
        s = partition_disjoint(n_sites, m, seed=5)

        def no_draws(seed):
            raise AssertionError("pairs drawn for a disjoint family")

        monkeypatch.setattr(sampling, "_rng", no_draws)
        stat = estimate_overlap_eta(s, 200, seed=1)
        assert stat.eta == 0.0
        assert stat.pairs_used == 200

    def test_mislabelled_disjoint_family_is_sampled(self):
        idx = sample_random_fragments(12, 4, 30, seed=2).indices
        assert np.unique(idx).size < idx.size
        labelled = estimate_overlap_eta(
            FragmentSample(indices=idx, protocol="disjoint"), 200, seed=6)
        sampled = estimate_overlap_eta(
            FragmentSample(indices=idx, protocol="random"), 200, seed=6)
        assert labelled == sampled
        assert labelled.eta > 0.0

    @pytest.mark.parametrize("protocol", ["random", "disjoint"])
    def test_argument_errors_come_first(self, protocol):
        one = FragmentSample(indices=np.array([[0, 1, 2]]),
                             protocol=protocol)
        two = FragmentSample(indices=np.array([[0, 1], [2, 3]]),
                             protocol=protocol)
        with pytest.raises(SamplingError, match="needs >= 2 fragments"):
            estimate_overlap_eta(one, 10, seed=0)
        with pytest.raises(SamplingError, match="n_pairs must be >= 1"):
            estimate_overlap_eta(two, 0, seed=0)

    def test_identical_fragments_full_overlap(self):
        idx = np.tile(np.array([2, 5, 9]), (4, 1))
        s = FragmentSample(indices=idx, protocol="random")
        stat = estimate_overlap_eta(s, 20, seed=1)
        assert stat.eta == 1.0

    def test_single_pair_value(self):
        # {1,2} vs {2,3}: intersection 1, union 3
        idx = np.array([[1, 2], [2, 3]])
        s = FragmentSample(indices=idx, protocol="random")
        stat = estimate_overlap_eta(s, 1, seed=4)
        assert abs(stat.eta - 1 / 3) < 1e-15

    def test_eta_shrinks_with_environment(self):
        # fixed m = 4: expected Jaccard falls as N grows
        etas = []
        for n_sites in (20, 80, 320):
            s = sample_random_fragments(n_sites, 4, 300, seed=7)
            etas.append(estimate_overlap_eta(s, 200, seed=8).eta)
        assert etas[0] > etas[1] > etas[2]

    def test_deterministic(self):
        s = sample_random_fragments(30, 5, 100, seed=9)
        a = estimate_overlap_eta(s, 80, seed=3)
        b = estimate_overlap_eta(s, 80, seed=3)
        assert a.eta == b.eta

    def test_needs_two_fragments(self):
        s = sample_random_fragments(10, 2, 1, seed=0)
        with pytest.raises(SamplingError):
            estimate_overlap_eta(s, 10, seed=0)

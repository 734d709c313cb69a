"""Estimation-layer tests: Wilson bands, PAVA, onsets, redundancy.

The isotonic oracle enumerates every contiguous block partition of the
grid, keeps the monotone ones, and minimizes weighted SSE directly; on
grids this short that search is exact, so isotonic_fit is checked against
the true optimum rather than against another PAVA.
"""

import inspect
import itertools
import math
import tracemalloc
from dataclasses import fields
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdfi import (AdequacyCell, EstimationError, IsotonicCurve,
                  adequacy_cell, combine_onset_ci, isotonic_fit,
                  onset_ci_inversion, onset_from_curve, redundancy_fi,
                  wilson_interval)
from qdfi import estimation
from qdfi.estimation import (_bootstrap_counts, _first_clearing,
                             _window_onset_indices)

# Wilson bounds evaluated independently with z = NormalDist().inv_cdf(0.975)
WILSON_50_100 = (0.4038315303659957, 0.5961684696340044)
WILSON_10_10 = (0.7224672001371109, 1.0)
WILSON_0_10_HI = 0.27753279986288915

LOG2_150000 = 17.194602975157967


def brute_isotonic(y, w=None):
    """Exact order-constrained weighted least squares by partition search.

    Every solution is constant on contiguous blocks with nondecreasing
    block means (each block value is the weighted mean of its members at
    the optimum), so enumerating the 2^(L-1) block layouts and keeping
    the feasible minimum-SSE one recovers the exact fit.
    """
    y = list(map(float, y))
    n = len(y)
    w = [1.0] * n if w is None else list(map(float, w))
    best_sse, best_fit = None, None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        blocks, cur = [], [0]
        for i, cut in enumerate(cuts):
            if cut:
                blocks.append(cur)
                cur = []
            cur.append(i + 1)
        blocks.append(cur)
        means = [sum(w[i] * y[i] for i in blk) / sum(w[i] for i in blk)
                 for blk in blocks]
        if any(a > b + 1e-15 for a, b in zip(means, means[1:])):
            continue
        fit = [0.0] * n
        for blk, mu in zip(blocks, means):
            for i in blk:
                fit[i] = mu
        sse = sum(w[i] * (y[i] - fit[i]) ** 2 for i in range(n))
        if best_sse is None or sse < best_sse - 1e-15:
            best_sse, best_fit = sse, fit
    return np.array(best_fit)


def wilson_vector(k, n, alpha):
    """Wilson bounds by the vector formula on 1-element arrays: the
    operations, in order, that wilson_interval performs on floats."""
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    k = np.array([k]).astype(float)
    n = np.array([n]).astype(float)
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    lo = np.where(k == 0, 0.0, np.clip(center - half, 0.0, 1.0))
    hi = np.where(k == n, 1.0, np.clip(center + half, 0.0, 1.0))
    return float(lo[0]), float(hi[0])


def _batch_onset_indices(p, weights, theta):
    """Onset grid index after PAVA, for a whole batch at once; -1 = absent.

    Uses the minimax form of the isotonic fit over the full grid: with
    cumulative sums C[j] = sum_{l<j} w_l (p_l - theta), the fitted value
    at j clears theta iff min_{k>j} C[k] >= min_{i<=j} C[i].  The sweep
    runs _window_onset_indices instead; this full-grid route is the
    reference the tests hold both it and PAVA to.
    """
    d = weights[None, :] * (p - theta)
    c = np.concatenate([np.zeros((p.shape[0], 1)), np.cumsum(d, axis=1)],
                       axis=1)
    return _first_clearing(c)


def bootstrap_one_draw(m_values, k, n, theta, alpha, n_replicates, seed):
    """The bootstrap spelled out: one (n_replicates, len(n)) binomial
    draw, replicate onsets as floats with +inf for absent, and the
    alpha/2 and 1 - alpha/2 bounds from np.quantile(method="nearest").
    Returns (bounds, onsets)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k_star = rng.binomial(n.astype(np.int64), k / n,
                          size=(n_replicates, n.size))
    idx = _batch_onset_indices(k_star / n, n, theta)
    onsets = np.where(idx >= 0, m_values[np.maximum(idx, 0)].astype(float),
                      np.inf)
    bounds = np.quantile(onsets, [alpha / 2, 1 - alpha / 2],
                         method="nearest")
    return (tuple(int(b) if math.isfinite(b) else None for b in bounds),
            onsets)


class TestWilsonInterval:
    @given(st.data())
    def test_scalar_matches_vector_formula_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 10 ** 6), label="n")
        k = data.draw(st.one_of(st.sampled_from([0, n]),
                                st.integers(0, n)), label="k")
        alpha = data.draw(st.floats(1e-12, 1.0, exclude_max=True),
                          label="alpha")
        assert wilson_interval(k, n, alpha) == wilson_vector(k, n, alpha)

    def test_frozen_balanced(self):
        lo, hi = wilson_interval(50, 100)
        assert abs(lo - WILSON_50_100[0]) < 1e-9
        assert abs(hi - WILSON_50_100[1]) < 1e-9

    def test_frozen_all_successes(self):
        lo, hi = wilson_interval(10, 10)
        assert abs(lo - WILSON_10_10[0]) < 1e-9
        assert hi == 1.0

    def test_frozen_all_failures(self):
        lo, hi = wilson_interval(0, 10)
        assert abs(lo) < 1e-12
        assert abs(hi - WILSON_0_10_HI) < 1e-9

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_narrows_with_trials(self):
        widths = []
        for n in (10, 100, 1000):
            lo, hi = wilson_interval(n // 2, n)
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]

    def test_light_coverage(self):
        # quick sanity check; the acceptance suite runs the full grid
        rng = np.random.default_rng(13)
        n, p, hits = 100, 0.5, 0
        for _ in range(2000):
            k = rng.binomial(n, p)
            lo, hi = wilson_interval(k, n)
            hits += lo <= p <= hi
        assert 0.91 <= hits / 2000 <= 0.99

    def test_errors(self):
        with pytest.raises(EstimationError):
            wilson_interval(1, 0)
        with pytest.raises(EstimationError):
            wilson_interval(5, 4)
        with pytest.raises(EstimationError):
            wilson_interval(1, 10, alpha=0.0)
        # 1 - alpha/2 rounds to 1.0: no normal quantile, so no band
        for alpha in (1e-17, 2.0 ** -53):
            with pytest.raises(EstimationError, match="alpha"):
                wilson_interval(3, 10, alpha=alpha)


class TestAdequacyCell:
    def test_all_true(self):
        cell = adequacy_cell([True] * 10)
        assert cell.p_hat == 1.0 and cell.k == 10 and cell.n == 10

    def test_all_false(self):
        cell = adequacy_cell([False] * 10)
        assert cell.p_hat == 0.0

    def test_mixed_matches_wilson(self):
        flags = [True] * 50 + [False] * 50
        cell = adequacy_cell(flags)
        assert cell.p_hat == 0.5
        assert abs(cell.ci_low - WILSON_50_100[0]) < 1e-9
        assert abs(cell.ci_high - WILSON_50_100[1]) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            adequacy_cell([])

    def test_record_holds_only_its_numbers(self):
        # a cell's (t, m, delta, protocol) are where the sweep stores it
        assert [f.name for f in fields(AdequacyCell)] == [
            "n", "k", "ci_low", "ci_high"]
        assert list(inspect.signature(adequacy_cell).parameters) == [
            "flags", "alpha"]

    def test_record_invariants_enforced(self):
        with pytest.raises(EstimationError):
            AdequacyCell(n=10, k=11, ci_low=0.0, ci_high=1.0)
        with pytest.raises(EstimationError):
            AdequacyCell(n=10, k=5, ci_low=0.6, ci_high=0.9)


class TestIsotonicFit:
    def test_monotone_input_unchanged(self):
        y = np.array([0.1, 0.4, 0.9])
        assert np.allclose(isotonic_fit(y), y, atol=1e-15)

    def test_single_violation_pools(self):
        got = isotonic_fit(np.array([0.3, 0.2, 0.5]))
        assert np.allclose(got, [0.25, 0.25, 0.5], atol=1e-12)

    def test_constant_unchanged(self):
        y = np.full(5, 0.7)
        assert np.allclose(isotonic_fit(y), y, atol=1e-15)

    def test_matches_partition_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            length = int(rng.integers(2, 7))
            y = rng.random(length)
            got = isotonic_fit(y)
            want = brute_isotonic(y)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_matches_partition_oracle_weighted(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            length = int(rng.integers(2, 7))
            y = rng.random(length)
            w = rng.integers(1, 30, size=length).astype(float)
            got = isotonic_fit(y, w)
            want = brute_isotonic(y, w)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_output_is_monotone_and_mean_preserving(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            y = rng.random(int(rng.integers(2, 40)))
            fit = isotonic_fit(y)
            assert np.all(np.diff(fit) >= -1e-12)
            assert abs(fit.mean() - y.mean()) < 1e-12

    def test_errors(self):
        with pytest.raises(EstimationError):
            isotonic_fit([])
        with pytest.raises(EstimationError):
            isotonic_fit([0.5, float("nan")])
        with pytest.raises(EstimationError):
            isotonic_fit([0.1, 0.2], weights=[1.0])


class TestOnsetFromCurve:
    def test_interior_onset(self):
        curve = IsotonicCurve(m_grid=np.array([1, 2, 3]),
                              phi_iso=np.array([0.2, 0.95, 0.99]))
        assert onset_from_curve(curve, 0.9) == 2

    def test_never_reached(self):
        curve = IsotonicCurve(m_grid=np.array([1, 2, 3]),
                              phi_iso=np.array([0.1, 0.2, 0.3]))
        assert onset_from_curve(curve, 0.9) is None

    def test_immediate(self):
        curve = IsotonicCurve(m_grid=np.array([1, 2]),
                              phi_iso=np.array([0.95, 0.99]))
        assert onset_from_curve(curve, 0.9) == 1

    def test_fit_classmethod(self):
        curve = IsotonicCurve(np.array([1, 2, 3]),
                              isotonic_fit([0.3, 0.2, 0.5]))
        assert np.allclose(curve.phi_iso, [0.25, 0.25, 0.5])

    def test_curve_validation(self):
        with pytest.raises(EstimationError):
            IsotonicCurve(m_grid=np.array([1, 1]),
                          phi_iso=np.array([0.1, 0.2]))
        with pytest.raises(EstimationError):
            IsotonicCurve(m_grid=np.array([1, 2]),
                          phi_iso=np.array([0.5, 0.4]))

    def test_caller_arrays_stay_writable(self):
        # the curve freezes copies of its arrays, never the caller's own
        m = np.arange(1, 5, dtype=np.int64)
        phi = np.array([0.1, 0.2, 0.3, 0.4])
        curve = IsotonicCurve(m, phi)
        m[0] = 7
        phi[0] = 0.0
        assert curve.m_grid.tolist() == [1, 2, 3, 4]
        assert curve.phi_iso[0] == 0.1
        with pytest.raises(ValueError, match="read-only"):
            curve.m_grid[0] = 7


class TestRedundancyFi:
    def test_large_environment(self):
        vals = redundancy_fi(150_000, 1)
        assert vals.r == 150_000
        assert abs(vals.fi - LOG2_150000) < 1e-12
        assert round(vals.fi, 2) == 17.19

    def test_whole_environment_needed(self):
        vals = redundancy_fi(50, 50)
        assert vals.r == 1.0 and vals.fi == 0.0

    def test_overlap_correction(self):
        vals = redundancy_fi(50, 5, eta=1 / 3)
        assert abs(vals.r - 10.0) < 1e-12
        assert abs(vals.r_eff - 5.0) < 1e-12
        assert abs(vals.fi - math.log2(10)) < 1e-12
        assert abs(vals.fi_eff - math.log2(5)) < 1e-12

    def test_correction_never_raises_r(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 1000))
            m = int(rng.integers(1, n + 1))
            eta = float(rng.uniform(0.0, 0.99))
            vals = redundancy_fi(n, m, eta=eta)
            assert vals.r_eff <= vals.r + 1e-12
            assert abs(vals.r * m - n) < 1e-9

    def test_errors(self):
        with pytest.raises(EstimationError):
            redundancy_fi(10, 0)
        with pytest.raises(EstimationError):
            redundancy_fi(10, 11)
        with pytest.raises(EstimationError):
            redundancy_fi(10, 2, eta=1.0)


def _band(ms, cells):
    """The (m_grid, n, ci_low, ci_high) columns of the cells at ms, as the
    sweep passes them to onset_ci_inversion."""
    return (np.array(ms, dtype=np.int64),
            np.array([c.n for c in cells], dtype=float),
            np.array([c.ci_low for c in cells], dtype=float),
            np.array([c.ci_high for c in cells], dtype=float))


def _band_from_probs(rng, m_grid, probs, n):
    return _band(m_grid, [adequacy_cell(rng.random(n) < p) for p in probs])


def _uniform_band(ms, flags):
    return _band(ms, [adequacy_cell(flags) for _ in ms])


class TestOnsetInversion:
    def test_saturated_cells_pin_first_m(self):
        lo, hi = onset_ci_inversion(*_uniform_band((1, 2, 3), [True] * 400),
                                    0.9)
        assert lo == 1 and hi == 1

    def test_hopeless_cells_absent(self):
        band = _uniform_band((1, 2, 3), [False] * 400)
        assert onset_ci_inversion(*band, 0.9) == (None, None)

    def test_staircase_coverage(self):
        # known Bernoulli staircase, true onset at m = 7 under theta = 0.9
        m_grid = list(range(1, 11))
        true_p = [0.02, 0.1, 0.3, 0.55, 0.75, 0.88, 0.95, 0.985, 0.995,
                  0.999]
        true_onset = 7
        rng = np.random.default_rng(101)
        covered = 0
        for _ in range(1000):
            band = _band_from_probs(rng, m_grid, true_p, n=200)
            lo, hi = onset_ci_inversion(*band, 0.9)
            covered += (lo is not None and hi is not None
                        and lo <= true_onset <= hi)
        assert covered / 1000 >= 0.95

    def test_requires_sorted_unique_m(self):
        with pytest.raises(EstimationError):
            onset_ci_inversion(*_uniform_band((2, 2), [True] * 5), 0.9)

    def test_requires_columns_of_one_length(self):
        m_grid, n, ci_low, ci_high = _uniform_band((1, 2, 3), [True] * 5)
        for band in ((m_grid[:2], n, ci_low, ci_high),
                     (m_grid, n[:2], ci_low, ci_high),
                     (m_grid, n, ci_low, ci_high[:2])):
            with pytest.raises(EstimationError):
                onset_ci_inversion(*band, 0.9)

    @pytest.mark.parametrize(
        "ms, theta", [((), 0.9), ((1, 2), 0.0), ((1, 2), 1.0),
                      ((1, 2), float("nan"))],
        ids=["no-cells", "theta-0", "theta-1", "theta-nan"])
    def test_requires_cells_and_theta_in_unit_interval(self, ms, theta):
        with pytest.raises(EstimationError):
            onset_ci_inversion(*_uniform_band(ms, [True] * 5), theta)


def counts_of(flags_by_m):
    """(m_values, k, n) arrays, as the sweep passes them, from (m, flags)
    pairs sorted by increasing m."""
    m_values = np.array([m for m, _ in flags_by_m], dtype=np.int64)
    k = np.array([np.count_nonzero(f) for _, f in flags_by_m],
                 dtype=np.int64)
    n = np.array([f.size for _, f in flags_by_m], dtype=np.int64)
    return m_values, k, n


class TestBootstrapOnset:
    def test_saturated_zero_width(self):
        flags_by_m = [(m, np.ones(400, dtype=bool)) for m in (1, 2, 3)]
        lo, hi = _bootstrap_counts(*counts_of(flags_by_m), 0.9, 0.05, 50, 0)
        assert lo == 1 and hi == 1

    def test_single_replicate_degenerates(self):
        rng = np.random.default_rng(51)
        flags_by_m = [(m, rng.random(100) < p)
                      for m, p in [(1, 0.2), (2, 0.6), (3, 0.97)]]
        lo, hi = _bootstrap_counts(*counts_of(flags_by_m), 0.9, 0.05, 1, 3)
        assert lo == hi

    def test_staircase_coverage(self):
        m_grid = list(range(1, 11))
        true_p = [0.02, 0.1, 0.3, 0.55, 0.75, 0.88, 0.95, 0.985, 0.995,
                  0.999]
        true_onset = 7
        rng = np.random.default_rng(202)
        covered = 0
        trials = 500
        for rep in range(trials):
            flags_by_m = [(m, rng.random(200) < p)
                          for m, p in zip(m_grid, true_p)]
            lo, hi = _bootstrap_counts(*counts_of(flags_by_m), 0.9, 0.05,
                                       400, rep)
            covered += (lo is not None and hi is not None
                        and lo <= true_onset <= hi)
        assert covered / trials >= 0.93

    def test_replicate_onsets_match_direct_pava(self):
        # the vectorized replicate path must agree with isotonic_fit plus
        # a first-crossing scan on every row
        rng = np.random.default_rng(303)
        for _ in range(300):
            length = int(rng.integers(2, 9))
            p = rng.random((7, length))
            w = rng.integers(1, 50, size=length).astype(float)
            theta = float(rng.uniform(0.05, 0.95))
            got = _batch_onset_indices(p, w, theta)
            for row in range(7):
                iso = isotonic_fit(p[row], w)
                hits = np.nonzero(iso >= theta)[0]
                want = int(hits[0]) if hits.size else -1
                assert got[row] == want

    @given(st.data())
    def test_window_onsets_match_full_minimax(self, data):
        size = data.draw(st.integers(1, 10), label="len(m_grid)")
        lead = data.draw(st.integers(0, size), label="leading k = 0")
        trail = data.draw(st.integers(0, size - lead), label="trailing k = n")
        # disjoint families have a different n at every m
        if data.draw(st.booleans(), label="equal n"):
            n = [data.draw(st.integers(1, 40), label="n")] * size
        else:
            n = data.draw(st.lists(st.integers(1, 40), min_size=size,
                                   max_size=size), label="n")
        n = np.asarray(n, dtype=float)
        if lead and data.draw(st.booleans(), label="huge first n"):
            # later leading steps vanish against 2^60 theta, so the
            # running sums tie across the leading run
            n[0] = 2.0 ** 60
        settled = data.draw(st.booleans(), label="window settled")
        k = np.array([data.draw(st.sampled_from([0, int(nj)]) if settled
                                else st.integers(0, int(nj)), label="k")
                      for nj in n], dtype=float)
        k[:lead] = 0.0
        k[size - trail:] = n[size - trail:]
        theta = data.draw(st.one_of(
            st.sampled_from([0.25, 0.5, 0.6, 0.75, 0.8, 0.9]),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            label="theta")
        rows = data.draw(st.sampled_from([1, 2, 7, 300]), label="rows")
        seed = data.draw(st.integers(0, 2 ** 32), label="seed")
        k_star = np.random.Generator(np.random.PCG64(seed)).binomial(
            n.astype(np.int64), k / n, size=(rows, size))
        want = _batch_onset_indices(k_star / n, n, theta)
        # the leading k = 0 columns are not passed
        drawn = k_star[:, int(np.argmax(k != 0)):]
        assert np.array_equal(_window_onset_indices(drawn, k, n, theta),
                              want)

    def test_window_onsets_keep_the_tie_behaviour(self):
        # PAVA pools sizes 2 and 3 to exactly 0.75 (onset index 1), but the
        # minimax route finds no onset; the window route must give what the
        # minimax route gives, alone and between settled columns
        n = np.array([2.0, 1.0, 3.0])
        k = np.array([1.0, 1.0, 2.0])
        assert _batch_onset_indices((k / n)[None, :], n, 0.75).tolist() == [-1]
        for n, k, lead in [(n, k, 0),
                           (np.r_[4.0, n, 5.0], np.r_[0.0, k, 5.0], 1)]:
            k_star = k.astype(np.int64)[None, :]
            assert np.array_equal(
                _window_onset_indices(k_star[:, lead:], k, n, 0.75),
                _batch_onset_indices(k_star / n, n, 0.75))

    @given(st.data())
    def test_settled_group_matches_one_draw(self, data):
        # every k is 0 or n: each replicate redraws the observed counts
        size = data.draw(st.integers(1, 12), label="len(m_grid)")
        steps = data.draw(st.lists(st.integers(1, 5), min_size=size,
                                   max_size=size), label="m steps")
        n = data.draw(st.lists(st.integers(1, 2000), min_size=size,
                               max_size=size), label="n")
        full = data.draw(st.lists(st.booleans(), min_size=size,
                                  max_size=size), label="k == n")
        theta = data.draw(st.floats(0.0, 1.0, exclude_min=True,
                                    exclude_max=True), label="theta")
        n_replicates = data.draw(st.integers(1, 300), label="B")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
        m_values = np.cumsum(steps).astype(np.int64)
        n = np.asarray(n, dtype=float)
        k = np.where(full, n, 0.0)
        want, _ = bootstrap_one_draw(m_values, k, n, theta, 0.05,
                                     n_replicates, seed)
        assert _bootstrap_counts(m_values, k, n, theta, 0.05, n_replicates,
                                 seed) == want

    def test_blocks_draw_like_one_call(self, monkeypatch):
        rng = np.random.default_rng(71)
        n = rng.integers(1, 1000, size=128)
        p = rng.random(128)
        p[::7] = 0.0
        p[3::7] = 1.0
        one = np.random.Generator(np.random.PCG64(5)).binomial(
            n, p, size=(1000, 128))
        m_values = np.arange(1, 129, dtype=np.int64)
        k = np.round(n * p)
        n = n.astype(float)
        want, _ = bootstrap_one_draw(m_values, k, n, 0.6, 0.05, 1000, 5)
        for rows in (1, 300, 699):
            gen = np.random.Generator(np.random.PCG64(5))
            blocks = [gen.binomial(n.astype(np.int64), p,
                                   size=(min(rows, 1000 - start), 128))
                      for start in range(0, 1000, rows)]
            assert np.array_equal(np.concatenate(blocks), one), rows
            monkeypatch.setattr(estimation, "_BOOTSTRAP_BLOCK", rows * 128)
            assert _bootstrap_counts(m_values, k, n, 0.6, 0.05, 1000,
                                     5) == want

    @given(st.data())
    def test_draw_from_first_informative_column_keeps_the_stream(self, data):
        # numpy's binomial consumes no variate at p = 0, so dropping the
        # leading k = 0 columns leaves every later draw, and the generator
        # state after the block, as the full block has them
        size = data.draw(st.integers(2, 40), label="len(m_grid)")
        lead = data.draw(st.integers(1, size - 1), label="leading k = 0")
        n = np.asarray(data.draw(st.lists(st.integers(1, 3000), min_size=size,
                                          max_size=size), label="n"))
        p = np.asarray(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0])
                                          | st.floats(0.0, 1.0),
                                          min_size=size, max_size=size),
                                 label="p"))
        p[:lead] = 0.0
        rows = data.draw(st.integers(1, 300), label="rows")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
        full = np.random.Generator(np.random.PCG64(seed))
        window = np.random.Generator(np.random.PCG64(seed))
        want = full.binomial(n, p, size=(rows, size))
        got = window.binomial(n[lead:], p[lead:], size=(rows, size - lead))
        assert not want[:, :lead].any()
        assert np.array_equal(got, want[:, lead:])
        assert window.bit_generator.state == full.bit_generator.state

    @given(st.data())
    def test_leading_zero_columns_bootstrap_like_one_draw(self, data):
        size = data.draw(st.integers(2, 12), label="len(m_grid)")
        lead = data.draw(st.integers(1, size - 1), label="leading k = 0")
        n = np.asarray(data.draw(st.lists(st.integers(1, 500), min_size=size,
                                          max_size=size), label="n"),
                       dtype=float)
        k = np.array([data.draw(st.integers(0, int(nj)), label="k")
                      for nj in n], dtype=float)
        k[:lead] = 0.0
        theta = data.draw(st.floats(0.0, 1.0, exclude_min=True,
                                    exclude_max=True), label="theta")
        n_replicates = data.draw(st.integers(1, 200), label="B")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
        m_values = np.arange(1, size + 1, dtype=np.int64)
        want, _ = bootstrap_one_draw(m_values, k, n, theta, 0.05,
                                     n_replicates, seed)
        assert _bootstrap_counts(m_values, k, n, theta, 0.05, n_replicates,
                                 seed) == want

    def test_histogram_percentiles_match_quantile_nearest(self):
        # about a third of the replicates never reach theta, so the absent
        # bin takes part in the ranks
        m_values = np.array([1, 2, 4, 8], dtype=np.int64)
        n = np.array([8.0, 8.0, 8.0, 8.0])
        k = np.array([2.0, 5.0, 6.0, 7.0])
        bounds = set()
        for alpha, n_replicates in itertools.product((0.05, 0.01, 0.3),
                                                     range(1, 61)):
            want, onsets = bootstrap_one_draw(m_values, k, n, 0.8, alpha,
                                              n_replicates, n_replicates)
            got = _bootstrap_counts(m_values, k, n, 0.8, alpha, n_replicates,
                                    n_replicates)
            assert got == want, (alpha, n_replicates)
            bounds.add(want)
        assert np.isinf(onsets).any() and np.isfinite(onsets).any()
        assert len({lo for lo, _ in bounds}) > 1
        assert None in {hi for _, hi in bounds}

    def test_memory_is_bounded(self):
        # one (10^6, 128) draw would hold 1 GiB of counts alone; only one
        # p = 1/2 column is drawn at random, the rest are 0 or n
        m_values = np.arange(1, 129, dtype=np.int64)
        n = np.ones(128)
        n[64] = 2.0
        k = np.where(m_values > 64, n, 0.0)
        k[64] = 1.0
        tracemalloc.start()
        try:
            lo, hi = _bootstrap_counts(m_values, k, n, 0.5, 0.05, 10 ** 6, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (lo, hi) == (65, 66)
        assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_deterministic(self):
        rng = np.random.default_rng(61)
        flags_by_m = [(m, rng.random(150) < p)
                      for m, p in [(1, 0.3), (2, 0.7), (4, 0.95)]]
        a = _bootstrap_counts(*counts_of(flags_by_m), 0.9, 0.05, 200, 9)
        b = _bootstrap_counts(*counts_of(flags_by_m), 0.9, 0.05, 200, 9)
        assert a == b


class TestCombineOnsetCi:
    def test_narrower_wins(self):
        assert combine_onset_ci((2, 4), (2, 5)) == (2, 4)

    def test_absent_side_loses(self):
        assert combine_onset_ci((None, None), (3, 6)) == (3, 6)

    def test_tie_prefers_inversion(self):
        assert combine_onset_ci((2, 4), (3, 5)) == (2, 4)

"""Physics-layer unit tests.

Frozen oracle constants were computed with independent implementations
(Decimal bisection at 50 digits, scipy.optimize.brentq, mpmath findroot;
all three agree) and are asserted at tight tolerances here.  The package
itself never sees those tools.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scipy.optimize import brentq

from qdfi import (CouplingSet, DomainError, Tolerance, binary_entropy,
                  binary_entropy_inverse, capacity_min_size, holevo_biased,
                  is_adequate, landauer_min_heat, overlap_cutoff)
from qdfi.model import ENTROPY_FLOOR

# Independently derived (Decimal, 50 digits):
H2_075 = 0.8112781244591328
H2_03 = 0.8812908992306926
# brentq/mpmath/Decimal bisection of h2(p) = 0.95 on [0, 1/2]:
H2INV_095 = 0.36912774898451184
CUT_095 = 0.2617445020309763


class TestBinaryEntropy:
    def test_endpoints_exact(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_frozen_value(self):
        assert abs(binary_entropy(0.75) - H2_075) < 1e-12
        assert abs(binary_entropy(0.3) - H2_03) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for p in rng.uniform(0.0, 1.0, size=200):
            assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) < 1e-12

    def test_vectorized(self):
        p = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        out = binary_entropy(p)
        assert out.shape == p.shape
        assert out[0] == 0.0 and out[4] == 0.0
        assert abs(out[1] - H2_075) < 1e-12

    def test_edge_tolerance(self):
        # tiny excursions past [0,1] are treated as the endpoint
        assert binary_entropy(-1e-10) == 0.0
        assert binary_entropy(1.0 + 1e-10) == 0.0

    def test_clipped_arguments_read_at_most_the_floor(self):
        # h2(1e-20) is about 6.8e-19, but the clip reads h2(1e-15)
        for p in (1e-20, 1e-15, 1.0 - 1e-16, 1.0 - 1e-15):
            assert 0.0 < binary_entropy(p) <= ENTROPY_FLOOR
        assert binary_entropy(2e-15) > ENTROPY_FLOOR

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)
        with pytest.raises(DomainError):
            binary_entropy(float("nan"))


class TestBinaryEntropyInverse:
    def test_endpoints(self):
        assert binary_entropy_inverse(0.0) == 0.0
        assert binary_entropy_inverse(1.0) == 0.5

    def test_frozen_value(self):
        assert abs(binary_entropy_inverse(0.95) - H2INV_095) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for p in rng.uniform(1e-4, 0.5, size=200):
            y = float(binary_entropy(p))
            assert abs(binary_entropy_inverse(y) - p) < 1e-8

    def test_forward_trip(self):
        rng = np.random.default_rng(29)
        for y in rng.uniform(0.0, 1.0, size=200):
            p = binary_entropy_inverse(y)
            assert 0.0 <= p <= 0.5
            assert abs(float(binary_entropy(p)) - y) < 1e-10

    @staticmethod
    def assert_smallest_reaching(y):
        # h is the smallest float whose h2 reaches y: the float below it
        # falls short
        h = binary_entropy_inverse(y)
        assert binary_entropy(h) >= y > binary_entropy(np.nextafter(h, 0.0))

    def test_exact_on_log_grid(self):
        ys = np.geomspace(1e-13, 1.0 - 1e-9, 300)
        assert ys[0] > ENTROPY_FLOOR
        for y in ys:
            self.assert_smallest_reaching(float(y))

    @given(st.floats(ENTROPY_FLOOR, 1.0, exclude_min=True, exclude_max=True))
    def test_exact_above_floor(self, y):
        self.assert_smallest_reaching(y)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy_inverse(-0.1)
        with pytest.raises(DomainError):
            binary_entropy_inverse(1.1)

    def test_rejects_values_at_or_below_floor(self):
        # binary_entropy reads the clip there, and bisection ended at
        # 5e-324 after about 1075 steps
        for y in (1e-20, ENTROPY_FLOOR):
            with pytest.raises(DomainError, match="entropy floor"):
                binary_entropy_inverse(y)
        self.assert_smallest_reaching(math.nextafter(ENTROPY_FLOOR, 1.0))


class TestHolevoEquiprobable:
    # holevo_biased at equal priors p0 = 1/2
    def test_identical_states(self):
        assert holevo_biased(0.0, 0.5) == 0.0

    def test_orthogonal_limit(self):
        assert holevo_biased(-1e6, 0.5) == 1.0

    def test_half_overlap(self):
        # c = 0.5 -> h2(0.75)
        assert abs(holevo_biased(math.log(0.5), 0.5) - H2_075) < 1e-12

    def test_monotone_in_overlap(self):
        log_c = np.linspace(-8.0, 0.0, 100)
        chi = holevo_biased(log_c, 0.5)
        assert np.all(np.diff(chi) <= 1e-15)
        assert np.all(chi >= 0.0) and np.all(chi <= 1.0)


class TestHolevoBiased:
    def test_identical_states(self):
        for p0 in (0.1, 0.5, 0.9):
            assert holevo_biased(0.0, p0) == 0.0

    def test_orthogonal_equals_ensemble_entropy(self):
        assert abs(holevo_biased(-1e6, 0.3) - H2_03) < 1e-12

    def test_consistent_with_equiprobable(self):
        # equal priors: chi = h2((1 + c)/2)
        for c in np.linspace(1e-6, 1.0, 50):
            assert abs(holevo_biased(math.log(c), 0.5)
                       - binary_entropy((1.0 + c) / 2.0)) < 1e-12

    def test_bounded_by_entropy(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p0 = rng.uniform(0.05, 0.95)
            log_c = -rng.exponential(1.0)
            chi = holevo_biased(log_c, p0)
            assert -1e-12 <= chi <= float(binary_entropy(p0)) + 1e-12

    def test_matches_density_matrix_oracle(self):
        # brute-force check: chi = S(p0 rho0 + p1 rho1) for pure states
        # with real overlap c, eigenvalues from numpy.linalg.eigvalsh
        rng = np.random.default_rng(47)
        for _ in range(200):
            p0 = rng.uniform(0.0, 1.0)
            c = rng.uniform(1e-6, 1.0)
            psi0 = np.array([1.0, 0.0])
            psi1 = np.array([c, math.sqrt(1.0 - c * c)])
            rho = (p0 * np.outer(psi0, psi0)
                   + (1.0 - p0) * np.outer(psi1, psi1))
            evals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
            expect = -sum(v * math.log2(v) for v in evals if v > 1e-300)
            assert abs(holevo_biased(math.log(c), p0) - expect) < 1e-10


class TestAdequacy:
    def test_clearly_adequate(self):
        tol = Tolerance.for_entropy(0.05)
        assert is_adequate(1.0, tol) is True

    def test_clearly_inadequate(self):
        tol = Tolerance.for_entropy(0.05)
        assert is_adequate(0.94, tol) is False

    def test_boundary_inclusive(self):
        tol = Tolerance.for_entropy(0.05)
        assert tol.threshold == pytest.approx(0.95, abs=1e-15)
        assert is_adequate(0.95, tol) is True

    def test_array_input(self):
        tol = Tolerance.for_entropy(0.05)
        out = is_adequate(np.array([0.2, 0.95, 0.99]), tol)
        assert out.tolist() == [False, True, True]


class TestOverlapCutoff:
    def test_full_information_needs_orthogonality(self):
        tol = Tolerance(delta=0.5, threshold=1.0)
        assert abs(overlap_cutoff(tol, 0.5)) < 1e-9

    def test_zero_threshold_admits_anything(self):
        tol = Tolerance(delta=0.5, threshold=0.0)
        assert abs(overlap_cutoff(tol, 0.5) - 1.0) < 1e-12

    def test_frozen_value(self):
        tol = Tolerance.for_entropy(0.05)
        assert abs(overlap_cutoff(tol, 0.5) - CUT_095) < 1e-9

    def test_equal_priors_are_one_minus_two_h(self):
        for delta in np.geomspace(1e-4, 0.999, 200):
            tol = Tolerance.for_entropy(float(delta))
            assert overlap_cutoff(tol, 0.5) == (
                1.0 - 2.0 * binary_entropy_inverse(tol.threshold))

    def test_cutoff_grows_with_delta(self):
        for p0 in (0.3, 0.5):
            cuts = [overlap_cutoff(
                Tolerance.for_entropy(d, binary_entropy(p0)), p0)
                for d in (0.01, 0.05, 0.1, 0.3)]
            assert all(a < b for a, b in zip(cuts, cuts[1:]))

    def test_consistency_with_adequacy(self):
        # c <= c_delta iff chi(c) >= threshold, checked across the range
        for p0 in (0.3, 0.5, 0.7):
            tol = Tolerance.for_entropy(0.05, binary_entropy(p0))
            cut = overlap_cutoff(tol, p0)
            for c in np.linspace(1e-6, 1.0 - 1e-6, 300):
                chi = holevo_biased(math.log(c), p0)
                assert is_adequate(chi, tol) == bool(c <= cut + 1e-12)

    def test_root_of_holevo_biased(self):
        # brentq solves holevo_biased(ln c, p0) = threshold for c.  Far
        # from 1/2 the cutoff takes every digit of h2's inverse, so it is
        # held to a relative bound; below p0 ~ 1e-9 holevo_biased itself
        # loses digits, and no such p0 is tested
        bounds = [(p0, 1e-9, 0.0) for p0 in (0.05, 0.1, 0.3, 0.5, 0.7, 0.93)]
        bounds += [(p0, 0.0, 1e-6) for p0 in (1e-6, 1e-3, 0.999)]
        for p0, abs_bound, rel_bound in bounds:
            for delta in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9):
                tol = Tolerance.for_entropy(delta, binary_entropy(p0))
                root = brentq(
                    lambda c: holevo_biased(math.log(c), p0) - tol.threshold,
                    1e-300, 1.0 - 1e-15, xtol=1e-15, rtol=1e-15)
                err = abs(overlap_cutoff(tol, p0) - root)
                assert err < abs_bound + rel_bound * root, (p0, delta, err)

    def test_threshold_above_entropy_rejected(self):
        tol = Tolerance.for_entropy(0.05)
        with pytest.raises(DomainError, match="exceeds h2"):
            overlap_cutoff(tol, 0.3)
        for p0 in (0.0, 1.0):
            with pytest.raises(DomainError, match="strictly between"):
                overlap_cutoff(Tolerance(delta=0.5, threshold=0.0), p0)

    def test_threshold_at_or_below_floor_rejected(self):
        # such a threshold had a cutoff of 1.0, as if nothing were asked
        for threshold in (1e-20, ENTROPY_FLOOR):
            with pytest.raises(DomainError, match="entropy floor"):
                overlap_cutoff(Tolerance(delta=0.5, threshold=threshold), 0.5)


class TestMeanField:
    def test_loglog_slope_is_minus_two(self):
        # with flat couplings a fragment of m sites reaches the cutoff at
        # m = ln c_delta / ln c_1(t), and ln c_1(t) = -g^2 t^2 lambda
        cut = overlap_cutoff(Tolerance.for_entropy(0.05), 0.5)
        g, lam = 0.5, 1.0
        t1, t2 = 0.7, 2.9
        m1 = math.log(cut) / (-(g * g) * (t1 * t1) * lam)
        m2 = math.log(cut) / (-(g * g) * (t2 * t2) * lam)
        slope = (math.log(m2) - math.log(m1)) / (math.log(t2) - math.log(t1))
        assert abs(slope - (-2.0)) < 1e-12


class TestPointerEnsemble:
    # the pointer mixture p0|0><0| + (1 - p0)|1><1| carries
    # H_S = binary_entropy(p0) bits, the entropy the sweep reads
    def test_balanced_entropy(self):
        assert binary_entropy(0.5) == 1.0

    def test_biased_entropy(self):
        assert abs(binary_entropy(0.3) - H2_03) < 1e-12

    def test_degenerate_endpoints(self):
        # a certain pointer outcome carries no entropy but is still legal
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)


class TestCapacity:
    # delta=1e-4 is the smallest admissible tolerance and stands in for
    # the delta -> 0 limit in the qubit examples below.
    def test_one_bit_one_qubit(self):
        tol = Tolerance.for_entropy(1e-4, entropy=1.0)
        assert capacity_min_size(tol, 2) == 1

    def test_three_bits_three_qubits(self):
        tol = Tolerance.for_entropy(1e-4, entropy=3.0)
        assert capacity_min_size(tol, 2) == 3

    def test_quarter_bit_rounds_up(self):
        tol = Tolerance.for_entropy(0.5, entropy=1.0)
        assert capacity_min_size(tol, 4) == 1

    def test_env_dim_rejected(self):
        with pytest.raises(DomainError):
            capacity_min_size(Tolerance.for_entropy(0.05), 1)


class TestLandauer:
    def test_one_full_record(self):
        tol = Tolerance(delta=1e-4, threshold=1.0)
        assert landauer_min_heat(1.0, tol, kt_ln2=1.0) == 1.0

    def test_no_records_no_heat(self):
        tol = Tolerance.for_entropy(0.05)
        assert landauer_min_heat(0.0, tol) == 0.0

    def test_ten_half_records(self):
        tol = Tolerance.for_entropy(0.5, entropy=1.0)
        assert abs(landauer_min_heat(10.0, tol, kt_ln2=1.0) - 5.0) < 1e-12

    def test_negative_redundancy_rejected(self):
        with pytest.raises(DomainError):
            landauer_min_heat(-1.0, Tolerance.for_entropy(0.05))


class TestCouplingSet:
    def test_exponential_reproducible(self):
        a = CouplingSet.exponential(100, 1.0, 0.5, seed=9)
        b = CouplingSet.exponential(100, 1.0, 0.5, seed=9)
        assert np.array_equal(a.couplings, b.couplings)

    def test_ensemble_mean(self):
        lam = CouplingSet.exponential(200_000, 2.0, 0.5, seed=1)
        assert abs(lam.coupling_mean - 0.5) < 5e-3

    def test_fields(self):
        lam = CouplingSet(couplings=np.array([2.0, 4.0]), g=0.3)
        assert lam.couplings.size == 2
        assert lam.coupling_mean == 3.0

    def test_validation(self):
        with pytest.raises(DomainError):
            CouplingSet(couplings=np.array([-1.0]), g=0.5)
        with pytest.raises(DomainError):
            CouplingSet.exponential(0, 1.0, 0.5, seed=0)
        with pytest.raises(DomainError):
            CouplingSet.exponential(5, -1.0, 0.5, seed=0)
        # g^2 overflows, so every product with g * g would be inf
        with pytest.raises(DomainError, match="finite square"):
            CouplingSet.exponential(10, 1.0, 1e200, seed=1)


class TestTolerance:
    def test_threshold_formula(self):
        tol = Tolerance.for_entropy(0.1, entropy=0.9)
        assert abs(tol.threshold - 0.81) < 1e-15
        assert tol.delta == 0.1

    def test_delta_bounds(self):
        with pytest.raises(DomainError):
            Tolerance.for_entropy(0.0)
        with pytest.raises(DomainError):
            Tolerance.for_entropy(1.0)
        with pytest.raises(DomainError):
            Tolerance.for_entropy(1e-5)


# Domain checks as they read when each was a full scan; the fast checks
# in model must raise the same class with the same message.
_EDGE_TOL = 1e-9


def prob_error(p, name):
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)):
        return DomainError(f"{name} must be finite")
    if np.any(arr < -_EDGE_TOL) or np.any(arr > 1.0 + _EDGE_TOL):
        return DomainError(f"{name} must lie in [0, 1] (got extremes "
                           f"[{arr.min()}, {arr.max()}])")
    return None


def log_overlap_error(log_c):
    arr = np.asarray(log_c, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr > _EDGE_TOL):
        return DomainError("log overlap must be <= 0")
    return None


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:   # compared by class and message
        return exc
    return None


def same_error(got, want):
    return (type(got), str(got)) == (type(want), str(want))


_SPECIALS = [math.nan, math.inf, -math.inf, -0.5, 1.5, -2e-9, 1.0 + 2e-9,
             -1e-9, 1.0 + 1e-9, -0.0, 0.0, 1.0]


def _arrays(elements):
    return st.lists(st.one_of(st.sampled_from(_SPECIALS), elements),
                    max_size=12).map(lambda xs: np.array(xs, dtype=float))


class TestDomainChecks:
    @given(_arrays(st.floats(0.0, 1.0)))
    def test_binary_entropy(self, arr):
        want = prob_error(arr, "p")
        assert same_error(raised(binary_entropy, arr), want)
        if want is None:
            # the entropy itself, with the clips spelled out
            clamped = np.clip(arr, 0.0, 1.0)
            inner = np.clip(clamped, 1e-15, 1.0 - 1e-15)
            h = -(inner * np.log2(inner)
                  + (1.0 - inner) * np.log2(1.0 - inner))
            h = np.where((clamped <= 0.0) | (clamped >= 1.0), 0.0, h)
            assert np.array_equal(binary_entropy(arr), h)

    @given(_arrays(st.floats(-50.0, 0.0)),
           st.one_of(st.sampled_from(_SPECIALS), st.floats(0.0, 1.0)))
    def test_holevo_biased(self, log_c, p0):
        want = prob_error(p0, "p0") or log_overlap_error(log_c)
        assert same_error(raised(holevo_biased, log_c, p0), want)

    @given(_arrays(st.floats(0.0, 1.0)))
    def test_is_adequate(self, chi):
        want = (DomainError("chi must not be NaN")
                if np.any(np.isnan(chi)) else None)
        assert same_error(raised(is_adequate, chi, Tolerance.for_entropy(
            0.05)), want)

    def test_empty_arrays_pass(self):
        empty = np.array([])
        assert binary_entropy(empty).shape == (0,)
        assert holevo_biased(empty, 0.3).shape == (0,)
        assert holevo_biased(empty, 0.5).shape == (0,)
        assert is_adequate(empty, Tolerance.for_entropy(0.05)).shape == (0,)

"""Physical primitives for a pure-dephasing spin register.

A central qubit prepared in a pointer mixture dephases against N
environment spins with fixed couplings lambda_k.  Everything downstream
(adequacy counting, redundancy, functional information) reduces to three
ingredients implemented here:

* the pairwise overlap of conditional environment states, kept in log
  domain because exp(-g^2 t^2 sum lambda) underflows long before the
  interesting regime ends,
* the Holevo information of a binary ensemble of pure states, which for
  equal priors collapses to h2((1+c)/2) and for biased priors to the
  entropy of the larger eigenvalue of a 2x2 density matrix,
* the adequacy cutoff c_delta obtained by inverting the binary entropy
  on [0, 1/2] and solving chi(c) = (1 - delta) H_S for the overlap.

All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
    "CouplingSet",
    "Tolerance",
    "ENTROPY_FLOOR",
    "binary_entropy",
    "binary_entropy_inverse",
    "log_overlap",
    "holevo_biased",
    "is_adequate",
    "overlap_cutoff",
    "capacity_min_size",
    "landauer_min_heat",
]

# Probabilities this close to the [0, 1] boundary are treated as exact
# endpoints; anything further out is a caller bug, not roundoff.
_EDGE_TOL = 1e-9
# Clamp applied to log arguments so entropy evaluation never produces NaN.
_LOG_CLIP = 1e-15
# Absolute bracket width at which binary_entropy_inverse stops bisecting.
_H2_INVERSE_TOL = 1e-12


class DomainError(ValueError):
    """A numeric argument left its physical domain."""


def _as_prob(p, name: str) -> np.ndarray:
    """Validate probabilities up to _EDGE_TOL roundoff and clamp to [0, 1]."""
    arr = np.asarray(p, dtype=float)
    # min/max pass NaN through, so one range test clears every valid
    # input; the scans below run only to name what failed
    if arr.size and not (arr.min() >= -_EDGE_TOL
                         and arr.max() <= 1.0 + _EDGE_TOL):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} must be finite")
        raise DomainError(f"{name} must lie in [0, 1] (got extremes "
                          f"[{arr.min()}, {arr.max()}])")
    return np.clip(arr, 0.0, 1.0)


def binary_entropy(p):
    """Binary Shannon entropy h2(p) = -p log2 p - (1-p) log2 (1-p), in bits.

    Accepts scalars or arrays.  Inputs within 1e-9 of [0, 1] are clamped
    to the boundary and the endpoints return exactly 0.0; inputs further
    outside raise DomainError.  Interior arguments are clipped away from
    the boundary before the logs so no NaN can escape.

    Examples:
        binary_entropy(0.5) == 1.0
        binary_entropy(0.0) == 0.0
    """
    arr = _as_prob(p, "p")
    # np.clip on NaN-free input with positive bounds, without its
    # per-call dispatch
    inner = np.minimum(np.maximum(arr, _LOG_CLIP), 1.0 - _LOG_CLIP)
    h = -(inner * np.log2(inner) + (1.0 - inner) * np.log2(1.0 - inner))
    h = np.where((arr <= 0.0) | (arr >= 1.0), 0.0, h)
    if np.ndim(p) == 0:
        return float(h)
    return h


# What binary_entropy reads for any argument it clips, within _LOG_CLIP of
# 0 or 1, at most: an entropy at or below it cannot be told from the clip.
ENTROPY_FLOOR = max(binary_entropy(_LOG_CLIP), binary_entropy(1.0 - _LOG_CLIP))


def binary_entropy_inverse(y: float) -> float:
    """Principal inverse of h2 on [0, 1/2], bisected to _H2_INVERSE_TOL.

    binary_entropy_inverse(0.0) == 0.0 and binary_entropy_inverse(1.0) == 0.5.
    """
    if not math.isfinite(y):
        raise DomainError("entropy value must be finite")
    if y < -_EDGE_TOL or y > 1.0 + _EDGE_TOL:
        raise DomainError(f"entropy value must lie in [0, 1], got {y}")
    y = min(max(y, 0.0), 1.0)
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > _H2_INVERSE_TOL:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_overlap(couplings, g: float, t: float) -> float:
    """ln |<E_0(t)|E_1(t)>| for a fragment holding the given couplings.

    For pure dephasing the conditional fragment states stay product states
    and the log overlap is exactly -g^2 t^2 sum_k lambda_k.  Working in
    log domain here is what keeps late times representable.
    """
    lam = np.asarray(couplings, dtype=float)
    if lam.ndim != 1:
        raise DomainError("couplings must be one-dimensional")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
        raise DomainError("couplings must be finite and nonnegative")
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if not math.isfinite(g):
        raise DomainError("coupling scale g must be finite")
    return -(g * g) * (t * t) * float(lam.sum())


def _overlap_from_log(log_c) -> np.ndarray:
    arr = np.asarray(log_c, dtype=float)
    # max passes NaN through, which fails the test as it should
    if arr.size and not arr.max() <= _EDGE_TOL:
        raise DomainError("log overlap must be <= 0")
    # exp underflows to 0.0 for very negative arguments, which is the
    # correct limit (orthogonal conditional states).
    return np.exp(np.minimum(arr, 0.0))


def holevo_biased(log_c, p0: float):
    """Holevo information for pointer priors (p0, 1-p0).

    The average state of two pure states with overlap c and priors
    (p0, 1-p0) lives in a 2-dimensional span; its eigenvalues are
    (1 +/- sqrt(1 - 4 p0 (1-p0) (1-c^2)))/2, so chi = h2(lambda_plus).
    At p0 = 1/2 this is h2((1 + c)/2), the equal-prior form, and it
    never exceeds h2(p0).
    """
    p0 = float(_as_prob(p0, "p0"))
    c = _overlap_from_log(log_c)
    disc = 1.0 - 4.0 * p0 * (1.0 - p0) * (1.0 - c * c)
    lam_plus = 0.5 * (1.0 + np.sqrt(np.maximum(disc, 0.0)))
    out = binary_entropy(lam_plus)
    if np.ndim(log_c) == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class CouplingSet:
    """Quenched environment couplings lambda_k plus the global scale g.

    The coupling array is drawn once per run and shared by every fragment;
    it is frozen read-only on construction.
    """

    couplings: np.ndarray
    g: float
    n_sites: int = field(init=False)
    coupling_mean: float = field(init=False)

    def __post_init__(self) -> None:
        lam = np.asarray(self.couplings, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise DomainError("couplings must be a nonempty 1-d array")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
            raise DomainError("couplings must be finite and nonnegative")
        if not math.isfinite(self.g * self.g):
            raise DomainError(f"coupling scale g must have a finite square, "
                              f"got {self.g}")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "couplings", lam)
        object.__setattr__(self, "n_sites", int(lam.size))
        object.__setattr__(self, "coupling_mean", float(lam.mean()))

    @classmethod
    def exponential(cls, n_sites: int, rate: float, g: float,
                    seed: int) -> "CouplingSet":
        """Draw n_sites couplings from Exp(rate) with a fixed PCG64 seed."""
        if n_sites < 1:
            raise DomainError("n_sites must be >= 1")
        if not (math.isfinite(rate) and rate > 0.0):
            raise DomainError("exponential rate must be positive")
        rng = np.random.Generator(np.random.PCG64(seed))
        lam = rng.exponential(scale=1.0 / rate, size=n_sites)
        return cls(couplings=lam, g=g)


@dataclass(frozen=True)
class Tolerance:
    """Adequacy tolerance delta and the derived information threshold
    (1 - delta) * H_S in bits.

    delta = 0 is rejected: the exact-information limit makes the overlap
    cutoff degenerate, so deltas below 1e-4 are refused outright.
    """

    delta: float
    threshold: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and 1e-4 <= self.delta < 1.0):
            raise DomainError(
                f"delta must lie in [1e-4, 1), got {self.delta}")
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise DomainError("threshold must be nonnegative")

    @classmethod
    def for_entropy(cls, delta: float, entropy: float = 1.0) -> "Tolerance":
        """Build the tolerance for a system with pointer entropy H_S."""
        if not (math.isfinite(entropy) and entropy >= 0.0):
            raise DomainError("entropy must be nonnegative")
        return cls(delta=delta, threshold=(1.0 - delta) * entropy)


def is_adequate(chi, tol: Tolerance):
    """Closed adequacy comparison chi >= (1 - delta) H_S.

    The comparison is inclusive so a fragment sitting exactly on the
    threshold counts.  Accepts scalars or arrays of chi values.
    """
    arr = np.asarray(chi, dtype=float)
    # max passes NaN through: one reduction finds any NaN
    if arr.size and np.isnan(arr.max()):
        raise DomainError("chi must not be NaN")
    out = arr >= tol.threshold
    if np.ndim(chi) == 0:
        return bool(out)
    return out


def overlap_cutoff(tol: Tolerance, p0: float) -> float:
    """Overlap cutoff c_delta: a fragment is delta-adequate iff c <= c_delta.

    Solving holevo_biased's h2(lambda_plus) = (1 - delta) H_S gives, with
    h = h2^{-1}((1 - delta) H_S) and q = min(p0, 1-p0),
    c_delta^2 = (q - h) (1 - q - h) / (q (1 - q)); at p0 = 1/2 that is
    exactly (1 - 2h)^2.  Raises DomainError when p0 is 0 or 1, or when
    the threshold exceeds h2(p0), which no overlap reaches.
    """
    p0 = float(_as_prob(p0, "p0"))
    q = min(p0, 1.0 - p0)
    if q == 0.0:
        raise DomainError("p0 must lie strictly between 0 and 1")
    entropy = binary_entropy(p0)
    if tol.threshold > entropy + _EDGE_TOL:
        raise DomainError(f"threshold {tol.threshold} exceeds h2(p0) = "
                          f"{entropy} bits; no overlap cutoff")
    h = binary_entropy_inverse(min(tol.threshold, entropy))
    return math.sqrt(max((q - h) * (1.0 - q - h), 0.0) / (q * (1.0 - q)))


def capacity_min_size(tol: Tolerance, env_dim: int) -> int:
    """Record-capacity floor: ceil(threshold / log2 d_e) sites.

    A fragment of local dimension d_e cannot hold (1 - delta) H_S bits
    with fewer sites than this, whatever the dynamics.
    """
    if env_dim < 2:
        raise DomainError(f"environment site dimension must be >= 2, "
                          f"got {env_dim}")
    if tol.threshold == 0.0:
        return 0
    return int(math.ceil(tol.threshold / math.log2(env_dim)))


def landauer_min_heat(redundancy: float, tol: Tolerance,
                      kt_ln2: float = 1.0) -> float:
    """Minimum heat to erase R records of (1 - delta) H_S bits each.

    kt_ln2 is the energy cost of one bit at the bath temperature; the
    default 1.0 reports the answer directly in bit-erasure units.
    """
    if not (math.isfinite(redundancy) and redundancy >= 0.0):
        raise DomainError("redundancy must be nonnegative")
    if not (math.isfinite(kt_ln2) and kt_ln2 >= 0.0):
        raise DomainError("kt_ln2 must be nonnegative")
    return redundancy * tol.threshold * kt_ln2

"""Trace generators: random arrival/magnitude workloads and the structured
worst-case instances used to probe the online algorithms.

Random workloads draw inter-arrival gaps from one of three models and
measurement weights i.i.d. uniform from a magnitude range. Gap draws get a
tiny seeded positive jitter so cumulated times are always strictly
increasing. The structured generators build the two-event identical
-observation instance, its equal-cost variant, and the geometric
single-observer instance; `perturb` randomly rescales positive weights.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import EventTrace, ValidationError, check_k

log = logging.getLogger(__name__)

_JITTER_LO = 1e-10
_JITTER_HI = 1e-9


@dataclass(frozen=True)
class ConstantArrivals:
    """Fixed gap between consecutive events."""

    interval: float = 20.0

    def __post_init__(self):
        if not self.interval > 0:
            raise ValidationError("interval must be positive")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.full(m, float(self.interval))


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals: exponential gaps with the given mean."""

    mean: float = 20.0

    def __post_init__(self):
        if not self.mean > 0:
            raise ValidationError("mean must be positive")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.exponential(self.mean, size=m)


@dataclass(frozen=True)
class WeibullArrivals:
    """Heavy-tailed bursty arrivals; scale follows from the requested mean."""

    shape: float = 0.5
    mean: float = 10.0

    def __post_init__(self):
        if not self.shape > 0:
            raise ValidationError("shape must be positive")
        if not self.mean > 0:
            raise ValidationError("mean must be positive")

    @property
    def scale(self) -> float:
        return self.mean / math.gamma(1.0 + 1.0 / self.shape)

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=m)


@dataclass(frozen=True)
class BigEvents:
    """Weights uniform in [0, 1] regardless of system count."""

    def high(self, n_systems: int) -> float:
        return 1.0


@dataclass(frozen=True)
class SmallEvents:
    """Weights uniform in [0, 1/N]: no single system dominates."""

    def high(self, n_systems: int) -> float:
        return 1.0 / n_systems


Arrivals = ConstantArrivals | PoissonArrivals | WeibullArrivals
Magnitude = BigEvents | SmallEvents


@dataclass(frozen=True)
class WorkloadSpec:
    arrivals: Arrivals
    magnitude: Magnitude
    n_events: int
    n_systems: int
    seed: int

    def __post_init__(self):
        if self.n_events < 1:
            raise ValidationError("n_events must be >= 1")
        if self.n_systems < 1:
            raise ValidationError("n_systems must be >= 1")


def repair_k_feasibility(
    weights: np.ndarray, k: int, rng: np.random.Generator, high: float
) -> None:
    """Redraw (in place) any row with fewer than k positive entries."""
    n = weights.shape[1]
    check_k(k, n)
    for row in np.nonzero(np.count_nonzero(weights > 0, axis=1) < k)[0]:
        for _ in range(1000):
            weights[row] = rng.uniform(0.0, high, size=n)
            if np.count_nonzero(weights[row] > 0) >= k:
                break
        else:
            raise ValidationError(
                f"could not redraw a {k}-feasible row (high={high})"
            )
        log.debug("redrew event row %d for %d-feasibility", row, k)


def gen_trace(spec: WorkloadSpec, ensure_k: int | None = None) -> EventTrace:
    """Random trace from a workload description, deterministic per seed.

    With ensure_k set, rows observed by fewer than that many systems are
    redrawn so the result supports a K-report requirement.
    """
    rng = np.random.default_rng(spec.seed)
    m, n = spec.n_events, spec.n_systems
    gaps = spec.arrivals.draw(rng, m)
    gaps = gaps + rng.uniform(_JITTER_LO, _JITTER_HI, size=m)
    times = np.cumsum(gaps)
    high = spec.magnitude.high(n)
    weights = rng.uniform(0.0, high, size=(m, n))
    if ensure_k is not None:
        repair_k_feasibility(weights, ensure_k, rng, high)
    return EventTrace(times, weights)


def gen_thm6_instance(
    n_systems: int,
    thetas,
    alpha: float = 1.0,
    epsilon: float = 1e-6,
) -> EventTrace:
    """Two identical events at t=0 and t=1 whose weights sit just above each
    system's trigger rate: w_i = theta_i + eps at the designated unit-cost
    system (index 0), alpha*theta_i + eps elsewhere."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (n_systems,):
        raise ValidationError(
            f"need {n_systems} thetas, got shape {thetas.shape}"
        )
    if not np.all(thetas > 0):
        raise ValidationError("thetas must be positive")
    if alpha < 1.0:
        raise ValidationError("alpha must be >= 1")
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    row = np.where(
        np.arange(n_systems) == 0,
        thetas + epsilon,
        alpha * thetas + epsilon,
    )
    return EventTrace([0.0, 1.0], np.vstack([row, row]))


def gen_sigma2(n_systems: int, epsilon: float = 1e-6) -> EventTrace:
    """Geometric burst seen by system 0 only: event h arrives at 1 - 2^-h
    with weight 2^h/sqrt(N) + eps. Only a single-report requirement is
    feasible on this trace."""
    if n_systems < 1:
        raise ValidationError("n_systems must be >= 1")
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    root = math.sqrt(n_systems)
    h_count = max(1, round(root / 2.0))
    times = [1.0 - 0.5**h for h in range(1, h_count + 1)]
    weights = np.zeros((h_count, n_systems))
    weights[:, 0] = [
        2.0**h / root + epsilon for h in range(1, h_count + 1)
    ]
    return EventTrace(times, weights)


def perturb(trace: EventTrace, pct: float, seed: int) -> EventTrace:
    """Rescale every positive weight by a random factor in [1-pct, 1+pct].

    Zero entries stay zero and event times are untouched.
    """
    if not 0.0 <= pct <= 1.0:
        raise ValidationError(f"pct must be in [0, 1], got {pct}")
    rng = np.random.default_rng(seed)
    w = np.array(trace.weights, dtype=float)
    u = rng.uniform(-pct, pct, size=w.shape)
    mask = w > 0
    w[mask] = w[mask] * (1.0 + u[mask])
    return trace.with_weights(w)

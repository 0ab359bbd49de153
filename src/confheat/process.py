"""Discretized independent-particle process and its path-regularity diagnostics.

Paths are exact in law at grid times (Gaussian increments of variance 2 dt per
coordinate), so continuity claims are probed by grid refinement rather than
discretization analysis.  Diagnostics cover: B_n continuity along paths, the
oscillation bound 2 tau(delta, r/4), and collision behavior (d >= 2 fractions
decreasing in epsilon; d = 1 crossing fractions against the reflection value).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import CapacityError
from .kernel import tau
from .points import Configuration
from .rng import TAG_COLLISION, TAG_OSCILLATION, TAG_PATHS, substream
from .special import binomial_se, ks_two_sample

PATH_CAPACITY = 100_000_000


@dataclass(frozen=True)
class PathBundle:
    """Discretized Brownian trajectories of all particles on a shared time grid."""

    dim: int
    dt: float
    horizon: float
    times: np.ndarray
    paths: np.ndarray  # (particles, steps + 1, dim)
    seed: int

    def __post_init__(self):
        if self.paths.ndim != 3 or self.paths.shape[2] != self.dim:
            raise ValueError("paths must have shape (particles, steps + 1, dim)")
        if self.times.shape != (self.paths.shape[1],):
            raise ValueError("time grid must match the step axis")
        if not np.all(np.isfinite(self.paths)):
            raise ValueError("paths must be finite")

    @property
    def n_particles(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1


def _steps_for(horizon: float, dt: float) -> int:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < dt:
        raise ValueError("horizon must be at least dt")
    steps = int(round(horizon / dt))
    if abs(steps * dt - horizon) > 1.0e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer multiple of dt")
    if steps > PATH_CAPACITY:
        raise CapacityError(f"step count {steps} exceeds capacity")
    return steps


def simulate_paths(
    gamma: Configuration,
    horizon: float,
    dt: float,
    seed: int,
    replica: int = 0,
) -> PathBundle:
    """Independent discretized Brownian paths from every particle of gamma.

    The time-t marginal equals one heat step of size t in distribution at every
    grid time.  Multiplicities unfold into independent particles.
    """
    steps = _steps_for(horizon, dt)
    start = gamma.expand()
    n = start.shape[0]
    if n * (steps + 1) * gamma.dim > PATH_CAPACITY:
        raise CapacityError("path array exceeds capacity")
    rng = substream(seed, TAG_PATHS, replica)
    inc = math.sqrt(2.0 * dt) * rng.standard_normal((n, steps, gamma.dim))
    paths = np.empty((n, steps + 1, gamma.dim))
    paths[:, 0, :] = start
    np.cumsum(inc, axis=1, out=paths[:, 1:, :])
    paths[:, 1:, :] += start[:, None, :]
    times = np.arange(steps + 1) * dt
    return PathBundle(gamma.dim, dt, steps * dt, times, paths, seed)


@dataclass(frozen=True)
class BnContinuityReport:
    n: int
    b_values: np.ndarray
    max_increment: float
    lipschitz_bound_ok: bool


def bn_values(bundle: PathBundle, n: int) -> np.ndarray:
    """B_n evaluated at every grid time of the bundle."""
    norms = np.linalg.norm(bundle.paths, axis=2)
    return np.exp(-norms / n).sum(axis=0)


def bn_continuity_report(bundle: PathBundle, n: int) -> BnContinuityReport:
    """Per-step increments of t -> B_n(omega(t)), with the deterministic
    path-wise bound |Delta B_n| <= (1/n) * sum_k |Delta omega_k| checked."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    b = bn_values(bundle, n)
    if bundle.n_steps == 0 or bundle.n_particles == 0:
        return BnContinuityReport(n, b, 0.0, True)
    increments = np.abs(np.diff(b))
    step_moves = np.linalg.norm(np.diff(bundle.paths, axis=1), axis=2).sum(axis=0)
    ok = bool(np.all(increments <= step_moves / n + 1.0e-12))
    return BnContinuityReport(n, b, float(increments.max()), ok)


def bn_refinement_medians(
    gamma: Configuration,
    horizon: float,
    dt_list,
    n: int,
    replicas: int,
    seed: int,
) -> list[float]:
    """Median (over replicas) of the max B_n step increment, for each dt.

    Refining the grid should shrink the medians; that is the desk-scale probe
    of path continuity of B_n.
    """
    medians = []
    for k, dt in enumerate(dt_list):
        maxima = np.empty(replicas)
        for r in range(replicas):
            bundle = simulate_paths(gamma, horizon, dt, seed, replica=(k << 20) + r)
            maxima[r] = bn_continuity_report(bundle, n).max_increment
        medians.append(float(np.median(maxima)))
    return medians


@dataclass(frozen=True)
class OscillationReport:
    delta: float
    r: float
    empirical: float
    std_error: float
    bound: float
    replicas: int
    passed: bool


def oscillation_check(
    start,
    a: float,
    b: float,
    r: float,
    replicas: int,
    seed: int,
    dim: int,
    substeps: int = 64,
) -> OscillationReport:
    """Empirical probability that some pair of grid times in [a, b] is more than
    r apart, tested one-sidedly against 2 * tau(b - a, r/4).

    The start point is irrelevant by translation invariance, but accepted to
    make call sites read like the statement being checked.
    """
    if substeps < 64:
        raise ValueError("at least 64 substeps required")
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    delta = b - a
    np.asarray(start, dtype=float).reshape(dim)
    rng = substream(seed, TAG_OSCILLATION)
    exceed = 0
    batch = max(1, min(replicas, 2_000_000 // (substeps * substeps)))
    done = 0
    while done < replicas:
        m = min(batch, replicas - done)
        inc = math.sqrt(2.0 * delta / substeps) * rng.standard_normal((m, substeps, dim))
        pos = np.concatenate([np.zeros((m, 1, dim)), np.cumsum(inc, axis=1)], axis=1)
        diffs = pos[:, :, None, :] - pos[:, None, :, :]
        diam = np.sqrt(np.max(np.sum(diffs * diffs, axis=3), axis=(1, 2)))
        exceed += int(np.sum(diam > r))
        done += m
    p_hat = exceed / replicas
    se = binomial_se(p_hat, replicas)
    bound = 2.0 * tau(dim, delta, r / 4.0)
    return OscillationReport(delta, r, p_hat, se, bound, replicas, p_hat <= bound + 4.0 * se)


@dataclass(frozen=True)
class CollisionReport:
    epsilons: tuple[float, ...]
    fractions: tuple[float, ...]
    crossing_fraction: float | None
    crossing_reference: float | None
    replicas: int
    note: str


def collision_report(
    gamma: Configuration,
    horizon: float,
    dt: float,
    replicas: int,
    seed: int,
    epsilon_list,
) -> CollisionReport:
    """Fractions of replicas whose minimum pairwise distance over the grid drops
    below each epsilon; for d = 1 additionally the pair-crossing fraction.

    Min-distance detection is grid-based (between-grid near misses are not
    counted; the note says so).  The d = 1 crossing indicator is made exact in
    law by sampling the Brownian-bridge crossing probability
    exp(-d_i d_{i+1} / (2 dt)) on every same-sign step of each pair difference.
    """
    eps = [float(e) for e in epsilon_list]
    if not eps or any(e <= 0 for e in eps) or any(y >= x for x, y in zip(eps, eps[1:])):
        raise ValueError("epsilon_list must be positive and strictly decreasing")
    start = gamma.expand()
    n = start.shape[0]
    if n < 2:
        raise ValueError("collision diagnostics need at least 2 particles")
    steps = _steps_for(horizon, dt)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    min_dist = np.empty(replicas)
    crossed = np.zeros(replicas, dtype=bool)
    batch = max(1, min(replicas, 4_000_000 // max(1, n * (steps + 1))))
    done = 0
    rng = substream(seed, TAG_COLLISION)
    while done < replicas:
        m = min(batch, replicas - done)
        inc = math.sqrt(2.0 * dt) * rng.standard_normal((m, n, steps, gamma.dim))
        pos = np.empty((m, n, steps + 1, gamma.dim))
        pos[:, :, 0, :] = start
        np.cumsum(inc, axis=2, out=pos[:, :, 1:, :])
        pos[:, :, 1:, :] += start[None, :, None, :]
        dmin = np.full(m, np.inf)
        cross = np.zeros(m, dtype=bool)
        for i, j in pairs:
            diff = pos[:, i, :, :] - pos[:, j, :, :]
            dist = np.linalg.norm(diff, axis=2)
            dmin = np.minimum(dmin, dist.min(axis=1))
            if gamma.dim == 1:
                d_line = diff[:, :, 0]
                prod = d_line[:, :-1] * d_line[:, 1:]
                cross |= np.any(prod <= 0.0, axis=1)
                with np.errstate(over="ignore"):
                    p_bridge = np.where(prod > 0.0, np.exp(-prod / (2.0 * dt)), 0.0)
                u = rng.random(p_bridge.shape)
                cross |= np.any(u < p_bridge, axis=1)
        min_dist[done : done + m] = dmin
        crossed[done : done + m] = cross
        done += m
    fractions = tuple(float(np.mean(min_dist < e)) for e in eps)
    crossing = float(np.mean(crossed)) if gamma.dim == 1 else None
    reference = None
    if gamma.dim == 1 and n == 2:
        gap = abs(float(start[0, 0] - start[1, 0]))
        reference = 2.0 * float(ndtr(-gap / math.sqrt(4.0 * horizon)))
    note = "min-distance fractions are grid-based; between-grid near misses are not counted"
    if gamma.dim == 1:
        note += "; crossing fraction uses the exact Brownian-bridge correction"
    return CollisionReport(tuple(eps), fractions, crossing, reference, replicas, note)


def marginal_ks(gamma_dim: int, t: float, dt: float, replicas: int, seed: int) -> tuple[float, float]:
    """Two-sample KS test of |one-step heat displacement| against the time-t
    slice of a simulated path (single particle): statistic and p-value."""
    steps = _steps_for(t, dt)
    rng_a = substream(seed, TAG_PATHS, 101)
    inc = math.sqrt(2.0 * dt) * rng_a.standard_normal((replicas, steps, gamma_dim))
    end = inc.sum(axis=1)
    path_norms = np.linalg.norm(end, axis=1)
    rng_b = substream(seed, TAG_PATHS, 202)
    direct = math.sqrt(2.0 * t) * rng_b.standard_normal((replicas, gamma_dim))
    direct_norms = np.linalg.norm(direct, axis=1)
    return ks_two_sample(path_norms, direct_norms)

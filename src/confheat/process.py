"""Discretized independent-particle process and its path-regularity diagnostics.

Every path is a running sum of iid Gaussian steps of variance 2 dt per
coordinate, exact in law at grid times, so continuity claims are probed by grid
refinement rather than discretization analysis.  One increment sampler,
``_increment_blocks``, draws and scales the replicas' steps in consecutive
blocks of at most ``rng.BLOCK_POINTS`` path points, written into one reused
buffer.  Every diagnostic reduces a block before it draws the next: memory is
bounded by the block, not by the replica count, and the draws are those of one
call for all replicas.  ``_path_blocks`` turns each block into paths by a
running sum from the start.  Each diagnostic draws all its replicas from one
substream.
Collisions are a pair diagnostic: exactly two particles, through their
difference.  In d >= 2 the collision grid draws that difference alone, in one
``_increment_blocks`` call over the whole horizon, and reads its squared length
from ``special.sq_dist`` block by block; on the line no grid is read,
and its minimum comes from its Brownian-bridge law given the endpoint, exact in
law for the continuous path.
Diagnostics cover: the time-t law against the exact heat law (one-sample
Kolmogorov-Smirnov on one step of variance 2 t per coordinate), B_n continuity
along paths (the median largest B_n step increment shrinks as the grid is
refined), the oscillation bound 2 tau(delta, r/4), and collision behavior
(d >= 2 fractions decreasing in epsilon; the d = 1 crossing fraction against
the reflection value).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov, ndtr

from .errors import CapacityError
from .kernel import HeatKernelParams, tail_mass, tau
from .metrics import b_n
from .points import Configuration
from .rng import TAG_COLLISION, TAG_MARGINAL, TAG_OSCILLATION, TAG_PATHS, block_rows, substream
from .special import binomial_se, sq_dist

PATH_CAPACITY = 100_000_000
PAIR_POINTS = 2_000_000  # pairwise differences one oscillation batch holds
#: one replica's substeps^2 pairwise differences fit in one oscillation batch
OSCILLATION_MAX_SUBSTEPS = math.isqrt(PAIR_POINTS)


def _steps_for(horizon: float, dt: float) -> int:
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not horizon >= dt:
        raise ValueError("horizon must be at least dt")
    ratio = horizon / dt
    if not ratio <= PATH_CAPACITY:  # inf too, before int() could overflow
        raise CapacityError(f"step count {ratio:.6g} exceeds capacity")
    steps = int(round(ratio))
    if abs(steps * dt - horizon) > 1.0e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer multiple of dt")
    return steps


def path_size(coords: int, steps: int) -> int:
    """Coordinates of one replica's ``_path_blocks`` paths from ``coords`` start coordinates, at most PATH_CAPACITY."""
    if coords * (steps + 1) > PATH_CAPACITY:
        raise CapacityError("path array exceeds capacity")
    return coords * (steps + 1)


def _increment_blocks(rng, n: int, dim: int, steps: int, dt: float, replicas: int):
    """Gaussian steps of ``replicas`` replicas of n Brownian paths in R^dim on the
    grid 0, dt, ..., steps * dt, in consecutive blocks.

    Yields (offset, inc): inc has shape (b, n, steps, dim), holds the steps of
    replicas offset .. offset + b - 1, each of variance 2 dt per coordinate, and
    covers at most ``BLOCK_POINTS`` path points (steps + 1 per particle) and one
    replica at least.  Every block is written into the same buffer, so it must
    be reduced before the next is asked for; the consumer may overwrite it, as
    the next draw refills it.  ``standard_normal`` fills each block in
    replica-major order, so the draws are those of one call for all replicas,
    whatever the block size.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    rows = min(replicas, block_rows(n * (steps + 1)))
    z = np.empty((rows, n, steps, dim))
    scale = math.sqrt(2.0 * dt)
    for offset in range(0, replicas, rows):
        step = z[:min(rows, replicas - offset)]
        rng.standard_normal(out=step)
        step *= scale
        yield offset, step


def _path_blocks(rng, start: np.ndarray, steps: int, dt: float, replicas: int):
    """Brownian paths of ``replicas`` replicas from the rows of ``start`` (n, dim)
    on the grid 0, dt, ..., steps * dt: the running sums of ``_increment_blocks``
    plus the start, in the same blocks.

    Yields (offset, paths): paths has shape (b, n, steps + 1, dim) and holds
    replicas offset .. offset + b - 1, in one reused buffer like the steps.
    """
    n, dim = start.shape
    path_size(start.size, steps)
    paths = None
    nonzero_start = bool(np.any(start))  # adding a zero start would change no value but the sign of a zero
    for offset, inc in _increment_blocks(rng, n, dim, steps, dt, replicas):
        if paths is None:  # the first block is the largest
            paths = np.empty((len(inc), n, steps + 1, dim))
            paths[:, :, 0, :] = start
        block = paths[:len(inc)]
        np.cumsum(inc, axis=2, out=block[:, :, 1:, :])
        if nonzero_start:
            block[:, :, 1:, :] += start[:, None, :]
        yield offset, block


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
    of path continuity of B_n.  Level k draws the paths of all its replicas
    from one substream, ``substream(seed, TAG_PATHS, k)``.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    start = gamma.expand()
    medians = []
    for k, dt in enumerate(dt_list):
        maxima = _bn_max_increments(substream(seed, TAG_PATHS, k), start, _steps_for(horizon, dt), dt, n, replicas)
        medians.append(float(np.median(maxima)))
    return medians


def _bn_max_increments(rng, start: np.ndarray, steps: int, dt: float, n: int, replicas: int) -> np.ndarray:
    """Per replica, the largest step increment |B_n(omega(t + dt)) - B_n(omega(t))|
    of B_n (``metrics.b_n``) along paths from the rows of start."""
    maxima = np.empty(replicas)
    for offset, paths in _path_blocks(rng, start, steps, dt, replicas):
        b = b_n(paths, n, axis=1)
        maxima[offset:offset + len(paths)] = np.abs(np.diff(b, axis=1)).max(axis=1)
    return maxima


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
    dim: int,
    delta: float,
    r: float,
    replicas: int,
    seed: int,
    substeps: int = 64,
) -> OscillationReport:
    """Empirical probability that some pair of grid times in an interval of
    length delta is more than r apart, tested one-sidedly against
    2 * tau(delta, r/4).  The start point and the interval's position do not
    matter (translation invariance and stationary increments), so the paths
    start at the origin at time 0.
    """
    if substeps < 64:
        raise ValueError("at least 64 substeps required")
    if substeps > OSCILLATION_MAX_SUBSTEPS:
        raise CapacityError(f"{substeps} substeps exceed {OSCILLATION_MAX_SUBSTEPS}: one replica's "
                            f"substeps^2 pairwise differences would pass {PAIR_POINTS} points")
    if not delta > 0:
        raise ValueError("delta must be positive")

    # the pairwise squared distances hold substeps^2 points per replica
    pair_rows = max(1, PAIR_POINTS // (substeps * substeps))
    exceed = 0
    for _, paths in _path_blocks(substream(seed, TAG_OSCILLATION), np.zeros((1, dim)), substeps,
                                 delta / substeps, replicas):
        pos = paths[:, 0]
        if dim == 1:
            # rounded subtraction is monotone in each argument and squaring on [0, inf),
            # so the largest pairwise square is the square of max - min, bit for bit
            spread = pos[..., 0].max(axis=1) - pos[..., 0].min(axis=1)
            exceed += int(np.sum(np.sqrt(spread * spread) > r))
            continue
        for k in range(0, len(pos), pair_rows):
            part = pos[k:k + pair_rows]
            diam = np.sqrt(np.max(sq_dist(part[:, :, None, :], part[:, None, :, :]), axis=(1, 2)))
            exceed += int(np.sum(diam > r))
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
    bounds: tuple[float, ...] | None  # the exact P(M < epsilon) per epsilon; None on the grid route
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
    """Fractions of replicas whose two particles come closer than each epsilon;
    in d = 1 also the crossing fraction.  Any other particle count is a ValueError.

    Both routes read the difference D = X_1 - X_2 from the start gap.  On the
    line no grid is read (``dt`` is still validated): with M the minimum of D
    from ``_line_minimum``, the fractions are mean(M < epsilon) and the crossing
    fraction mean(M <= 0), exact in law for the continuous path.  In d >= 2 the
    fractions take minima of |D| over the grid, time 0 included, with D drawn
    as one path of step variance 4 dt in one ``_increment_blocks`` call over the
    whole horizon for all replicas, and |D|^2 read from ``sq_dist`` per block.
    """
    eps = [float(e) for e in epsilon_list]
    if not eps or any(e <= 0 for e in eps) or any(y >= x for x, y in zip(eps, eps[1:])):
        raise ValueError("epsilon_list must be positive and strictly decreasing")
    start = gamma.expand()
    n, dim = start.shape
    if n != 2:
        raise ValueError(f"collision diagnostics take exactly 2 particles, got {n}")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    steps = _steps_for(horizon, dt)
    gap = start[0] - start[1]
    if dim == 1:
        g = abs(float(gap[0]))
        minimum, _ = _line_minimum(g, horizon, replicas, seed)

        def below(e):  # the exact P(M < e) = 2 Phi((e - g) / sqrt(4T)), 1 once g <= e
            return min(1.0, 2.0 * float(ndtr((e - g) / math.sqrt(4.0 * horizon))))

        return CollisionReport(tuple(eps), tuple(float(np.mean(minimum < e)) for e in eps),
                               float(np.mean(minimum <= 0.0)), below(0.0), tuple(map(below, eps)), replicas,
                               "exact in law for the continuous path: the minimum distance is drawn from its "
                               "Brownian-bridge law given the endpoint; no grid is read")
    gap_sq = float(sq_dist(gap))
    # per replica the minimum squared distance, time 0 counted through the gap
    dmin_sq = np.empty(replicas)
    # D as one path with step variance 2 (2 dt): doubling is exact, so its scale is sqrt(4 dt) bit for bit
    for offset, block in _increment_blocks(substream(seed, TAG_COLLISION), 1, dim, steps, 2.0 * dt, replicas):
        block[:, :, 0] += gap
        np.cumsum(block, axis=2, out=block)
        np.minimum(sq_dist(block[:, 0]).min(axis=1), gap_sq, out=dmin_sq[offset:offset + len(block)])
    # sqrt is monotone, so the minimum distance is the root of the minimum square
    min_dist = np.sqrt(dmin_sq)
    return CollisionReport(tuple(eps), tuple(float(np.mean(min_dist < e)) for e in eps), None, None, None, replicas,
                           "min-distance fractions are grid-based; between-grid near misses are not counted")


def _line_minimum(gap: float, horizon: float, replicas: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum M and endpoint D_T of the difference D of two particles on the line, from D_0 = gap >= 0.

    D_T - gap is one step of variance 4 horizon from ``_increment_blocks``.  Given D_T the minimum has
    P(M <= m) = exp(-(gap - m)(D_T - m) / (2 horizon)) for m <= min(gap, D_T) (Borodin and Salminen,
    Handbook of Brownian Motion), so one uniform U per replica gives
    M = (gap + D_T - sqrt((D_T - gap)^2 - 8 horizon log U)) / 2.
    """
    step = np.empty(replicas)
    for offset, inc in _increment_blocks(substream(seed, TAG_COLLISION), 1, 1, 1, 2.0 * horizon, replicas):
        step[offset:offset + len(inc)] = inc[:, 0, 0, 0]
    log_u = np.log1p(-substream(seed, TAG_COLLISION, 1).random(replicas))  # log U for U = 1 - u in (0, 1]
    end = gap + step
    return (gap + end - np.sqrt(step * step - 8.0 * horizon * log_u)) / 2.0, end


def marginal_ks(gamma_dim: int, t: float, replicas: int, seed: int) -> tuple[float, float]:
    """One-sample KS test of the time-t displacement of one particle against the exact law
    P(|xi| <= r) = 1 - tail_mass: D and Stephens' p = P(K > (sqrt(n) + 0.12 + 0.11/sqrt(n)) D).

    Each replica's displacement is one step of variance 2 t per coordinate, exact in law at time t.
    """
    params = HeatKernelParams(gamma_dim, t)
    radii = np.empty(replicas)
    for offset, inc in _increment_blocks(substream(seed, TAG_MARGINAL), 1, gamma_dim, 1, t, replicas):
        radii[offset:offset + len(inc)] = np.sqrt(sq_dist(inc[:, 0, 0]))
    radii.sort()
    cdf = 1.0 - tail_mass(params, radii)
    n = replicas
    d = float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return d, float(kolmogorov(lam))

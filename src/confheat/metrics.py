"""The configuration functionals B_n and the four distances between configurations.

* b_n: sum of exp(-|x|/n) over particles, of a configuration or of position
  arrays such as paths; finite for all n exactly on Gamma_infinity.
* flat_metric: the scale-i dual-Lipschitz distance d_{K,i}, computed exactly for
  finite point measures as an assignment problem: the Kantorovich-Rubinstein
  transport between the two configurations with the sphere |x| = i as a free
  boundary.  flat_metric_lp is its oracle, the LP in the values of the test
  function on the weighted support (the cutoff |f(x)| <= max(0, i - |x|)
  encodes the vanishing condition plus 1-Lipschitz extension), solved by
  HiGHS on at most FLAT_METRIC_LP_MAX_SUPPORT = 500 support points.
* d_k / d1 / d_infty: the summed-scale flat metric and its B_n-augmented variants,
  with explicit truncation errors.
* rho: the L2 matching (Wasserstein-type) distance, infinite across unequal
  cardinalities, solved by assignment on the squared-distance cost matrix, one
  n x n array for n <= RHO_MAX_POINTS = 4096 particles.

scipy.optimize and scipy.sparse load inside the solving functions, not at import.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, SolverError
from .points import Configuration, as_multiset
from .rng import block_rows
from .special import sq_dist

#: largest number of unit particles (positive plus negative, with multiplicity)
#: in g1 - g2 accepted by the flat-metric assignment
FLAT_METRIC_MAX_SUPPORT = 2000

#: largest number of distinct support points accepted by the LP oracle
FLAT_METRIC_LP_MAX_SUPPORT = 500

#: largest particle count (with multiplicity) rho matches: its one float64
#: n x n cost matrix then holds at most 128 MiB
RHO_MAX_POINTS = 4096


@dataclass(frozen=True)
class MetricValue:
    """A metric value together with the truncation error of any dropped series tail."""

    value: float
    truncation_error: float

    def __post_init__(self):
        if self.value < 0 or self.truncation_error < 0:
            raise ValueError("metric values and truncation errors are nonnegative")


def b_n(gamma: Configuration | np.ndarray, n: int, axis: int = 0):
    """B_n = sum over particles of exp(-|x|/n): a float on a Configuration, with
    multiplicities unfolded, or the sums along the particle ``axis`` of positions
    (..., d), such as paths (replicas, particles, steps + 1, d) with ``axis=1``."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if isinstance(gamma, Configuration):
        return float(b_n(gamma.expand(), n))
    return np.exp(-np.sqrt(sq_dist(gamma)) / n).sum(axis=axis)


def _weighted_support(g1: Configuration, g2: Configuration, cap: float = math.inf):
    """Distinct points of g1 - g2 and their nonzero signed weights; CapacityError past ``cap`` unit particles."""
    if g1.dim != g2.dim:
        raise ValueError("configurations must share a dimension")
    a, b = as_multiset(g1), as_multiset(g2)
    weights: dict[bytes, tuple[np.ndarray, int]] = {}
    for cfg, sign in ((a, 1), (b, -1)):
        for p, m in zip(cfg.positions, cfg.multiplicities):
            key = p.tobytes()
            prev = weights.get(key)
            w = (prev[1] if prev else 0) + sign * int(m)
            weights[key] = (p, w)
    pts = [p for p, w in weights.values() if w != 0]
    wts = [w for _, w in weights.values() if w != 0]
    size = sum(map(abs, wts))
    if size > cap:
        raise CapacityError(f"flat-metric support of {size} particles exceeds {cap}")
    if not pts:
        return np.zeros((0, g1.dim)), np.zeros(0)
    return np.array(pts), np.array(wts, dtype=float)


def flat_metric_size(g1: Configuration, g2: Configuration) -> int:
    """Unit particles, with multiplicity, in the signed support of g1 - g2, the
    count flat_metric holds; CapacityError above FLAT_METRIC_MAX_SUPPORT."""
    return int(np.abs(_weighted_support(g1, g2, FLAT_METRIC_MAX_SUPPORT)[1]).sum())


def flat_metric(g1: Configuration, g2: Configuration, i: int) -> float:
    """d_{K,i}(g1, g2): sup of |integral of f d(g1 - g2)| over 1-Lipschitz f
    vanishing outside B(0, i).

    By Kantorovich-Rubinstein duality this is the optimal transport cost between
    the positive and negative parts of g1 - g2 when mass may also be sent to or
    taken from the sphere |x| = i, at cost cap(x) = max(0, i - |x|).  The signed
    support is expanded by multiplicity into p positive and n negative unit
    particles; each row (a positive particle or one of n ground copies) is
    assigned a column (a negative particle or one of p ground copies).  Pairs
    cost min(|x - y|, cap(x) + cap(y)), a particle and a ground copy cost its
    cap, two ground copies cost 0.  The assignment polytope is integral, so the
    assignment optimum is the exact value; flat_metric_lp is the LP oracle.
    """
    from scipy.optimize import linear_sum_assignment
    if i < 1:
        raise ValueError("scale index i must be a positive integer")
    pts, w = _weighted_support(g1, g2, FLAT_METRIC_MAX_SUPPORT)
    counts = np.abs(w).astype(np.int64)
    size = int(counts.sum())
    if size == 0:
        return 0.0
    caps = np.maximum(0.0, i - np.sqrt(sq_dist(pts)))
    pos, neg = w > 0, w < 0
    x = np.repeat(pts[pos], counts[pos], axis=0)
    y = np.repeat(pts[neg], counts[neg], axis=0)
    cap_x = np.repeat(caps[pos], counts[pos])
    cap_y = np.repeat(caps[neg], counts[neg])
    p, n = x.shape[0], y.shape[0]
    cost = np.zeros((size, size))
    step = block_rows(n)
    for lo in range(0, p, step):  # a block of rows at a time, so no p x n temporary sits beside the cost matrix
        block = slice(lo, min(lo + step, p))
        pairs = cost[block, :n]
        np.sqrt(sq_dist(x[block, None, :], y[None, :, :]), out=pairs)
        np.minimum(pairs, cap_x[block, None] + cap_y[None, :], out=pairs)
    cost[:p, n:] = cap_x[:, None]
    cost[p:, :n] = cap_y[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def d_k(g1: Configuration, g2: Configuration, i_max: int = 20) -> MetricValue:
    """Summed-scale flat metric sum_i 2^-i d_{K,i}/(1 + d_{K,i}), truncated at i_max."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    total = 0.0
    for i in range(1, i_max + 1):
        v = flat_metric(g1, g2, i)
        total += 2.0**-i * v / (1.0 + v)
    return MetricValue(total, 2.0**-i_max)


def d1(g1: Configuration, g2: Configuration, i_max: int = 20) -> float:
    """d_1 = d_K (truncated) + |B_1(g1) - B_1(g2)|."""
    return d_k(g1, g2, i_max).value + abs(b_n(g1, 1) - b_n(g2, 1))


def d_infty(g1: Configuration, g2: Configuration, i_max: int = 20, n_max: int = 20) -> MetricValue:
    """d_infty = d_K + sum_n 2^-n |Delta B_n| / (1 + |Delta B_n|), both series truncated."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base = d_k(g1, g2, i_max)
    total = base.value
    for n in range(1, n_max + 1):
        diff = abs(b_n(g1, n) - b_n(g2, n))
        total += 2.0**-n * diff / (1.0 + diff)
    return MetricValue(total, base.truncation_error + 2.0**-n_max)


def rho_size(g1: Configuration, g2: Configuration) -> int:
    """Particles rho matches, with multiplicity (0 when the counts differ: rho is inf); capped at RHO_MAX_POINTS."""
    if g1.dim != g2.dim:
        raise ValueError("configurations must share a dimension")
    n = g1.total_count if g1.total_count == g2.total_count else 0
    if n > RHO_MAX_POINTS:
        raise CapacityError(f"rho matching of {n} particles exceeds {RHO_MAX_POINTS}")
    return n


def rho(g1: Configuration, g2: Configuration) -> float:
    """L2 matching distance: min over particle bijections of the l2 displacement.

    Returns inf when the particle counts (with multiplicity) differ; that is a
    value of the metric, not an error.  Equal counts above RHO_MAX_POINTS raise
    CapacityError before anything is allocated.
    """
    from scipy.optimize import linear_sum_assignment
    if rho_size(g1, g2) == 0:  # both empty, or unequal counts
        return 0.0 if g1.total_count == g2.total_count else math.inf
    x = g1.expand()
    y = g2.expand()
    cost = sq_dist(x[:, None, :], y[None, :, :])
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(cost[rows, cols].sum()))


def rho_bruteforce(g1: Configuration, g2: Configuration) -> float:
    """Exhaustive-permutation oracle for rho; exact for at most 8 particles."""
    x = g1.expand()
    y = g2.expand()
    if x.shape[0] != y.shape[0]:
        return math.inf
    n = x.shape[0]
    if n == 0:
        return 0.0
    if n > 8:
        raise CapacityError("brute-force matching limited to 8 points")
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = float(np.sum((x - y[list(perm)]) ** 2))
        if total < best:
            best = total
    return math.sqrt(best)


def solve_lp(c, a_ub, b_ub, bounds):
    """Optimal value of max c.x s.t. a_ub x <= b_ub, lo_j <= x_j <= hi_j, by HiGHS."""
    from scipy.optimize import linprog
    res = linprog(-np.asarray(c, dtype=float), A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise SolverError(f"HiGHS did not solve the LP: {res.message}")
    return -float(res.fun)


def flat_metric_lp(g1: Configuration, g2: Configuration, i: int) -> float:
    """LP oracle for flat_metric: maximize sum_j w_j f_j over the f-values on the
    weighted support, subject to f_j - f_l <= |x_j - x_l| for j != l and
    |f_j| <= max(0, i - |x_j|); exact for point measures by Lipschitz extension
    of any feasible assignment.  Solved by HiGHS, on at most
    FLAT_METRIC_LP_MAX_SUPPORT (500) support points.
    """
    from scipy import sparse
    if i < 1:
        raise ValueError("scale index i must be a positive integer")
    pts, w = _weighted_support(g1, g2)
    k = pts.shape[0]
    if k == 0:
        return 0.0
    if k > FLAT_METRIC_LP_MAX_SUPPORT:
        raise CapacityError(f"flat-metric LP support of {k} points exceeds {FLAT_METRIC_LP_MAX_SUPPORT}")
    caps = np.maximum(0.0, i - np.sqrt(sq_dist(pts)))
    # one row f_j - f_l <= |x_j - x_l| per ordered pair j != l
    rows, cols = np.nonzero(~np.eye(k, dtype=bool))
    unit = sparse.identity(k, format="csr")
    a_ub = unit[rows] - unit[cols]
    b_ub = np.sqrt(sq_dist(pts[rows], pts[cols]))
    return max(solve_lp(w, a_ub, b_ub, np.column_stack([-caps, caps])), 0.0)

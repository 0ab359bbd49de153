"""Independent reference values for the benchmark's output checks.

Nothing here calls confheat.  Each oracle takes another route than the
program's current one and than the routes planned for it (assignment flat
metric, elementary-symmetric K-transform, window-free invariance):

* flat metric: the dual-Lipschitz LP in the test-function values f_j,
  solved by HiGHS through ``scipy.optimize.linprog``;
* rho: ``scipy.sparse.csgraph.min_weight_full_bipartite_matching`` with a
  dual certificate of optimality;
* K-transform of a product kernel: coefficients of prod_i (1 + v_i x),
  built with ``np.convolve``;
* permanent: Glynn's formula;
* heat convolutions of smooth profiles: composite Gauss-Legendre quadrature;
* Gaussian-bump heat convolutions: the closed form, written out here;
* Poisson invariance: the exact value 0 plus a leakage bound from the
  chi-square distribution.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.special import chdtrc


# ---------------------------------------------------------------------------
# metrics


def weighted_support(points1, mult1, points2, mult2):
    """Signed point measure g1 - g2 as (distinct points, nonzero weights)."""
    weights: dict[tuple, float] = {}
    for pts, mult, sign in ((points1, mult1, 1.0), (points2, mult2, -1.0)):
        for p, m in zip(np.asarray(pts, dtype=float), mult):
            key = tuple(p.tolist())
            weights[key] = weights.get(key, 0.0) + sign * float(m)
    keys = [k for k, w in weights.items() if w != 0.0]
    dim = np.asarray(points1).shape[1]
    if not keys:
        return np.zeros((0, dim)), np.zeros(0)
    return np.array(keys, dtype=float), np.array([weights[k] for k in keys])


def flat_metric_lp(points1, mult1, points2, mult2, i: int) -> float:
    """sup of sum_j w_j f_j over 1-Lipschitz f with |f(x)| <= max(0, i - |x|)."""
    pts, w = weighted_support(points1, mult1, points2, mult2)
    k = pts.shape[0]
    if k == 0:
        return 0.0
    caps = np.maximum(0.0, i - np.linalg.norm(pts, axis=1))
    if k == 1:
        return abs(w[0]) * caps[0]
    rows, cols = np.nonzero(~np.eye(k, dtype=bool))
    n_rows = rows.size
    a_ub = sparse.csr_matrix(
        (np.concatenate([np.ones(n_rows), -np.ones(n_rows)]),
         (np.tile(np.arange(n_rows), 2), np.concatenate([rows, cols]))),
        shape=(n_rows, k),
    )
    b_ub = np.linalg.norm(pts[rows] - pts[cols], axis=1)
    res = linprog(
        -w,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=list(zip(-caps, caps)),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the flat-metric LP: {res.message}")
    return max(0.0, -float(res.fun))


def d_k_lp(points1, mult1, points2, mult2, i_max: int) -> float:
    """sum_{i <= i_max} 2^-i v_i / (1 + v_i) with v_i the HiGHS flat metric."""
    total = 0.0
    for i in range(1, i_max + 1):
        v = flat_metric_lp(points1, mult1, points2, mult2, i)
        total += 2.0**-i * v / (1.0 + v)
    return total


def rho_matching(x, y) -> float:
    """L2 matching distance: min-weight full bipartite matching on a k-nearest
    neighbour graph, certified optimal on the complete graph.

    The certificate is dual feasibility on all n^2 pairs: with row i matched to
    column m(i), potentials pi on the columns with
    pi(j') <= pi(m(i)) + c(i, j') - c(i, m(i)) for every i, j' exist exactly
    when no reassignment cycle lowers the cost (Bellman-Ford finds them).  The
    graph doubles until the certificate holds.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    k = 32
    while True:
        mask = np.zeros((n, n), dtype=bool)
        near = min(k, n)
        np.put_along_axis(mask, np.argsort(cost, axis=1)[:, :near], True, axis=1)
        np.put_along_axis(mask, np.argsort(cost, axis=0)[:near, :], True, axis=0)
        # +1 keeps every edge weight nonzero, so none is dropped as sparse
        rows, cols = min_weight_full_bipartite_matching(sparse.csr_matrix(np.where(mask, cost + 1.0, 0.0)))
        matched = cost[rows, cols]
        reassign = cost[rows, :] - matched[:, None]  # row rows[r] moved from cols[r] to j'
        pi = np.zeros(n)
        tol = 1e-12 * float(cost.max())
        for _ in range(n + 1):
            relaxed = np.minimum(pi, (pi[cols][:, None] + reassign).min(axis=0))
            if np.all(relaxed >= pi - tol):
                return math.sqrt(math.fsum(matched))
            pi = relaxed
        if near == n:
            raise RuntimeError("matching on the complete graph failed its optimality certificate")
        k *= 2


# ---------------------------------------------------------------------------
# harmonic


def gaussian_bump(amp, center, width, x):
    x = np.asarray(x, dtype=float)
    sq = ((x - np.asarray(center, dtype=float)) ** 2).sum(axis=-1)
    return amp * np.exp(-sq / (2.0 * width * width))


def gaussian_bump_heat(amp, center, width, t, x):
    """Heat convolution (displacement variance 2t per coordinate) of a Gaussian bump."""
    dim = len(center)
    w2 = width * width + 2.0 * t
    return gaussian_bump(amp * (width * width / w2) ** (dim / 2.0), center, math.sqrt(w2), x)


def elementary_symmetric(values, k_max: int) -> np.ndarray:
    """e_0..e_k_max of ``values``: coefficients of prod_i (1 + v_i x)."""
    poly = np.ones(1)
    for v in np.asarray(values, dtype=float):
        poly = np.convolve(poly, [1.0, v])[: k_max + 1]
    out = np.zeros(k_max + 1)
    out[: poly.size] = poly
    return out


def k_transform_product(coeffs: dict, profile_values: dict, value_at_empty: float = 0.0) -> float:
    """sum_n coeffs[n] * e_n(profile_values[n]) + G(empty)."""
    total = value_at_empty
    for n, c in coeffs.items():
        total += c * elementary_symmetric(profile_values[n], n)[n]
    return total


def heat_matrix(x, y, t):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dim = x.shape[1]
    sq = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    return (4.0 * math.pi * t) ** (-dim / 2.0) * np.exp(-sq / (4.0 * t))


def glynn_permanent(matrix) -> float:
    """perm(A) = 2^(1-n) sum over delta in {+-1}^n, delta_1 = 1, of
    (prod_k delta_k) prod_j sum_i delta_i a_ij."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 1.0
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)[None, :]) & 1
    delta = np.hstack([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits])
    terms = np.prod(delta, axis=1) * np.prod(delta @ a, axis=1)
    return math.fsum(terms) / 2.0 ** (n - 1)


def correlation_product_bound(gamma_points, theta, t) -> float:
    return float(np.prod(heat_matrix(gamma_points, theta, t).sum(axis=0)))


# ---------------------------------------------------------------------------
# profiles and semigroup


def gauss_legendre_heat(fn, x, t: float, half_width: float, panel: float = 0.5, nodes: int = 10) -> np.ndarray:
    """(p_t * fn)(x) for each row of x in d = 1 or 2, by composite Gauss-Legendre
    quadrature over the box [-half_width, half_width]^d.

    The heat kernel factorizes over coordinates, so in d = 2 the sum over the
    tensor grid is G1^T (fn on the grid) G2 with one Gaussian factor per axis.
    """
    x = np.asarray(x, dtype=float)
    u, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.arange(-half_width, half_width, panel)
    grid = (edges[:, None] + panel * (u[None, :] + 1.0) / 2.0).ravel()
    weight = np.tile(panel / 2.0 * w, edges.size)
    factor = weight[:, None, None] * np.exp(-((grid[:, None, None] - x[None, :, :]) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    if x.shape[1] == 1:
        return fn(grid[:, None]) @ factor[:, :, 0]
    if x.shape[1] == 2:
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        values = fn(np.stack([g1, g2], axis=-1))
        return np.einsum("ap,ab,bp->p", factor[:, :, 0], values, factor[:, :, 1])
    raise ValueError("implemented for d = 1 and 2")


def smoothed_indicator(amp, radius, width, x):
    r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
    return amp * 0.5 * (1.0 - np.tanh((r - radius) / width))


def invariance_leakage(sensitivity, dim, intensity, t, inner_radius, outer_radius) -> float:
    """Bias bound of the windowed paired invariance estimate: the expected number
    of inner-ball particles whose heat step crosses the window pad, times the
    functional's sensitivity to one particle."""
    vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * inner_radius**dim
    pad = outer_radius - inner_radius
    # |step|^2 / 2t is chi-square with d degrees of freedom
    return sensitivity * intensity * vol * float(chdtrc(dim, pad * pad / (2.0 * t)))

"""K-transform calculus and the correlation structure of heat-flowed configurations.

The K-transform sums a graded kernel function over all finite sub-configurations
(for product kernels, in closed form by elementary symmetric polynomials); its
inverse is the alternating Moebius sum; the star-convolution is the product
operation on the kernel side.  Correlation functions of the one-step heat flow
and the permanent kernel are permanent-type sums of heat-kernel products over
injective index tuples; both run through one dynamic programme over column
subsets (``permanent``), whose terms are products of entries only and whose
cap is on work, not size.  Injective enumeration and inclusion-exclusion
remain as oracles.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, CapabilityError
from .kernel import HeatKernelParams
from .points import Configuration, Window, uniform_ball
from .rng import TAG_INTEGRAL, substream
from .special import exp_radial_integral, ball_volume, sq_dist

SUBSET_CAPACITY = 2**30
#: points of the largest star convolution: 2^(n+1) kernel calls and two tables of 2^n floats (8 MiB at 19)
STAR_CAPACITY_POINTS = 19
#: multiply-adds of the largest permanent: 24 x 24, the old 24-column cap
PERMANENT_CAPACITY_WORK = 24 * 24 * 2**23
INVERSE_CAPACITY_POINTS = 25


# ---------------------------------------------------------------------------
# point arrays and kernel functions


def _positions_of(obj, dim: int | None = None) -> np.ndarray:
    if isinstance(obj, Configuration):
        if not obj.is_simple:
            raise ValueError("expected a simple configuration")
        pos = obj.positions
    else:
        pos = np.asarray(obj, dtype=float)
        if pos.ndim == 1:
            pos = pos.reshape(-1, 1) if dim in (None, 1) else pos.reshape(1, -1)
    if dim is not None and pos.shape[0] and pos.shape[1] != dim:
        raise ValueError(f"expected points in R^{dim}, got shape {pos.shape}")
    return pos


def _canonical_rows(pos: np.ndarray) -> np.ndarray:
    if pos.shape[0] <= 1:
        return pos
    return pos[np.lexsort(pos.T[::-1])]


@dataclass(frozen=True)
class DClassCertificate:
    """Constants (C, eps) witnessing |G^(n)(x_1..x_n)| <= C^n exp(-(1+eps) sum |x_k|)."""

    c: float
    eps: float

    def __post_init__(self):
        if self.c <= 0 or self.eps <= 0:
            raise ValueError("certificate constants must be positive")


@dataclass(frozen=True)
class KernelFunction:
    """Graded symmetric function on finite configurations, zero above max_order.

    Symmetry is structural: evaluators are called on canonically sorted points.
    Product-form kernels (per-level coefficient times a product of one identical
    single-point profile per argument) keep their structure, which unlocks the
    closed-form heat lift and fast batch evaluation of the K-transform.
    """

    dim: int
    max_order: int
    value_at_empty: float = 0.0
    levels: dict = field(default_factory=dict)
    coeffs: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    d_class: DClassCertificate | None = None

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        for n in itertools.chain(self.levels, self.coeffs):
            if not (1 <= n <= self.max_order):
                raise ValueError(f"level {n} outside 1..max_order")

    @property
    def is_product(self) -> bool:
        return set(self.coeffs) == set(self.levels) and set(self.profiles) == set(self.levels)

    def value(self, eta) -> float:
        pts = _positions_of(eta, self.dim)
        n = pts.shape[0]
        if n == 0:
            return self.value_at_empty
        if n > self.max_order or n not in self.levels:
            return 0.0
        return float(self.levels[n](_canonical_rows(pts)))

    def level_orders(self):
        return sorted(self.levels)


def product_kernel(
    dim: int,
    coeffs: dict[int, float],
    profiles: dict[int, object] | object,
    value_at_empty: float = 0.0,
    d_class: DClassCertificate | str | None = None,
) -> KernelFunction:
    """Kernel with levels G^(n)(x_1..x_n) = coeffs[n] * prod_k profile_n(x_k).

    ``profiles`` may be a single profile shared by all levels.  Passing
    d_class="auto" fits a certificate with eps = 1 from the profiles'
    closed-form decay bounds with a 5% margin (requires every profile to provide decay_bound).
    """
    orders = sorted(coeffs)
    if not isinstance(profiles, dict):
        profiles = {n: profiles for n in orders}
    if sorted(profiles) != orders:
        raise ValueError("profiles must cover exactly the coefficient orders")
    levels = {}
    for n in orders:
        prof = profiles[n]
        cf = coeffs[n]
        levels[n] = (lambda pts, p=prof, c=cf: c * float(np.prod(p(pts))))
    cert = None
    if d_class == "auto":
        eps = 1.0
        c_val = 0.0
        for n in orders:
            prof = profiles[n]
            if not hasattr(prof, "decay_bound"):
                raise CapabilityError(
                    f"profile {type(prof).__name__} has no closed-form decay bound; pass d_class explicitly"
                )
            bound = prof.decay_bound(eps)
            c_val = max(c_val, abs(coeffs[n]) ** (1.0 / n) * bound)
        if c_val == 0.0:
            c_val = 1.0
        cert = DClassCertificate(1.05 * c_val, eps)
    elif d_class is not None:
        cert = d_class
    return KernelFunction(
        dim=dim,
        max_order=max(orders) if orders else 0,
        value_at_empty=value_at_empty,
        levels=levels,
        coeffs=dict(coeffs),
        profiles=dict(profiles),
        d_class=cert,
    )


# ---------------------------------------------------------------------------
# K-transform and friends


def _subset_count(n_points: int, max_order: int) -> int:
    return sum(math.comb(n_points, k) for k in range(1, min(n_points, max_order) + 1))


def k_transform_finite(G: KernelFunction, positions) -> float:
    """(KG) on a plain array of distinct points, by exact subset enumeration."""
    pos = _positions_of(positions, G.dim)
    n_pts = pos.shape[0]
    if _subset_count(n_pts, G.max_order) > SUBSET_CAPACITY:
        raise CapacityError(f"subset enumeration over {n_pts} points at order {G.max_order} exceeds capacity")
    total = G.value_at_empty
    for order in G.level_orders():
        if order > n_pts:
            continue
        level = G.levels[order]
        for idx in itertools.combinations(range(n_pts), order):
            total += float(level(_canonical_rows(pos[list(idx)])))
    return total


def k_transform(G: KernelFunction, gamma: Configuration) -> float:
    """(KG)(gamma) = sum over sub-configurations eta of gamma of G(eta).

    Product kernels sum elementary symmetric polynomials of the per-point
    profile values (k_transform_product_batch); other kernels use exact subset
    enumeration up to G.max_order (k_transform_finite, also the oracle for the
    product route).  Requires a simple configuration.
    """
    if not gamma.is_simple:
        raise ValueError("k_transform requires a simple configuration")
    if G.is_product:
        return float(k_transform_product_batch(G, gamma.positions[None])[0])
    return k_transform_finite(G, gamma.positions)


def elementary_symmetric(values: np.ndarray, k_max: int) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_k of the entries along the last axis.

    Accepts shape (N,) or (R, N); returns (k_max+1,) or (R, k_max+1).  The table
    is kept orders-major, so point j updates every order in one multiply and one
    add: e_k += x_j e_(k-1) for k = 1 .. min(j + 1, k_max), the product formed
    from the old e_(k-1) before any order is written, as a descending-k loop
    would.
    """
    vals = np.asarray(values, dtype=float)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[None, :]
    r, n = vals.shape
    e = np.zeros((k_max + 1, r))
    e[0] = 1.0
    term = np.empty((k_max, r))
    for j in range(n):
        top = min(j + 1, k_max)
        np.multiply(e[:top], vals[:, j], out=term[:top])
        e[1:top + 1] += term[:top]
    return e[:, 0] if squeeze else e.T


def k_transform_product_batch(G: KernelFunction, positions: np.ndarray) -> np.ndarray:
    """(KG) on a batch of simple configurations, shape (R, N, dim) -> (R,).

    Uses the product structure: each level contributes coeff * e_n of the
    per-point profile values.  A profile shared by several levels is evaluated
    once, and its levels read one e_0..e_k table up to its largest order (e_n
    does not depend on the table's length).
    """
    if not G.is_product:
        raise CapabilityError("batch K-transform needs a product-form kernel")
    positions = np.asarray(positions, dtype=float)
    r = positions.shape[0]
    out = np.full(r, G.value_at_empty)
    if positions.shape[1] == 0:
        return out
    orders = G.level_orders()
    top = {id(G.profiles[order]): order for order in orders}  # orders ascend: the last one is the largest
    tables = {}
    for order in orders:
        key = id(G.profiles[order])
        if key not in tables:
            tables[key] = elementary_symmetric(G.profiles[order](positions), top[key])
        out += G.coeffs[order] * tables[key][:, order]
    return out


def _subsets(pts: np.ndarray):
    """The sub-configurations eta_S of the rows of ``pts`` in bit-mask order: row i is in S when bit i of S is set."""
    n = pts.shape[0]
    for mask in range(1 << n):
        yield pts[[i for i in range(n) if mask >> i & 1]]


def inverse_k_transform(F, eta) -> float:
    """(K^-1 F)(eta) = sum over theta subset eta of (-1)^(|eta - theta|) F(theta).

    ``F`` is an evaluator on point arrays (shape (k, dim)).
    """
    pts = _positions_of(eta)
    n = pts.shape[0]
    if n > INVERSE_CAPACITY_POINTS:
        raise CapacityError(f"inverse K-transform limited to {INVERSE_CAPACITY_POINTS} points")
    total = 0.0
    for mask, sub in enumerate(_subsets(pts)):
        sign = -1.0 if (n - mask.bit_count()) % 2 else 1.0
        total += sign * float(F(sub))
    return total


def star_convolution(G1: KernelFunction, G2: KernelFunction, eta) -> float:
    """Star-convolution value: sum over ordered 3-partitions (a, b, c) of eta of
    G1(a u b) * G2(b u c).

    The pairs S = a u b, T = b u c with S u T = eta are the partitions, so this
    is sum_S G1(eta_S) * h(eta - S), h(U) the sum of G2(eta_T) over T containing
    U: 2^n calls per kernel, and n passes over G2's table that only add.
    """
    pts = _positions_of(eta)
    n = pts.shape[0]
    if n > STAR_CAPACITY_POINTS:
        raise CapacityError(f"star convolution limited to {STAR_CAPACITY_POINTS} points")
    g1, h = np.empty(1 << n), np.empty(1 << n)
    for mask, sub in enumerate(_subsets(pts)):
        g1[mask], h[mask] = G1.value(sub), G2.value(sub)
    for j in range(n):
        # axis 1 of the reshape is bit j: [:, 0] are the subsets without j, [:, 1] the same with it
        v = h.reshape(-1, 2, 1 << j)
        v[:, 0] += v[:, 1]
    return float(g1 @ h[::-1])  # the complement of mask S is 2^n - 1 - S


def star_kernel(G1: KernelFunction, G2: KernelFunction) -> KernelFunction:
    """The star-convolution packaged as a kernel function (levels computed on demand)."""
    if G1.dim != G2.dim:
        raise ValueError("kernels must share a dimension")
    order = G1.max_order + G2.max_order
    levels = {
        n: (lambda pts, a=G1, b=G2: star_convolution(a, b, pts))
        for n in range(1, order + 1)
    }
    return KernelFunction(
        dim=G1.dim,
        max_order=order,
        value_at_empty=G1.value_at_empty * G2.value_at_empty,
        levels=levels,
    )


# ---------------------------------------------------------------------------
# permanents and correlation functions


def permanent_work(rows: int, n: int) -> int:
    """Multiply-adds ``permanent`` spends on ``rows`` nonzero rows and n columns,
    0 when rows < n (the permanent is 0) or n = 0; CapacityError above PERMANENT_CAPACITY_WORK."""
    work = rows * n * 2 ** (n - 1) if rows >= n > 0 else 0
    if work > PERMANENT_CAPACITY_WORK:
        raise CapacityError(f"permanent of {rows} nonzero rows and {n} columns exceeds "
                            f"{PERMANENT_CAPACITY_WORK} multiply-adds")
    return work


def permanent(matrix: np.ndarray) -> float:
    """Permanent of an r x n matrix: the sum over injective row choices
    (i_1..i_n) of prod_k M[i_k, k]; the ordinary permanent when r = n, and
    zero when r < n.

    Dynamic programme over column subsets S: after some rows, dp[S] sums the
    products over injective assignments of the columns in S to those rows.  A
    new row i is either unused or takes one column j of S, so dp[S] gains
    M[i, j] * dp[S - {j}] from the previous table.  Every term is a product of
    entries and nothing is subtracted, so no digits are lost to cancellation.

    Rows of zeros contribute nothing and are skipped.  Work is r' * n *
    2^(n-1) multiply-adds over the r' other rows, capped at
    PERMANENT_CAPACITY_WORK (a 24 x 24 permanent); when r' < n the value is 0
    and nothing is allocated, so memory stays at most 2.5 * 2^24 floats (320 MB).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-d")
    m = m[np.any(m != 0.0, axis=1)]
    rows, n = m.shape
    if not permanent_work(rows, n):  # no work: 0 when rows < n, the empty product 1 when n = 0
        return float(n == 0)
    dp = np.zeros(1 << n)
    dp[0] = 1.0
    for row in m:
        prev = dp.copy()
        for j, entry in enumerate(row):
            # axis 1 of the reshape is bit j: [:, 1] are the subsets holding j, [:, 0] the same without it
            dp.reshape(-1, 2, 1 << j)[:, 1] += entry * prev.reshape(-1, 2, 1 << j)[:, 0]
    return float(dp[-1])


def permanent_bruteforce(matrix: np.ndarray) -> float:
    """Sum over injective row choices (i_1..i_n) of prod_k M[i_k, k], term by
    term in permutation order: the n!-loop oracle for ``permanent``."""
    m = np.asarray(matrix, dtype=float)
    rows, n = m.shape
    if math.perm(rows, n) > math.factorial(10):
        raise CapacityError("brute-force permanent limited to 10! terms")
    cols = np.arange(n)
    return float(sum(np.prod(m[list(perm), cols]) for perm in itertools.permutations(range(rows), n)))


def _heat_matrix(points_x: np.ndarray, points_y: np.ndarray, dim: int, t: float) -> np.ndarray:
    sq = sq_dist(points_x[:, None, :], points_y[None, :, :])
    return (4.0 * math.pi * t) ** (-dim / 2.0) * np.exp(-sq / (4.0 * t))


def permanent_kernel(eta, theta, t: float, dim: int | None = None) -> float:
    """R_t(eta, theta): permanent of [p_t(x_k, y_l)]; zero for unequal sizes, one for empty."""
    x = _positions_of(eta, dim)
    y = _positions_of(theta, dim)
    if x.shape[0] != y.shape[0]:
        return 0.0
    if x.shape[0] == 0:
        return 1.0
    if x.shape[1] != y.shape[1]:
        raise ValueError("point dimensions must agree")
    HeatKernelParams(x.shape[1], t)
    return permanent(_heat_matrix(x, y, x.shape[1], t))


def _rectangular_injective_sum(m: np.ndarray) -> float:
    """Sum over injective row choices of prod_k M[i_k, k], by inclusion-exclusion
    (an oracle for ``permanent``: its alternating terms cancel).

    Only row subsets of size <= n contribute: the binomial weight
    C(rows - |S|, rows - n) vanishes beyond that.
    """
    rows, n = m.shape
    total = 0.0
    for size in range(1, n + 1):
        weight = math.comb(rows - size, rows - n)
        if weight == 0:
            continue
        sign = -1.0 if size % 2 else 1.0
        for subset in itertools.combinations(range(rows), size):
            col_sums = m[list(subset), :].sum(axis=0)
            total += sign * weight * float(np.prod(col_sums))
    return total if n % 2 == 0 else -total


_CORRELATION_ROUTES = {
    "auto": permanent,
    "enumerate": permanent_bruteforce,
    "inclusion_exclusion": _rectangular_injective_sum,
}


def correlation_function(gamma: Configuration, theta, t: float, method: str = "auto") -> float:
    """k_t^(n)(theta) for the heat flow from gamma: the sum over injective index
    tuples (i_1..i_n) into gamma of prod_k p_t(x_{i_k}, y_k).

    No factorial factor: this is the density with respect to the
    Lebesgue-Poisson measure.  Returns 0 when |theta| exceeds |gamma|.  The
    default route is the subset dynamic programme ``permanent`` (at most
    PERMANENT_CAPACITY_WORK multiply-adds); "enumerate" and
    "inclusion_exclusion" are its oracles.
    """
    route = _CORRELATION_ROUTES.get(method)
    if route is None:
        raise ValueError(f"unknown method {method!r}")
    if not gamma.is_simple:
        raise ValueError("correlation functions are defined over simple configurations")
    y = _positions_of(theta, gamma.dim)
    n = y.shape[0]
    if n < 1:
        raise ValueError("theta must contain at least one point")
    if n > gamma.total_count:
        return 0.0
    HeatKernelParams(gamma.dim, t)
    return route(_heat_matrix(gamma.positions, y, gamma.dim, t))


def correlation_product_bound(gamma: Configuration, theta, t: float) -> float:
    """The product bound prod_k sum_{x in gamma} p_t(x, y_k) dominating the correlation."""
    y = _positions_of(theta, gamma.dim)
    m = _heat_matrix(gamma.positions, y, gamma.dim, t)
    return float(np.prod(m.sum(axis=0)))


# ---------------------------------------------------------------------------
# Lebesgue-Poisson integration


#: Gauss-Legendre nodes per axis of the coarse ball rule; the fine rule has 8 more
_QUAD_NODES_PER_AXIS = 24
#: largest tensor grid (nodes^order) on which a generic level is integrated; Monte Carlo above it
_QUAD_BUDGET = 300_000


@dataclass(frozen=True)
class LebesguePoissonResult:
    value: float
    error_estimate: float
    remainder_bound: float
    warnings: tuple[str, ...]
    per_order: tuple[float, ...]


def _ball_nodes(dim: int, radius: float, n_axis: int):
    """Quadrature nodes and weights for integration over B(0, radius)."""
    if dim == 1:
        x, w = np.polynomial.legendre.leggauss(n_axis)
        nodes = (radius * x)[:, None]
        weights = radius * w
        return nodes, weights
    r_x, r_w = np.polynomial.legendre.leggauss(n_axis)
    r_nodes = radius * (r_x + 1.0) / 2.0
    r_weights = radius / 2.0 * r_w
    if dim == 2:
        m = 2 * n_axis
        ang = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack(
            [np.outer(r_nodes, np.cos(ang)).ravel(), np.outer(r_nodes, np.sin(ang)).ravel()], axis=1
        )
        weights = np.outer(r_weights * r_nodes, np.full(m, 2.0 * math.pi / m)).ravel()
        return nodes, weights
    if dim == 3:
        c_x, c_w = np.polynomial.legendre.leggauss(n_axis)
        m = 2 * n_axis
        ang = 2.0 * math.pi * np.arange(m) / m
        sin_t = np.sqrt(1.0 - c_x**2)
        xs = np.einsum("r,c,a->rca", r_nodes, sin_t, np.cos(ang)).ravel()
        ys = np.einsum("r,c,a->rca", r_nodes, sin_t, np.sin(ang)).ravel()
        zs = np.einsum("r,c,a->rca", r_nodes, c_x, np.ones(m)).ravel()
        nodes = np.stack([xs, ys, zs], axis=1)
        weights = np.einsum("r,c,a->rca", r_weights * r_nodes**2, c_w, np.full(m, 2.0 * math.pi / m)).ravel()
        return nodes, weights
    raise CapabilityError("ball quadrature implemented for d in {1, 2, 3}")


def _tensor_quadrature(level, nodes, weights, order):
    if len(nodes) ** order > _QUAD_BUDGET:
        return None
    total = 0.0
    # canonical sorting keeps the structural symmetrization consistent with
    # KernelFunction.value for user evaluators that are not literally symmetric
    for idx in itertools.product(range(len(nodes)), repeat=order):
        pts = _canonical_rows(nodes[list(idx)])
        total += float(level(pts)) * float(np.prod(weights[list(idx)]))
    return total


def lebesgue_poisson_integral(
    G: KernelFunction,
    window: Window,
    n_max: int,
    mc_samples: int = 20000,
) -> LebesguePoissonResult:
    """Integral of G against the Lebesgue-Poisson measure with intensity
    z * Lebesgue restricted to B(0, R): G(empty) + sum_n (1/n!) * int G^(n) d sigma^n.

    Product kernels factorize each n-fold integral into a one-point integral to
    the n-th power; generic levels use tensor quadrature for n <= 3 and Monte
    Carlo above (or when the tensor grid would exceed the budget).  The n > n_max
    remainder is bounded through the decay certificate when present.
    """
    warnings: list[str] = []
    z = window.intensity
    radius = window.radius
    per_order = [G.value_at_empty]
    error = 0.0

    nodes, weights = _ball_nodes(G.dim, radius, _QUAD_NODES_PER_AXIS)
    nodes_f, weights_f = _ball_nodes(G.dim, radius, _QUAD_NODES_PER_AXIS + 8)
    rng = substream(0, TAG_INTEGRAL)

    for order in range(1, min(n_max, G.max_order) + 1):
        if order not in G.levels:
            per_order.append(0.0)
            continue
        level = G.levels[order]
        if G.is_product:
            prof = G.profiles[order]
            q_coarse = float(weights @ np.asarray(prof(nodes), dtype=float))
            q_fine = float(weights_f @ np.asarray(prof(nodes_f), dtype=float))
            term = G.coeffs[order] * (z * q_fine) ** order / math.factorial(order)
            term_c = G.coeffs[order] * (z * q_coarse) ** order / math.factorial(order)
            per_order.append(term)
            error += abs(term - term_c)
            continue
        if order <= 3:
            coarse = _tensor_quadrature(level, nodes, weights, order)
            fine = _tensor_quadrature(level, nodes_f, weights_f, order)
            if coarse is not None and fine is not None:
                term = z**order * fine / math.factorial(order)
                per_order.append(term)
                error += abs(term - z**order * coarse / math.factorial(order))
                continue
            warnings.append(f"order {order}: tensor grid over budget, used Monte Carlo")
        vol = ball_volume(G.dim, radius)
        draws = np.array(
            [
                level(_canonical_rows(uniform_ball(rng, order, G.dim, radius)))
                for _ in range(mc_samples)
            ]
        )
        mean = float(draws.mean())
        se = float(draws.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else math.inf
        factor = (z * vol) ** order / math.factorial(order)
        per_order.append(factor * mean)
        error += factor * se

    remainder = 0.0
    if G.max_order > n_max:
        if G.d_class is None:
            warnings.append("unbounded remainder: orders beyond n_max with no decay certificate")
        else:
            j = exp_radial_integral(1.0 + G.d_class.eps, G.dim, radius)
            a = G.d_class.c * z * j
            for order in range(n_max + 1, G.max_order + 1):
                remainder += a**order / math.factorial(order)

    return LebesguePoissonResult(
        value=float(sum(per_order)),
        error_estimate=float(error),
        remainder_bound=float(remainder),
        warnings=tuple(warnings),
        per_order=tuple(per_order),
    )


# ---------------------------------------------------------------------------
# transfer identity right-hand side (independent quadrature route)


def transfer_expectation(G: KernelFunction, gamma: Configuration, t: float) -> float:
    """Expectation of KG under the one-step heat flow from gamma, via the
    correlation-measure side: sum_n (1/n!) int G^(n) k_t^(n) dm^n.

    Independent of the closed-form convolution route: uses 48-node Gauss-Legendre
    quadrature of the per-point integrals q_i = int phi(y) p_t(x_i, y) dy over
    the profile's support box; level n adds coeffs[n] * e_n(q), the elementary
    symmetric polynomial, for product kernels of any order.
    """
    if not G.is_product:
        raise CapabilityError("transfer expectation implemented for product kernels")
    if not gamma.is_simple:
        raise ValueError("transfer expectation requires a simple configuration")
    total = G.value_at_empty
    x = gamma.positions
    for order in G.level_orders():
        prof = G.profiles[order]
        lo, hi = prof.support_box()
        axes = []
        wts = []
        for k in range(G.dim):
            u, w = np.polynomial.legendre.leggauss(48)
            mid, half = (hi[k] + lo[k]) / 2.0, (hi[k] - lo[k]) / 2.0
            axes.append(mid + half * u)
            wts.append(half * w)
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        weight = np.ones(nodes.shape[0])
        for k in range(G.dim):
            weight *= np.meshgrid(*wts, indexing="ij")[k].ravel()
        phi_vals = np.asarray(prof(nodes), dtype=float)
        p_matrix = _heat_matrix(x, nodes, gamma.dim, t) if x.shape[0] else np.zeros((0, nodes.shape[0]))
        q = p_matrix @ (phi_vals * weight)
        total += G.coeffs[order] * float(elementary_symmetric(q, order)[order])
    return total


def verify_d_class(G: KernelFunction, cert: DClassCertificate, seed: int = 0) -> tuple[bool, float]:
    """Spot-check |G^(n)| <= C^n exp(-(1+eps) sum |x_k|) on 200 uniform point
    tuples per order in B(0, 8).

    Returns (passed, worst_ratio).
    """
    rng = substream(seed, TAG_INTEGRAL, 777)
    worst = 0.0
    for order in G.level_orders():
        for _ in range(200):
            pts = uniform_ball(rng, order, G.dim, 8.0)
            val = abs(G.value(pts))
            bound = cert.c**order * math.exp(-(1.0 + cert.eps) * float(np.sqrt(sq_dist(pts)).sum()))
            if val > 0.0:
                worst = max(worst, val / bound)
    return worst <= 1.0, worst

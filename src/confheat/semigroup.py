"""The heat semigroup acting on functions of configurations.

Two evaluation routes exist side by side: Monte Carlo over independent heat
steps of every particle (apply_mc), and closed forms where the functional
family permits (the exponential-functional identity, and the kernel lift
K-side convolution).  Reports name their route.  The functionals F form one
family, ``ConfigurationFunctional``: the constant, the ball count, the
exponential product, the K-polynomial and the cylinder functions, each
written once and evaluated by apply_mc, invariance_test and
generator_residual alike.  Every Monte Carlo estimate
(apply_mc, invariance_test, generator_residual) goes through one chunked
estimator: each chunk draws from its own keyed substream and reduces
to a count, mean and centred sum of squares, and the chunks are merged in
chunk order.  Results are reproducible, independent of thread count, and
stable when the variance is tiny next to the mean.  apply_mc and
generator_residual share one heat-step sampler, which moves the particles for
every t of a time list (one t, or the whole t-list) in blocks of at most
``rng.BLOCK_POINTS`` coordinates (one replica at least), so memory is bounded
by the block, not by the chunk.  A chunk works in a few whole-array passes that write into the
arrays it already holds: the start is added from a copy tiled to the block's
rows, and the functionals finish in the buffer their first operation allocates
(a cylinder function evaluates all its bumps in one array).  Each value goes
through the same floating-point operations in the same order as the plain
expression, so the fewer passes (and, with threads, fewer GIL hand-overs)
change no bit of a result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, EvaluationError
from .harmonic import DClassCertificate, KernelFunction, k_transform, k_transform_product_batch, product_kernel
from .kernel import HeatKernelParams
from .points import Configuration, Window, poisson_points, truncation_tail_bound
from .profiles import GaussianBump, SmoothedIndicator, gaussian_bumps
from .profiles import GaussianBump as SmoothBump  # noqa: F401  (former name of the cylinder test functions)
from .rng import (
    TAG_APPLY_MC,
    TAG_GENERATOR,
    TAG_INVARIANCE,
    block_rows,
    chunk_sizes,
    map_chunks,
    substream,
)
from .special import exp_radial_integral, last_axis_sum, sq_dist

DEFAULT_CHUNK = 4096


# ---------------------------------------------------------------------------
# configuration functionals


class ConfigurationFunctional:
    """Functional F of a configuration, the one family that apply_mc,
    invariance_test and generator_residual evaluate.

    ``segments(positions, rep_idx, n_rep)`` is the evaluation: the particles
    of n_rep replicas concatenated as (P, dim) positions, row p belonging to
    replica ``rep_idx[p]``, give one value per replica.  ``radius`` says which
    particles F reads: those in B(0, radius).  ``batch`` takes equally sized
    replicas as a (replicas, particles, dim) array and is derived from
    ``segments``; a functional that only serves such batches overrides
    ``batch`` alone and keeps radius inf, which invariance_test refuses.
    Particles carry no multiplicities here (configurations are expanded
    before evaluation).
    """

    radius = math.inf

    def segments(self, positions: np.ndarray, rep_idx: np.ndarray, n_rep: int) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} evaluates fixed-size batches only")

    def batch(self, positions: np.ndarray) -> np.ndarray:
        m, n, dim = positions.shape
        return self.segments(positions.reshape(m * n, dim), np.repeat(np.arange(m), n), m)

    def value(self, positions: np.ndarray) -> float:
        return float(self.batch(np.asarray(positions, dtype=float)[None, ...])[0])


@dataclass(frozen=True)
class WindowedConstant(ConfigurationFunctional):
    """F = c, which reads no particle."""

    c: float = 1.0
    radius = 0.0

    def segments(self, positions, rep_idx, n_rep):
        return np.full(n_rep, self.c)


@dataclass(frozen=True)
class WindowedCount(ConfigurationFunctional):
    """Number of particles inside B(0, radius)."""

    radius: float

    def segments(self, positions, rep_idx, n_rep):
        inside = np.sqrt(sq_dist(positions)) <= self.radius
        return np.bincount(rep_idx[inside], minlength=n_rep).astype(float)


@dataclass(frozen=True)
class WindowedExponential(ConfigurationFunctional):
    """prod over the particles in B(0, radius) of (1 + phi(x))."""

    phi: object
    radius: float = math.inf

    def segments(self, positions, rep_idx, n_rep):
        inside = np.sqrt(sq_dist(positions)) <= self.radius
        logs = np.log1p(np.asarray(self.phi(positions[inside]), dtype=float))
        return np.exp(np.bincount(rep_idx[inside], weights=logs, minlength=n_rep))

    def batch(self, positions):
        if self.radius < math.inf:
            return super().batch(positions)
        # every particle counts: the direct product along the particle axis of 1 + phi,
        # formed in phi's fresh output (every profile returns a new array)
        factors = np.asarray(self.phi(positions), dtype=float)
        factors += 1.0
        return np.prod(factors, axis=1)


@dataclass(frozen=True)
class KPolynomialFunctional(ConfigurationFunctional):
    """K-transform of a product kernel, evaluated with the symmetric-polynomial fast path."""

    G: KernelFunction

    def batch(self, positions):
        return k_transform_product_batch(self.G, positions)


# ---------------------------------------------------------------------------
# exponential functionals (the closed-form family)


@dataclass(frozen=True)
class ExpFunctional:
    """phi in the admissible class: -delta <= phi <= 0 with delta < 1.

    Families: scaled Gaussian bump (phi = -a exp(-|x|^2/(2 s^2)), 0 <= a < 1)
    and the smoothed radial indicator with amplitude -a.  F(gamma) is the
    product of (1 + phi(x)) over particles, always in (0, 1].
    """

    phi: object

    def __post_init__(self):
        if isinstance(self.phi, (GaussianBump, SmoothedIndicator)):
            if not (-1.0 < self.phi.amp <= 0.0):
                raise ValueError(f"{type(self.phi).__name__} amplitude must lie in (-1, 0]")
        else:
            raise CapabilityError(f"unsupported phi family {type(self.phi).__name__}")

    @property
    def dim(self) -> int:
        return self.phi.dim

    def functional(self) -> WindowedExponential:
        return WindowedExponential(self.phi)


def apply_exact_exponential(ef: ExpFunctional, gamma: Configuration, t: float) -> float:
    """(P_t F)(gamma) for the exponential functional: prod over particles of
    (1 + (p_t * phi)(x)), by the closed-form or quadrature heat convolution."""
    HeatKernelParams(gamma.dim, t)
    if gamma.dim != ef.dim:
        raise ValueError("dimension mismatch between phi and configuration")
    vals = np.asarray(ef.phi.heat_convolve(t)(gamma.expand()), dtype=float)
    return float(np.prod(1.0 + vals))


# ---------------------------------------------------------------------------
# the chunked Monte Carlo estimator


def _chunked_mean_se(sample, replicas: int, seed: int, tag: int, threads: int, chunk: int):
    """Means and standard errors of k Monte Carlo quantities over ``replicas`` draws.

    ``sample(rng, m)`` returns the values of m replicas as a (k, m) array.
    Chunk ci draws from ``substream(seed, tag, ci)`` and reduces along its
    contiguous last axis to (count, mean, centred sum of squares); the chunks
    are merged in chunk order by the pairwise update of Chan, Golub & LeVeque,
    so the result is the same for any thread count and does not cancel when
    the variance is tiny next to the mean.
    """
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    sizes = chunk_sizes(replicas, chunk)

    def worker(ci: int):
        vals = np.asarray(sample(substream(seed, tag, ci), sizes[ci]), dtype=float)
        if not np.isfinite(vals).all():
            bad = int(np.flatnonzero(~np.isfinite(vals).all(axis=0))[0])
            raise EvaluationError(f"functional returned a non-finite value at replica {ci * chunk + bad}")
        mean = vals.mean(axis=1)
        dev = vals - mean[:, None]
        return sizes[ci], mean, np.einsum("km,km->k", dev, dev)

    n, mean, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in map_chunks(worker, len(sizes), threads):
        total = n + n_b
        delta = mean_b - mean
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + delta * delta * (n * n_b / total)
        n = total
    return mean, np.sqrt(m2 / (n - 1) / n)


def _heat_step_sampler(F: ConfigurationFunctional, base: np.ndarray, ts, replicas: int, chunk: int):
    """``sample(rng, m)`` for ``_chunked_mean_se``: F at base + sqrt(2t) z for each t of ``ts``, as a
    (len(ts), m) array, one standard normal z per replica shared by every t.  Blocks of at most
    ``BLOCK_POINTS`` moved coordinates go through one buffer per call (chunks may run on several threads)
    and continue the chunk's stream; ``F.batch`` gets (m, n, d) for one t and (T, m, n, d) for several.
    """
    scales = [math.sqrt(2.0 * t) for t in ts]
    # the start, tiled over the rows of the largest block: adding it is one long pass, where
    # broadcasting the (particles, dim) start would run an inner loop of particles * dim values
    starts = np.tile(base, (min(replicas, chunk, block_rows(len(ts) * base.size)), 1, 1))

    def sample(rng, m):
        rows = min(m, len(starts))
        buffer = np.empty(len(ts) * rows * base.size)
        values = np.empty((len(ts), m))
        for offset in range(0, m, rows):
            b = min(rows, m - offset)
            moved = buffer[:len(ts) * b * base.size].reshape(len(ts), b, *base.shape)
            rng.standard_normal(out=moved[-1])  # z, in the last t's slot: scaled in place after the others
            for slot, scale in zip(moved, scales):
                np.multiply(moved[-1], scale, out=slot)
                slot += starts[:b]
            values[:, offset:offset + b] = F.batch(moved if len(ts) > 1 else moved[0])
        return values

    return sample


# ---------------------------------------------------------------------------
# Monte Carlo application of the semigroup


@dataclass(frozen=True)
class SemigroupEstimate:
    mean: float
    std_error: float
    replicas: int
    seed: int
    truncation_note: str = ""


def _truncation_note(gamma: Configuration) -> str:
    if gamma.intensity is None:
        return "finite configuration sampled exactly; no window truncation"
    bound = truncation_tail_bound(gamma.window_radius, 1, gamma.dim, gamma.intensity)
    return (
        f"window truncation at R={gamma.window_radius:g}; "
        f"exact B_1 tail beyond it {bound:.6g} (intensity {gamma.intensity:g})"
    )


def apply_mc(
    F: ConfigurationFunctional,
    gamma: Configuration,
    t: float,
    replicas: int,
    seed: int,
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> SemigroupEstimate:
    """Monte Carlo estimate of (P_t F)(gamma) over independent heat steps.

    Deterministic for a fixed seed, for any thread count: replica chunks draw
    from substreams keyed by (seed, chunk index) and are reduced in chunk order.
    """
    HeatKernelParams(gamma.dim, t)
    sample = _heat_step_sampler(F, gamma.expand(), (t,), replicas, chunk)
    (mean,), (se,) = _chunked_mean_se(sample, replicas, seed, TAG_APPLY_MC, threads, chunk)
    return SemigroupEstimate(
        mean=float(mean),
        std_error=float(se),
        replicas=replicas,
        seed=seed,
        truncation_note=_truncation_note(gamma),
    )


# ---------------------------------------------------------------------------
# kernel lift (the K-side convolution)


def lift_kernel(G: KernelFunction, t: float) -> KernelFunction:
    """The lifted kernel: each level convolved per argument with the heat kernel.

    Requires a product-form kernel whose profiles convolve in closed form.  The
    decay certificate degrades to (C * C_t' * I_eps, 1 + eps/2): C_t' dominates
    p_t(x, y) <= C_t' exp(-(1 + eps/2) |x-y|) and I_eps is the mass of
    exp(-(eps/2)|y|).
    """
    if not G.is_product:
        raise CapabilityError("kernel lift requires a product-form kernel")
    HeatKernelParams(G.dim, t)
    profiles = {}
    for order, prof in G.profiles.items():
        if not hasattr(prof, "heat_convolve"):
            raise CapabilityError(f"profile {type(prof).__name__} has no heat convolution")
        profiles[order] = prof.heat_convolve(t)
    cert = None
    if G.d_class is not None:
        beta = 1.0 + G.d_class.eps / 2.0
        c_t_prime = (4.0 * math.pi * t) ** (-G.dim / 2.0) * math.exp(beta * beta * t)
        i_eps = exp_radial_integral(G.d_class.eps / 2.0, G.dim)
        cert = DClassCertificate(G.d_class.c * c_t_prime * i_eps, G.d_class.eps / 2.0)
    return product_kernel(
        dim=G.dim,
        coeffs=dict(G.coeffs),
        profiles=profiles,
        value_at_empty=G.value_at_empty,
        d_class=cert,
    )


# ---------------------------------------------------------------------------
# Poisson invariance (paired Monte Carlo)


@dataclass(frozen=True)
class InvarianceReport:
    mean_diff: float
    std_error: float
    replicas: int
    inner_radius: float
    passed: bool
    note: str


def _displacement_sample(rng, m: int, dim: int, intensity: float, t: float, radius: float):
    """Particles of m independent Poisson(intensity) fields on R^dim that are in
    B = B(0, radius) before or after one heat step of time t, as (starts in B,
    replica index) and (ends, replica index).  By the displacement and thinning
    theorems they form two independent Poisson(intensity |B|) families: uniform
    starts in B stepped forward, and uniform ends in B stepped backward (the
    kernel is symmetric), kept when they started outside B."""
    window = Window(radius, intensity)
    scale = math.sqrt(2.0 * t)
    counts_a, starts = poisson_points(rng, m, window, dim)
    ends_a = starts + scale * rng.standard_normal(starts.shape)
    counts_b, ends_b = poisson_points(rng, m, window, dim)
    from_outside = np.sqrt(sq_dist(ends_b + scale * rng.standard_normal(ends_b.shape))) > radius
    idx_a = np.repeat(np.arange(m), counts_a)
    idx_b = np.repeat(np.arange(m), counts_b)[from_outside]
    return (starts, idx_a), (np.concatenate([ends_a, ends_b[from_outside]]), np.concatenate([idx_a, idx_b]))


def invariance_test(
    F: ConfigurationFunctional,
    dim: int,
    intensity: float,
    t: float,
    inner_radius: float,
    *,
    replicas: int,
    seed: int,
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
    outer_radius: float | None = None,
    leakage_tol: float | None = None,
) -> InvarianceReport:
    """Paired test of E[F] against E[P_t F] under the Poisson law pi_z.

    Each replica draws only the particles of a Poisson field on all of R^dim
    that are in B(0, inner_radius) before or after one heat step
    (``_displacement_sample``) and evaluates F on both sides, so the difference
    carries no between-sample noise.  Nothing is truncated, so there is no
    leakage term: the gate is |mean| <= 4 SE.  F must read no particle beyond
    ``inner_radius``.
    """
    # outer_radius and leakage_tol are accepted and ignored: perfbench/workloads.py still passes them
    HeatKernelParams(dim, t)
    if F.radius > inner_radius:
        raise ValueError(f"functional radius {F.radius:g} exceeds the inner radius {inner_radius:g}")

    def sample(rng, m):
        (before, idx_before), (after, idx_after) = _displacement_sample(rng, m, dim, intensity, t, inner_radius)
        return (F.segments(after, idx_after, m) - F.segments(before, idx_before, m))[None, :]

    (mean,), (se,) = _chunked_mean_se(sample, replicas, seed, TAG_INVARIANCE, threads, chunk)
    mean, se = float(mean), float(se)
    return InvarianceReport(
        mean_diff=mean,
        std_error=se,
        replicas=replicas,
        inner_radius=inner_radius,
        passed=abs(mean) <= 4.0 * se,
        note=f"paired Monte Carlo, displacement route over B(0, {inner_radius:g}); no window, no leakage",
    )


# ---------------------------------------------------------------------------
# cylinder functions and the generator residual


@dataclass(frozen=True)
class OuterFunction:
    """Outer map g: R^N -> R with analytic gradient and Hessian evaluators.

    ``heat(inner, particles, t)``, where a closed form exists, is P_t F at the
    (m, dim) particles for F = g(<phi_1, .>, ...) with the Gaussian bumps
    ``inner``; None otherwise.
    """

    name: str
    fn: object
    grad: object
    hess: object
    heat: object = None


def outer_linear(a: float = 1.0) -> OuterFunction:
    return OuterFunction(
        name=f"linear({a:g})",
        fn=lambda v: a * v[..., 0],
        grad=lambda v: np.array([a]),
        hess=lambda v: np.zeros((1, 1)),
        heat=lambda inner, pts, t: a * float(np.sum(inner[0].heat_convolve(t)(pts))),
    )


def outer_exp_neg_sum(n_args: int = 1) -> OuterFunction:
    def fn(v):
        # exp(-sum) in the sum's fresh buffer (np.sum gives a scalar for 8 or more entries on one axis)
        s = np.asarray(last_axis_sum(v))
        np.negative(s, out=s)
        np.exp(s, out=s)
        return s if s.ndim else s[()]

    return OuterFunction(
        name=f"exp_neg_sum({n_args})",
        fn=fn,
        grad=lambda v: -math.exp(-float(np.sum(v))) * np.ones(n_args),
        hess=lambda v: math.exp(-float(np.sum(v))) * np.ones((n_args, n_args)),
    )


def _square_heat(inner, pts, t: float) -> float:
    """P_t of <phi, .>^2: sum over particle pairs x != y of phi_t(x) phi_t(y), plus sum_x P_t(phi^2)(x), where
    phi^2 is the bump (amp^2, center, width / sqrt(2))."""
    phi = inner[0]
    phi_t = phi.heat_convolve(t)(pts)
    sq_t = GaussianBump(phi.amp**2, phi.center, phi.width / math.sqrt(2.0)).heat_convolve(t)(pts)
    return float(np.sum(phi_t)) ** 2 + float(np.sum(sq_t - phi_t * phi_t))


def outer_square() -> OuterFunction:
    return OuterFunction(
        name="square",
        fn=lambda v: v[..., 0] ** 2,
        grad=lambda v: np.array([2.0 * float(v[0])]),
        hess=lambda v: np.array([[2.0]]),
        heat=_square_heat,
    )


@dataclass(frozen=True)
class CylinderFunction(ConfigurationFunctional):
    """F(gamma) = g(<phi_1, gamma>, ..., <phi_N, gamma>) with analytic derivatives.

    It reads every particle (radius inf) and evaluates fixed-size batches.
    """

    outer: OuterFunction
    inner: tuple[GaussianBump, ...]

    def __post_init__(self):
        if not self.inner:
            raise ValueError("at least one inner test function required")

    def batch(self, positions):
        """F on (..., particles, dim) positions: any leading axes, one value each.
        The inner sums are formed for all bumps at once, along a leading bump
        axis, and g reads them through a view with that axis last."""
        sums = last_axis_sum(gaussian_bumps(self.inner, positions))
        return np.asarray(self.outer.fn(np.moveaxis(sums, 0, -1)), dtype=float)

    def generator_value(self, gamma: Configuration) -> float:
        """The Dirichlet operator applied to this cylinder function at gamma:

        - sum_ij d_i d_j g * <grad phi_i . grad phi_j, gamma>
        + sum_j d_j g * <-lap phi_j, gamma>.

        Normalization matches the transition density used everywhere in this
        package (per-coordinate displacement variance 2t), whose generator acts
        as the full per-particle Laplacian: (d/dt) P_t F = -H P_t F with the
        terms above.  A half-Laplacian convention would correspond to a
        variance-t kernel instead.
        """
        pts = gamma.expand()
        v0 = np.array([float(np.sum(phi(pts))) for phi in self.inner])
        grads = [phi.gradient(pts) for phi in self.inner]
        sums_grad = np.array([[float(np.sum(gi * gj)) for gj in grads] for gi in grads])
        sums_lap = np.array([float(np.sum(phi.laplacian(pts))) for phi in self.inner])
        grad = np.asarray(self.outer.grad(v0), dtype=float)
        hess = np.asarray(self.outer.hess(v0), dtype=float)
        return float(-np.sum(hess * sums_grad) - float(grad @ sums_lap))


@dataclass(frozen=True)
class GeneratorEntry:
    t: float
    quotient: float
    residual: float
    std_error: float | None  # None on the exact route
    inconclusive: bool


@dataclass(frozen=True)
class GeneratorReport:
    generator_value: float
    entries: tuple[GeneratorEntry, ...]
    ratios: tuple[float, ...]
    verdict: str
    note: str


#: band for the ratio of successive generator residuals as t halves (first order: about 2)
GENERATOR_RATIO_RANGE = (1.5, 3.0)


def _t_list(t_list) -> list[float]:
    ts = [float(t) for t in t_list]
    if len(ts) < 2 or any(t <= 0 for t in ts) or any(a <= b for a, b in zip(ts, ts[1:])):
        raise ValueError("t_list must be positive and strictly decreasing")
    return ts


def _generator_report(F: CylinderFunction, gamma: Configuration, ts, pt_values, ses) -> GeneratorReport:
    """The quotients (F(gamma) - P_t F(gamma)) / t from P_t F(gamma) at each t and the standard error of
    that value (None when exact), their residuals against the generator value, the residual ratios under
    halving of t, and the verdict: inconclusive when a residual's standard error exceeds half its size,
    else pass when every ratio lies in ``GENERATOR_RATIO_RANGE``."""
    f0 = F.value(gamma.expand())
    hf = F.generator_value(gamma)
    entries = []
    for t, pt, se in zip(ts, pt_values, ses):
        quotient = (f0 - pt) / t
        residual = quotient - hf
        se_q = None if se is None else float(se) / t
        entries.append(GeneratorEntry(t, quotient, residual, se_q, se_q is not None and se_q > abs(residual) / 2.0))
    ratios = tuple(
        entries[k].residual / entries[k + 1].residual if entries[k + 1].residual != 0.0 else math.inf
        for k in range(len(entries) - 1)
    )
    if any(e.inconclusive for e in entries):
        verdict = "inconclusive"
        note = "standard error dominates a residual; increase replicas"
    elif all(GENERATOR_RATIO_RANGE[0] <= r <= GENERATOR_RATIO_RANGE[1] for r in ratios):
        verdict = "pass"
        note = "residual ratios consistent with first-order convergence"
    else:
        verdict = "fail"
        note = f"residual ratios {ratios} outside {GENERATOR_RATIO_RANGE}"
    return GeneratorReport(hf, tuple(entries), ratios, verdict, note)


def generator_exact(F: CylinderFunction, gamma: Configuration, t_list) -> GeneratorReport:
    """The check of ``generator_residual`` with P_t F(gamma) in closed form, for an outer function
    with a ``heat`` route (``linear`` and ``square``): the residuals carry no standard error and are
    never inconclusive."""
    if F.outer.heat is None:
        raise CapabilityError(f"no closed-form P_t for the outer function {F.outer.name}")
    ts = _t_list(t_list)
    base = gamma.expand()
    return _generator_report(F, gamma, ts, [F.outer.heat(F.inner, base, t) for t in ts], [None] * len(ts))


def generator_residual(
    F: CylinderFunction,
    gamma: Configuration,
    t_list,
    replicas: int,
    seed: int,
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> GeneratorReport:
    """One-sided difference-quotient check of the generator formula.

    Computes (F(gamma) - P_t F(gamma)) / t against the analytic generator value
    for each t; the residual is first order in t, so halving t should roughly
    halve it.  Common random numbers across the t-list (one z moves the
    particles to gamma + sqrt(2t) z for every t) keep the ratios stable.  A
    residual whose standard error exceeds half its size is flagged and makes
    the verdict inconclusive (more replicas, not failure).
    """
    ts = _t_list(t_list)
    sample = _heat_step_sampler(F, gamma.expand(), ts, replicas, chunk)
    means, ses = _chunked_mean_se(sample, replicas, seed, TAG_GENERATOR, threads, chunk)
    return _generator_report(F, gamma, ts, [float(m) for m in means], ses)


# ---------------------------------------------------------------------------
# Feller continuity probes


@dataclass(frozen=True)
class FellerReport:
    route: str
    metric_gaps: tuple[float, ...]
    value_gaps: tuple[float, ...]
    passed: bool
    note: str


def _feller_evaluator(F_spec, t: float):
    if isinstance(F_spec, KernelFunction):
        lifted = lift_kernel(F_spec, t)
        return "kernel-lift closed form", lambda g: k_transform(lifted, g)
    if isinstance(F_spec, ExpFunctional):
        return "exact exponential", lambda g: apply_exact_exponential(F_spec, g, t)
    raise CapabilityError(f"no evaluation route for {type(F_spec).__name__}")


def feller_probe(
    F_spec,
    gamma: Configuration,
    perturbations,
    metric,
    t: float,
    ratio_tol: float = 1.0e-3,
) -> FellerReport:
    """Continuity probe: a schedule of perturbed configurations with metric gaps
    decreasing to zero must produce value gaps decreasing below
    ratio_tol * (initial gap).

    ``metric`` is a callable (g1, g2) -> float (e.g. metrics.d1 or metrics.rho).
    ``F_spec`` is a KernelFunction, evaluated by the kernel lift, or an
    ExpFunctional, evaluated by the exponential identity; both routes are
    exact, and the report names the one taken.
    """
    perturbations = list(perturbations)
    if not perturbations:
        raise ValueError("at least one perturbed configuration required")
    gaps = [float(metric(g, gamma)) for g in perturbations]
    if any(g > 0 for g in gaps):
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            raise ValueError("non-monotone perturbation schedule: metric gaps must strictly decrease")
    route, evaluate = _feller_evaluator(F_spec, t)
    ref = evaluate(gamma)
    value_gaps = [abs(evaluate(g) - ref) for g in perturbations]
    if all(g == 0.0 for g in gaps):
        passed = all(v == 0.0 for v in value_gaps)
        note = "degenerate schedule (all perturbations equal the base point)"
    else:
        decreasing = all(a > b for a, b in zip(value_gaps, value_gaps[1:]))
        converged = value_gaps[-1] < ratio_tol * value_gaps[0] if value_gaps[0] > 0 else True
        passed = decreasing and converged
        note = f"value gaps {'strictly decrease' if decreasing else 'do not strictly decrease'};" \
               f" final/initial = {value_gaps[-1] / value_gaps[0]:.3g}" if value_gaps[0] > 0 else "zero initial gap"
    return FellerReport(route, tuple(gaps), tuple(value_gaps), passed, note)

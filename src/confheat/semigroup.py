"""The heat semigroup acting on functions of configurations.

Two evaluation routes exist side by side: Monte Carlo over independent heat
steps of every particle (apply_mc), and closed forms where the functional
family permits (the exponential-functional identity, and the kernel lift
K-side convolution).  Reports name their route.  Every Monte Carlo estimate
(apply_mc, invariance_test, generator_residual) goes through one chunked
estimator: each chunk draws from its own counter-based substream and reduces
to a count, mean and centred sum of squares, and the chunks are merged in
chunk order.  Results are reproducible, independent of thread count, and
stable when the variance is tiny next to the mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, EvaluationError
from .harmonic import DClassCertificate, KernelFunction, k_transform_product_batch, product_kernel
from .kernel import HeatKernelParams
from .points import Configuration, truncation_tail_bound, uniform_ball
from .profiles import ConstantProfile, GaussianBump, SmoothedIndicator
from .profiles import GaussianBump as SmoothBump  # noqa: F401  (former name of the cylinder test functions)
from .rng import (
    TAG_APPLY_MC,
    TAG_GENERATOR,
    TAG_INVARIANCE,
    chunk_sizes,
    map_chunks,
    substream,
)
from .special import ball_volume, exp_radial_integral

DEFAULT_CHUNK = 4096


# ---------------------------------------------------------------------------
# configuration functionals (batch-evaluable)


class ConfigurationFunctional:
    """Functional of a configuration, evaluable on batches of particle arrays.

    ``batch`` receives positions of shape (replicas, particles, dim) and returns
    one value per replica; particles carry no multiplicities here (configurations
    are expanded before evaluation).
    """

    def batch(self, positions: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, positions: np.ndarray) -> float:
        return float(self.batch(np.asarray(positions, dtype=float)[None, ...])[0])

    def on_configuration(self, gamma: Configuration) -> float:
        return self.value(gamma.expand())


@dataclass(frozen=True)
class ConstantFunctional(ConfigurationFunctional):
    c: float = 1.0

    def batch(self, positions):
        return np.full(positions.shape[0], self.c)


@dataclass(frozen=True)
class BallCountFunctional(ConfigurationFunctional):
    """Number of particles inside B(0, radius)."""

    radius: float

    def batch(self, positions):
        if positions.shape[1] == 0:
            return np.zeros(positions.shape[0])
        inside = np.linalg.norm(positions, axis=2) <= self.radius
        return inside.sum(axis=1).astype(float)


@dataclass(frozen=True)
class ExpProductFunctional(ConfigurationFunctional):
    """F(gamma) = prod over particles of (1 + phi(x))."""

    phi: object

    def batch(self, positions):
        if positions.shape[1] == 0:
            return np.ones(positions.shape[0])
        return np.prod(1.0 + np.asarray(self.phi(positions), dtype=float), axis=1)


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
        if isinstance(self.phi, GaussianBump):
            if not (-1.0 < self.phi.amp <= 0.0):
                raise ValueError("Gaussian-bump amplitude must lie in (-1, 0]")
        elif isinstance(self.phi, SmoothedIndicator):
            if not (-1.0 < self.phi.amp <= 0.0):
                raise ValueError("smoothed-indicator amplitude must lie in (-1, 0]")
        elif isinstance(self.phi, ConstantProfile):
            if self.phi.value != 0.0:
                raise ValueError("constant phi must be identically zero")
        else:
            raise CapabilityError(f"unsupported phi family {type(self.phi).__name__}")

    @property
    def dim(self) -> int:
        return self.phi.dim

    def functional(self) -> ExpProductFunctional:
        return ExpProductFunctional(self.phi)

    def convolved_profile(self, t: float):
        return self.phi.heat_convolve(t)


def apply_exact_exponential(ef: ExpFunctional, gamma: Configuration, t: float) -> float:
    """(P_t F)(gamma) for the exponential functional: prod over particles of
    (1 + (p_t * phi)(x)), by the closed-form or quadrature heat convolution."""
    HeatKernelParams(gamma.dim, t)
    if gamma.dim != ef.dim:
        raise ValueError("dimension mismatch between phi and configuration")
    particles = gamma.expand()
    if particles.shape[0] == 0:
        return 1.0
    conv = ef.convolved_profile(t)
    vals = np.asarray(conv(particles), dtype=float)
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
        f"B_1-class tail bound {bound:.6g} (intensity {gamma.intensity:g})"
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
    base = gamma.expand()
    scale = math.sqrt(2.0 * t)

    def sample(rng, m):
        disp = rng.standard_normal((m, base.shape[0], gamma.dim))
        return np.asarray(F.batch(base[None, :, :] + scale * disp), dtype=float)[None, :]

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


class WindowedFunctional:
    """Functional of the particles inside the ball B(0, radius), evaluable per
    replica segment: positions of many replicas concatenated with a replica index."""

    radius: float = 0.0

    def segments(self, positions: np.ndarray, rep_idx: np.ndarray, n_rep: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class WindowedConstant(WindowedFunctional):
    c: float = 1.0

    def segments(self, positions, rep_idx, n_rep):
        return np.full(n_rep, self.c)


@dataclass(frozen=True)
class WindowedCount(WindowedFunctional):
    radius: float

    def segments(self, positions, rep_idx, n_rep):
        if positions.shape[0] == 0:
            return np.zeros(n_rep)
        inside = np.linalg.norm(positions, axis=1) <= self.radius
        return np.bincount(rep_idx[inside], minlength=n_rep).astype(float)


@dataclass(frozen=True)
class WindowedExponential(WindowedFunctional):
    """prod over inner-ball particles of (1 + phi(x)); bounded by 1."""

    phi: object
    radius: float

    def segments(self, positions, rep_idx, n_rep):
        if positions.shape[0] == 0:
            return np.ones(n_rep)
        inside = np.linalg.norm(positions, axis=1) <= self.radius
        logs = np.log1p(np.asarray(self.phi(positions[inside]), dtype=float))
        return np.exp(np.bincount(rep_idx[inside], weights=logs, minlength=n_rep))


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
    lam = intensity * ball_volume(dim, radius)
    scale = math.sqrt(2.0 * t)
    counts_a = rng.poisson(lam, size=m)
    starts = uniform_ball(rng, int(counts_a.sum()), dim, radius)
    ends_a = starts + scale * rng.standard_normal(starts.shape)
    counts_b = rng.poisson(lam, size=m)
    ends_b = uniform_ball(rng, int(counts_b.sum()), dim, radius)
    from_outside = np.linalg.norm(ends_b + scale * rng.standard_normal(ends_b.shape), axis=1) > radius
    idx_a = np.repeat(np.arange(m), counts_a)
    idx_b = np.repeat(np.arange(m), counts_b)[from_outside]
    return (starts, idx_a), (np.concatenate([ends_a, ends_b[from_outside]]), np.concatenate([idx_a, idx_b]))


def invariance_test(
    F: WindowedFunctional,
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
    """Outer map g: R^N -> R with analytic gradient and Hessian evaluators."""

    name: str
    fn: object
    grad: object
    hess: object


def outer_linear(a: float = 1.0) -> OuterFunction:
    return OuterFunction(
        name=f"linear({a:g})",
        fn=lambda v: a * v[..., 0],
        grad=lambda v: np.array([a]),
        hess=lambda v: np.zeros((1, 1)),
    )


def outer_exp_neg_sum(n_args: int = 1) -> OuterFunction:
    return OuterFunction(
        name=f"exp_neg_sum({n_args})",
        fn=lambda v: np.exp(-np.sum(v, axis=-1)),
        grad=lambda v: -math.exp(-float(np.sum(v))) * np.ones(n_args),
        hess=lambda v: math.exp(-float(np.sum(v))) * np.ones((n_args, n_args)),
    )


def outer_square() -> OuterFunction:
    return OuterFunction(
        name="square",
        fn=lambda v: v[..., 0] ** 2,
        grad=lambda v: np.array([2.0 * float(v[0])]),
        hess=lambda v: np.array([[2.0]]),
    )


def _fd_gradient(f, x, h=1.0e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (float(f(x + e)) - float(f(x - e))) / (2 * h)
    return out


@dataclass(frozen=True)
class CylinderFunction:
    """F(gamma) = g(<phi_1, gamma>, ..., <phi_N, gamma>) with analytic derivatives.

    Construction cross-checks every derivative evaluator against central finite
    differences (relative error <= 1e-5 at probe points).
    """

    outer: OuterFunction
    inner: tuple[GaussianBump, ...]
    _check: bool = field(default=True, repr=False)

    def __post_init__(self):
        if not self.inner:
            raise ValueError("at least one inner test function required")
        if self._check:
            self._validate()

    def _validate(self):
        dim = self.inner[0].dim
        probes = [np.full(dim, 0.3), np.linspace(-0.7, 0.5, dim)]
        for phi in self.inner:
            for x in probes:
                g_true = phi.gradient(x)
                g_fd = _fd_gradient(phi, x)
                if not np.allclose(g_true, g_fd, rtol=1.0e-5, atol=1.0e-7):
                    raise ValueError(f"gradient of {phi} inconsistent with finite differences")
                lap_fd = sum(
                    (float(phi(x + h_vec)) - 2 * float(phi(x)) + float(phi(x - h_vec))) / 1.0e-8
                    for h_vec in (np.eye(dim)[i] * 1.0e-4 for i in range(dim))
                )
                if not math.isclose(float(phi.laplacian(x)), lap_fd, rel_tol=1.0e-5, abs_tol=1.0e-5):
                    raise ValueError(f"laplacian of {phi} inconsistent with finite differences")
        v0 = np.full(len(self.inner), 0.2)
        g_fd = _fd_gradient(lambda v: self.outer.fn(np.asarray(v)), v0)
        if not np.allclose(np.asarray(self.outer.grad(v0), dtype=float), g_fd, rtol=1.0e-5, atol=1.0e-7):
            raise ValueError("outer gradient inconsistent with finite differences")
        h_fd = np.array([_fd_gradient(lambda v, j=j: float(self.outer.grad(v)[j]), v0) for j in range(len(self.inner))])
        if not np.allclose(np.asarray(self.outer.hess(v0), dtype=float), h_fd.T, rtol=1.0e-4, atol=1.0e-6):
            raise ValueError("outer Hessian inconsistent with finite differences")

    def functional(self) -> ConfigurationFunctional:
        outer = self.outer
        inner = self.inner

        class _Cyl(ConfigurationFunctional):
            def batch(self, positions):
                if positions.shape[1] == 0:
                    v = np.zeros((positions.shape[0], len(inner)))
                else:
                    v = np.stack([np.sum(phi(positions), axis=1) for phi in inner], axis=-1)
                return np.asarray(outer.fn(v), dtype=float)

        return _Cyl()

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
        n = len(self.inner)
        if pts.shape[0] == 0:
            v0 = np.zeros(n)
            sums_grad = np.zeros((n, n))
            sums_lap = np.zeros(n)
        else:
            v0 = np.array([float(np.sum(phi(pts))) for phi in self.inner])
            grads = [phi.gradient(pts) for phi in self.inner]
            sums_grad = np.array(
                [[float(np.sum(grads[i] * grads[j])) for j in range(n)] for i in range(n)]
            )
            sums_lap = np.array([float(np.sum(phi.laplacian(pts))) for phi in self.inner])
        grad = np.asarray(self.outer.grad(v0), dtype=float)
        hess = np.asarray(self.outer.hess(v0), dtype=float)
        return float(-np.sum(hess * sums_grad) - float(grad @ sums_lap))


@dataclass(frozen=True)
class GeneratorEntry:
    t: float
    quotient: float
    residual: float
    std_error: float
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
    halve it.  Common random numbers across the t-list keep the ratios stable.
    A residual whose standard error exceeds half its size is flagged and makes
    the verdict inconclusive (more replicas, not failure).
    """
    ts = [float(t) for t in t_list]
    if len(ts) < 2 or any(t <= 0 for t in ts) or any(a <= b for a, b in zip(ts, ts[1:])):
        raise ValueError("t_list must be positive and strictly decreasing")
    functional = F.functional()
    base = gamma.expand()
    f0 = functional.value(base)
    hf = F.generator_value(gamma)

    def sample(rng, m):
        z = rng.standard_normal((m, base.shape[0], gamma.dim))
        return np.stack([functional.batch(base[None, :, :] + math.sqrt(2.0 * t) * z) for t in ts])

    means, ses = _chunked_mean_se(sample, replicas, seed, TAG_GENERATOR, threads, chunk)
    entries = []
    for t, mean, se_mean in zip(ts, means, ses):
        quotient = (f0 - float(mean)) / t
        residual = quotient - hf
        se_q = float(se_mean) / t
        entries.append(GeneratorEntry(t, quotient, residual, se_q, se_q > abs(residual) / 2.0))
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


# ---------------------------------------------------------------------------
# Feller continuity probes


@dataclass(frozen=True)
class FellerReport:
    route: str
    metric_gaps: tuple[float, ...]
    value_gaps: tuple[float, ...]
    passed: bool
    note: str


def _feller_evaluator(F_spec, t: float, replicas: int, seed: int):
    from .harmonic import k_transform

    if isinstance(F_spec, KernelFunction):
        lifted = lift_kernel(F_spec, t)
        return "kernel-lift closed form", lambda g: k_transform(lifted, g)
    if isinstance(F_spec, ExpFunctional):
        return "exact exponential", lambda g: apply_exact_exponential(F_spec, g, t)
    if isinstance(F_spec, ConfigurationFunctional):
        return "monte carlo", lambda g: apply_mc(F_spec, g, t, replicas, seed).mean
    raise CapabilityError(f"no evaluation route for {type(F_spec).__name__}")


def feller_probe(
    F_spec,
    gamma: Configuration,
    perturbations,
    metric,
    t: float,
    ratio_tol: float = 1.0e-3,
    replicas: int = 20000,
    seed: int = 0,
) -> FellerReport:
    """Continuity probe: a schedule of perturbed configurations with metric gaps
    decreasing to zero must produce value gaps decreasing below
    ratio_tol * (initial gap).

    ``metric`` is a callable (g1, g2) -> float (e.g. metrics.d1 or metrics.rho).
    The exact route is preferred automatically; the report names it.
    """
    perturbations = list(perturbations)
    if not perturbations:
        raise ValueError("at least one perturbed configuration required")
    gaps = [float(metric(g, gamma)) for g in perturbations]
    if any(g > 0 for g in gaps):
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            raise ValueError("non-monotone perturbation schedule: metric gaps must strictly decrease")
    route, evaluate = _feller_evaluator(F_spec, t, replicas, seed)
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

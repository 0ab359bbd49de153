import math

import numpy as np
import pytest
from scipy.special import ndtr

from confheat.errors import CapabilityError, EvaluationError
from confheat.harmonic import k_transform, product_kernel, verify_d_class
from confheat.kernel import HeatKernelParams, tail_mass
from confheat.points import Configuration, uniform_ball
from confheat.profiles import GaussianBump, SmoothedIndicator
from confheat.rng import TAG_APPLY_MC, TAG_INVARIANCE, chunk_sizes, substream
from confheat.semigroup import (
    DEFAULT_CHUNK,
    BallCountFunctional,
    ConfigurationFunctional,
    ConstantFunctional,
    CylinderFunction,
    ExpFunctional,
    KPolynomialFunctional,
    OuterFunction,
    SmoothBump,
    WindowedConstant,
    WindowedCount,
    WindowedExponential,
    _chunked_mean_se,
    _displacement_sample,
    apply_exact_exponential,
    apply_mc,
    feller_probe,
    generator_residual,
    invariance_test,
    lift_kernel,
    outer_linear,
)
from confheat.special import ball_volume


def cfg(points, dim=1, radius=None):
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    return Configuration.from_points(dim, pts, None, radius)


# ---------------------------------------------------------------------------
# apply_mc basics


def test_apply_mc_constant_is_exact():
    est = apply_mc(ConstantFunctional(1.0), cfg([0.0, 1.0]), 0.5, replicas=100, seed=1)
    assert est.mean == 1.0 and est.std_error == 0.0
    assert est.replicas == 100 and est.seed == 1


def test_apply_mc_deterministic_and_thread_invariant():
    F = BallCountFunctional(1.0)
    gamma = cfg([0.0, 0.4, -0.8], radius=1.0)
    a = apply_mc(F, gamma, 0.3, replicas=9000, seed=5)
    b = apply_mc(F, gamma, 0.3, replicas=9000, seed=5)
    c = apply_mc(F, gamma, 0.3, replicas=9000, seed=5, threads=3)
    assert a.mean == b.mean == c.mean
    assert a.std_error == b.std_error == c.std_error
    d = apply_mc(F, gamma, 0.3, replicas=9000, seed=6)
    assert d.mean != a.mean


def test_apply_mc_count_matches_gaussian_ball_probability():
    gamma = cfg([0.0, 0.6], radius=1.0)
    t = 0.4
    sigma = math.sqrt(2.0 * t)
    R = 1.0
    expected = sum(
        ndtr((R - x) / sigma) - ndtr(-(R + x) / sigma) for x in [0.0, 0.6]
    )
    est = apply_mc(BallCountFunctional(R), gamma, t, replicas=40000, seed=7)
    assert abs(est.mean - expected) <= 4 * est.std_error


def test_apply_mc_positivity_and_contraction():
    phi = GaussianBump(-0.5, (0.0,), 1.0)
    F = ExpFunctional(phi).functional()
    est = apply_mc(F, cfg([0.2, -0.3, 1.0], radius=2.0), 0.7, replicas=20000, seed=8)
    assert 0.0 <= est.mean <= 1.0


def test_apply_mc_reports_bad_functional():
    class Bad(ConfigurationFunctional):
        def batch(self, positions):
            out = np.ones(positions.shape[0])
            out[3] = np.nan
            return out

    with pytest.raises(EvaluationError, match="replica 3"):
        apply_mc(Bad(), cfg([0.0]), 0.5, replicas=10, seed=0)


def test_apply_mc_se_stable_for_tiny_variance():
    # amp -1e-8: the variance is ~1e-18 of the squared mean, where a
    # sum-of-squares reduction cancels to 0; compare a two-pass std on the
    # same substream draws
    F = ExpFunctional(GaussianBump(-1.0e-8, (0.0,), 1.0)).functional()
    gamma = cfg([0.0, 0.8], radius=2.0)
    t, replicas, seed = 0.5, 20000, 103
    est = apply_mc(F, gamma, t, replicas=replicas, seed=seed)
    base = gamma.expand()
    vals = np.concatenate([
        F.batch(base[None] + math.sqrt(2.0 * t) * substream(seed, TAG_APPLY_MC, ci).standard_normal((m, 2, 1)))
        for ci, m in enumerate(chunk_sizes(replicas, 4096))
    ])
    assert est.mean == pytest.approx(vals.mean(), rel=1e-14)
    assert est.std_error == pytest.approx(np.std(vals, ddof=1) / math.sqrt(replicas), rel=1e-6)
    assert est.std_error > 0.0


def test_apply_mc_empty_configuration():
    est = apply_mc(BallCountFunctional(1.0), Configuration.empty(2), 0.5, replicas=50, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


# ---------------------------------------------------------------------------
# exact exponential route


def test_exact_exponential_trivial_cases():
    ef = ExpFunctional(GaussianBump(0.0, (0.0,), 1.0))
    assert apply_exact_exponential(ef, cfg([0.0, 1.0]), 0.5) == 1.0
    ef2 = ExpFunctional(GaussianBump(-0.5, (0.0,), 1.0))
    assert apply_exact_exponential(ef2, Configuration.empty(1), 0.5) == 1.0


def test_exact_exponential_stated_value():
    # a=0.5, s=1, t=0.5 at a single particle at the origin: 1 - 0.5/sqrt(2)
    ef = ExpFunctional(GaussianBump(-0.5, (0.0,), 1.0))
    val = apply_exact_exponential(ef, cfg([0.0]), 0.5)
    assert val == pytest.approx(1.0 - 0.5 / math.sqrt(2.0), rel=1e-12)


def test_exact_exponential_matches_mc_gaussian():
    ef = ExpFunctional(GaussianBump(-0.4, (0.0,), 0.8))
    gamma = cfg([0.0, 0.5, -1.2], radius=2.0)
    exact = apply_exact_exponential(ef, gamma, 0.6)
    est = apply_mc(ef.functional(), gamma, 0.6, replicas=60000, seed=11)
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_exact_exponential_matches_mc_smoothed_indicator():
    for dim in (1, 2, 3):
        ef = ExpFunctional(SmoothedIndicator(-0.5, 1.0, 0.25, dim))
        gamma = cfg([[0.3] + [0.0] * (dim - 1), [-0.9] + [0.0] * (dim - 1)], dim=dim, radius=2.0)
        exact = apply_exact_exponential(ef, gamma, 0.5)
        est = apply_mc(ef.functional(), gamma, 0.5, replicas=40000, seed=12 + dim)
        assert abs(est.mean - exact) <= 4 * est.std_error, f"dim {dim}"


def test_exponential_two_step_composition_residual():
    # convolving t then s equals one step of t+s (Markov semigroup of kernels)
    ef = ExpFunctional(GaussianBump(-0.6, (0.0,), 1.2))
    gamma = cfg([0.0, 0.7, -0.4], radius=2.0)
    t, s = 0.3, 0.5
    once = apply_exact_exponential(ef, gamma, t + s)
    two_profile = ef.phi.heat_convolve(t).heat_convolve(s)
    twice = float(np.prod(1.0 + two_profile(gamma.expand())))
    assert abs(once - twice) <= 1e-10 * abs(once)


def test_exp_functional_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        ExpFunctional(GaussianBump(-1.5, (0.0,), 1.0))
    with pytest.raises(ValueError):
        ExpFunctional(GaussianBump(0.3, (0.0,), 1.0))
    with pytest.raises(CapabilityError):
        ExpFunctional(object())


# ---------------------------------------------------------------------------
# kernel lift


def test_lift_kernel_small_time_is_identity_on_grid():
    bump = GaussianBump(0.8, (0.0,), 1.0)
    G = product_kernel(1, {1: 1.0}, bump)
    lifted = lift_kernel(G, 1e-6)
    grid = np.linspace(-2, 2, 21).reshape(-1, 1)
    for x in grid:
        assert lifted.profiles[1](x) == pytest.approx(float(bump(x)), abs=1e-5)


def test_lift_identity_mc_vs_k_transform():
    rng = substream(17, 3)
    bump = GaussianBump(0.5, (0.2,), 1.0)
    G = product_kernel(1, {1: 1.0, 2: 0.3}, bump, value_at_empty=0.1, d_class="auto")
    gamma = cfg(rng.uniform(-2, 2, size=(12, 1)), radius=3.0)
    t = 0.5
    exact = k_transform(lift_kernel(G, t), gamma)
    est = apply_mc(KPolynomialFunctional(G), gamma, t, replicas=60000, seed=18)
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_lift_preserves_decay_class_with_degraded_certificate():
    bump = GaussianBump(0.7, (0.0,), 1.0)
    G = product_kernel(1, {1: 1.0, 2: 0.5}, bump, d_class="auto")
    lifted = lift_kernel(G, 0.4)
    assert lifted.d_class is not None
    assert lifted.d_class.eps == pytest.approx(G.d_class.eps / 2.0)
    ok, worst = verify_d_class(lifted, lifted.d_class, seed=4)
    assert ok, f"worst ratio {worst}"


def test_lift_kernel_requires_product_form():
    from confheat.harmonic import KernelFunction

    generic = KernelFunction(dim=1, max_order=1, levels={1: lambda pts: float(pts.sum())})
    with pytest.raises(CapabilityError):
        lift_kernel(generic, 0.5)


def test_weak_formula_order_one():
    # E_pi[(P_t KG1) KG2] for first-order kernels g, h reduces (Mecke formula
    # plus conservativity) to  int g (p_t*h) dm + int g dm * int h dm; the
    # Monte Carlo left side must agree within 4 SE
    from scipy.integrate import quad

    from confheat.rng import substream

    g = GaussianBump(0.8, (0.3,), 0.7)
    h = GaussianBump(0.6, (-0.4,), 0.9)
    t = 0.5
    conv_g = g.heat_convolve(t)
    conv_h = h.heat_convolve(t)
    cross, _ = quad(lambda x: float(g(np.array([x]))) * float(conv_h(np.array([x]))), -20, 20)
    mass_g, _ = quad(lambda x: float(g(np.array([x]))), -20, 20)
    mass_h, _ = quad(lambda x: float(h(np.array([x]))), -20, 20)
    rhs = cross + mass_g * mass_h

    rng = substream(61, 1)
    n_rep = 60000
    lam = 2.0 * 8.0  # z = 1 on B(0, 8) in d = 1
    counts = rng.poisson(lam, size=n_rep)
    pts = rng.uniform(-8.0, 8.0, size=(int(counts.sum()), 1))
    rep_idx = np.repeat(np.arange(n_rep), counts)
    a = np.bincount(rep_idx, weights=conv_g(pts), minlength=n_rep)
    b = np.bincount(rep_idx, weights=h(pts), minlength=n_rep)
    prods = a * b
    mean = prods.mean()
    se = prods.std(ddof=1) / math.sqrt(n_rep)
    assert abs(mean - rhs) <= 4 * se, (mean, rhs, se)


# ---------------------------------------------------------------------------
# invariance


def leak_sensitivity(F) -> float:
    """Largest change of F when one particle enters or leaves its ball."""
    if isinstance(F, WindowedConstant):
        return 0.0
    if isinstance(F, WindowedExponential):
        return abs(F.phi.amp)
    return 1.0


def windowed_invariance(F, dim, intensity, t, inner_radius, outer_radius, replicas, seed,
                        leakage_tol=None, chunk=DEFAULT_CHUNK):
    """Oracle: the paired invariance estimate over a Poisson field truncated to
    B(0, outer_radius).  Returns (mean, se, leakage bound); the truncation biases
    the mean by at most sensitivity * z * |B(0, inner_radius)| * tail_mass(t, pad)."""
    if outer_radius <= inner_radius:
        raise ValueError("outer radius must exceed the inner radius")
    pad = outer_radius - inner_radius
    leakage = leak_sensitivity(F) * intensity * ball_volume(dim, inner_radius) * tail_mass(
        HeatKernelParams(dim, t), pad
    )
    if leakage_tol is not None and leakage > leakage_tol:
        raise ValueError(
            f"window pad {pad:g} admits leakage bound {leakage:.3g} above the requested {leakage_tol:g}"
        )
    mean_count = intensity * ball_volume(dim, outer_radius)
    scale = math.sqrt(2.0 * t)

    def sample(rng, m):
        counts = rng.poisson(mean_count, size=m)
        total = int(counts.sum())
        pos = uniform_ball(rng, total, dim, outer_radius)
        rep_idx = np.repeat(np.arange(m), counts)
        before = F.segments(pos, rep_idx, m)
        moved = pos + scale * rng.standard_normal((total, dim))
        return (F.segments(moved, rep_idx, m) - before)[None, :]

    (mean,), (se,) = _chunked_mean_se(sample, replicas, seed, TAG_INVARIANCE, 1, chunk)
    return float(mean), float(se), leakage


def invariance_functionals(dim):
    return (
        WindowedConstant(2.0),
        WindowedCount(1.0),
        WindowedExponential(GaussianBump(-0.5, (0.0,) * dim, 0.7), 1.0),
    )


def test_invariance_constant_functional_exact_zero():
    rep = invariance_test(
        WindowedConstant(2.0), dim=2, intensity=1.0, t=0.5, inner_radius=1.0, replicas=2000, seed=21,
    )
    assert rep.mean_diff == 0.0 and rep.std_error == 0.0 and rep.passed


def test_invariance_count_and_exponential_pass():
    for F in invariance_functionals(2)[1:]:
        rep = invariance_test(F, dim=2, intensity=1.0, t=0.5, inner_radius=1.0, replicas=30000, seed=22)
        assert rep.passed, (rep.mean_diff, rep.std_error)
        assert "displacement" in rep.note
        # the window keywords are accepted and change nothing
        legacy = invariance_test(F, dim=2, intensity=1.0, t=0.5, inner_radius=1.0, replicas=30000, seed=22,
                                 outer_radius=7.0, leakage_tol=1e-3)
        assert legacy == rep


def test_invariance_agrees_with_windowed_oracle():
    # randomized t, z and seeds for every dimension and functional; the gate is
    # 4 SE of the difference of two independent estimates plus the oracle's leakage
    pick = np.random.default_rng(2024)
    for dim in (1, 2, 3):
        for F in invariance_functionals(dim):
            t = float(pick.uniform(0.1, 0.6))
            z = float(pick.uniform(0.5, 1.5))
            seed_a, seed_b = (int(s) for s in pick.integers(0, 2**31, size=2))
            rep = invariance_test(F, dim=dim, intensity=z, t=t, inner_radius=1.0, replicas=2000, seed=seed_a)
            mean, se, leakage = windowed_invariance(F, dim, z, t, 1.0, 1.0 + 5.0 * math.sqrt(2.0 * t),
                                                    2000, seed_b, chunk=500)
            gap = abs(rep.mean_diff - mean)
            assert gap <= 4.0 * math.hypot(rep.std_error, se) + leakage, (dim, F, t, z, rep, mean, se, leakage)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_displacement_sample_after_count_is_poisson_mean(dim):
    # the particles in B after the step form a Poisson(z) field restricted to B
    z, t, m = 1.3, 0.4, 20000
    (before, idx_before), (after, idx_after) = _displacement_sample(substream(41, dim), m, dim, z, t, 1.0)
    expected = z * ball_volume(dim, 1.0)
    for pos, idx in ((before, idx_before), (after, idx_after)):
        counts = np.bincount(idx[np.linalg.norm(pos, axis=1) <= 1.0], minlength=m)
        se = counts.std(ddof=1) / math.sqrt(m)
        assert abs(counts.mean() - expected) <= 4.0 * se, (counts.mean(), expected, se)


def test_invariance_rejects_functional_beyond_inner_ball():
    with pytest.raises(ValueError, match="radius"):
        invariance_test(WindowedCount(1.5), dim=2, intensity=1.0, t=0.5, inner_radius=1.0, replicas=100, seed=0)


def test_invariance_thread_invariant_across_chunks():
    kw = dict(dim=2, intensity=1.0, t=0.5, inner_radius=1.0, replicas=6000, seed=23, chunk=1000)
    a = invariance_test(WindowedCount(1.0), threads=1, **kw)
    b = invariance_test(WindowedCount(1.0), threads=3, **kw)
    assert (a.mean_diff, a.std_error) == (b.mean_diff, b.std_error)
    assert a.std_error > 0.0


def test_invariance_pad_too_small_is_config_error():
    with pytest.raises(ValueError, match="leakage"):
        windowed_invariance(WindowedCount(1.0), 2, 1.0, 0.5, 1.0, 1.5, replicas=100, seed=0, leakage_tol=1e-6)


# ---------------------------------------------------------------------------
# generator residual


def test_cylinder_generator_stated_value():
    # g linear, phi(x) = exp(-x^2): the variance-2t kernel has generator
    # -(full Laplacian), so H F at {0} equals -phi''(0) = 2; the closed form
    # E[phi(X_t)] = (1+4t)^{-1/2} confirms the quotient limit below
    phi = SmoothBump(1.0, (0.0,), 1.0 / math.sqrt(2.0))
    F = CylinderFunction(outer_linear(1.0), (phi,))
    assert F.generator_value(cfg([0.0])) == pytest.approx(2.0, rel=1e-12)
    for t in (0.05, 0.02, 0.01):
        quotient = (1.0 - (1.0 + 4.0 * t) ** -0.5) / t
        assert quotient == pytest.approx(2.0, abs=7.0 * t)


def test_cylinder_validation_catches_wrong_derivatives():
    bad_outer = OuterFunction(
        name="bad",
        fn=lambda v: v[..., 0] ** 2,
        grad=lambda v: np.array([1.0]),  # wrong: should be 2v
        hess=lambda v: np.array([[2.0]]),
    )
    with pytest.raises(ValueError, match="outer gradient"):
        CylinderFunction(bad_outer, (SmoothBump(1.0, (0.0,), 1.0),))


def test_generator_residual_linear_case():
    phi = SmoothBump(1.0, (0.0,), 1.0 / math.sqrt(2.0))
    F = CylinderFunction(outer_linear(1.0), (phi,))
    report = generator_residual(F, cfg([0.0]), (0.1, 0.05, 0.025), replicas=200000, seed=31)
    assert report.generator_value == pytest.approx(2.0, rel=1e-12)
    if report.verdict == "inconclusive":
        report = generator_residual(F, cfg([0.0]), (0.1, 0.05, 0.025), replicas=800000, seed=31)
    assert report.verdict == "pass", report


def test_generator_residual_thread_invariant_across_chunks():
    F = CylinderFunction(outer_linear(1.0), (SmoothBump(1.0, (0.0,), 0.7),))
    a = generator_residual(F, cfg([0.0, 0.4]), (0.1, 0.05), replicas=6000, seed=32, threads=1, chunk=1000)
    b = generator_residual(F, cfg([0.0, 0.4]), (0.1, 0.05), replicas=6000, seed=32, threads=3, chunk=1000)
    assert a.entries == b.entries and a.ratios == b.ratios


def test_invariance_and_generator_need_two_replicas():
    with pytest.raises(ValueError, match="replicas"):
        invariance_test(WindowedCount(1.0), dim=1, intensity=1.0, t=0.5, inner_radius=1.0, replicas=1, seed=0)
    F = CylinderFunction(outer_linear(1.0), (SmoothBump(1.0, (0.0,), 1.0),))
    with pytest.raises(ValueError, match="replicas"):
        generator_residual(F, cfg([0.0]), (0.1, 0.05), replicas=1, seed=0)


def test_generator_residual_reports_non_finite_replica():
    def fn(v):
        out = v[..., 0].copy()
        if out.shape[0] == 2:  # the ragged last chunk: replicas 8 and 9
            out[1] = np.nan
        return out

    outer = OuterFunction(name="nan", fn=fn, grad=lambda v: np.array([1.0]), hess=lambda v: np.zeros((1, 1)))
    F = CylinderFunction(outer, (SmoothBump(1.0, (0.0,), 1.0),), _check=False)
    with pytest.raises(EvaluationError, match="replica 9"):
        generator_residual(F, cfg([0.0]), (0.1, 0.05), replicas=10, seed=0, chunk=4)


def test_generator_residual_validates_t_list():
    phi = SmoothBump(1.0, (0.0,), 1.0)
    F = CylinderFunction(outer_linear(1.0), (phi,))
    with pytest.raises(ValueError):
        generator_residual(F, cfg([0.0]), (0.05, 0.1), replicas=100, seed=0)


# ---------------------------------------------------------------------------
# Feller probes


def test_feller_probe_trivial_schedule():
    bump = GaussianBump(0.5, (0.0,), 1.0)
    G = product_kernel(1, {1: 1.0}, bump)
    gamma = cfg([0.0, 1.0], radius=2.0)
    rep = feller_probe(G, gamma, [gamma, gamma, gamma], lambda a, b: 0.0, t=0.5)
    assert rep.passed and all(v == 0.0 for v in rep.value_gaps)
    assert rep.route == "kernel-lift closed form"


def test_feller_probe_shifted_point_schedule():
    from confheat.metrics import rho

    bump = GaussianBump(0.5, (0.0,), 1.0)
    G = product_kernel(1, {1: 1.0}, bump)
    gamma = cfg([0.0, 1.5], radius=4.0)
    perturbed = [cfg([2.0**-j, 1.5], radius=4.0) for j in range(1, 9)]
    rep = feller_probe(G, gamma, perturbed, rho, t=0.5, ratio_tol=1e-2)
    assert rep.passed, rep
    assert all(a > b for a, b in zip(rep.value_gaps, rep.value_gaps[1:]))


def test_feller_probe_rejects_non_monotone_schedule():
    bump = GaussianBump(0.5, (0.0,), 1.0)
    G = product_kernel(1, {1: 1.0}, bump)
    gamma = cfg([0.0], radius=2.0)
    bad = [cfg([0.5], radius=2.0), cfg([0.7], radius=2.0)]
    from confheat.metrics import rho

    with pytest.raises(ValueError, match="non-monotone"):
        feller_probe(G, gamma, bad, rho, t=0.5)

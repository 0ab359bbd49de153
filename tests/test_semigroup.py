import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from confheat.errors import CapabilityError, EvaluationError
from confheat.harmonic import k_transform, product_kernel, verify_d_class
from confheat.kernel import HeatKernelParams, tail_mass
from confheat.points import Configuration, uniform_ball
from confheat.profiles import GaussianBump, SmoothedIndicator
import confheat.rng
from confheat.rng import TAG_APPLY_MC, TAG_INVARIANCE, chunk_sizes, substream
from confheat.semigroup import (
    DEFAULT_CHUNK,
    ConfigurationFunctional,
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
    generator_exact,
    generator_residual,
    invariance_test,
    lift_kernel,
    outer_exp_neg_sum,
    outer_linear,
    outer_square,
)
from confheat.special import ball_volume


def cfg(points, dim=1, radius=None):
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    return Configuration.from_points(dim, pts, None, radius)


# ---------------------------------------------------------------------------
# apply_mc basics


def test_apply_mc_constant_is_exact():
    est = apply_mc(WindowedConstant(1.0), cfg([0.0, 1.0]), 0.5, replicas=100, seed=1)
    assert est.mean == 1.0 and est.std_error == 0.0
    assert est.replicas == 100 and est.seed == 1


def test_apply_mc_deterministic_and_thread_invariant():
    F = WindowedCount(1.0)
    gamma = cfg([0.0, 0.4, -0.8], radius=1.0)
    a = apply_mc(F, gamma, 0.3, replicas=9000, seed=5)
    b = apply_mc(F, gamma, 0.3, replicas=9000, seed=5)
    c = apply_mc(F, gamma, 0.3, replicas=9000, seed=5, threads=3)
    assert a.mean == b.mean == c.mean
    assert a.std_error == b.std_error == c.std_error
    d = apply_mc(F, gamma, 0.3, replicas=9000, seed=6)
    assert d.mean != a.mean


def test_apply_mc_moves_particles_in_place_without_touching_gamma():
    F = WindowedExponential(GaussianBump(-0.4, (0.1, -0.2), 0.9))
    gamma = Configuration.from_points(2, np.array([[0.0, 0.5], [-0.7, 0.2], [0.3, 0.3]]), np.array([1, 2, 1]), 2.0)
    positions, base = gamma.positions.copy(), gamma.expand()
    one = apply_mc(F, gamma, 0.4, replicas=5000, seed=12, chunk=1000)
    two = apply_mc(F, gamma, 0.4, replicas=5000, seed=12, threads=2, chunk=1000)
    assert np.array_equal(gamma.positions, positions) and np.array_equal(gamma.expand(), base)
    assert (one.mean, one.std_error) == (two.mean, two.std_error)

    def out_of_place(rng, m):
        disp = rng.standard_normal((m, base.shape[0], 2))
        return F.batch(base[None, :, :] + math.sqrt(0.8) * disp)[None, :]

    (mean,), (se,) = _chunked_mean_se(out_of_place, 5000, 12, TAG_APPLY_MC, 1, 1000)
    assert (one.mean, one.std_error) == (float(mean), float(se))


def test_apply_mc_count_matches_gaussian_ball_probability():
    gamma = cfg([0.0, 0.6], radius=1.0)
    t = 0.4
    sigma = math.sqrt(2.0 * t)
    R = 1.0
    expected = sum(
        ndtr((R - x) / sigma) - ndtr(-(R + x) / sigma) for x in [0.0, 0.6]
    )
    est = apply_mc(WindowedCount(R), gamma, t, replicas=40000, seed=7)
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


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_apply_mc_blocks_equal_whole_chunk_draws(monkeypatch, rows):
    # oracle: every chunk drawn and evaluated at once; the blocks must not change a bit
    gamma = cfg([[0.0, 0.5], [1.0, -0.2], [0.3, 0.3]], dim=2, radius=2.0)
    t, replicas, seed = 0.4, 9001, 31
    base, scale = gamma.expand(), math.sqrt(2.0 * t)
    functionals = [ExpFunctional(GaussianBump(-0.4, (0.2, 0.0), 0.8)).functional(), WindowedCount(1.0),
                   CylinderFunction(outer_exp_neg_sum(2), (SmoothBump(0.7, (0.0, 0.0), 0.6),
                                                           SmoothBump(0.5, (0.4, 0.1), 0.9)))]

    def whole_chunk(F):
        def sample(rng, m):
            moved = rng.standard_normal((m, base.shape[0], 2))
            moved *= scale
            moved += base
            return np.asarray(F.batch(moved), dtype=float)[None, :]

        return _chunked_mean_se(sample, replicas, seed, TAG_APPLY_MC, 1, DEFAULT_CHUNK)

    if rows:
        monkeypatch.setattr(confheat.rng, "BLOCK_POINTS", rows * base.size)
    for F in functionals:
        est = apply_mc(F, gamma, t, replicas, seed, threads=2)
        (mean,), (se,) = whole_chunk(F)
        assert (est.mean, est.std_error) == (float(mean), float(se))


def test_apply_mc_empty_configuration():
    est = apply_mc(WindowedCount(1.0), Configuration.empty(2), 0.5, replicas=50, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


def _segment_args(positions):
    m, n, dim = positions.shape
    return positions.reshape(m * n, dim), np.repeat(np.arange(m), n), m


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_functional_batch_agrees_with_segments(dim):
    # one family: batch over (replicas, particles, dim) and segments over the
    # concatenated particles give the same values, also for finite radii
    pos = substream(61, dim).uniform(-1.5, 1.5, size=(40, 7, dim))
    phi = GaussianBump(-0.5, (0.2,) * dim, 0.7)
    for F in (WindowedConstant(2.0), WindowedCount(1.0), WindowedExponential(phi, 1.0)):
        assert np.array_equal(F.batch(pos), F.segments(*_segment_args(pos))), F
    inside = np.linalg.norm(pos, axis=2) <= 1.0
    assert np.allclose(WindowedExponential(phi, 1.0).batch(pos),
                       np.prod(np.where(inside, 1.0 + phi(pos), 1.0), axis=1), rtol=1e-13, atol=0.0)
    # radius inf: the direct product along the particle axis, which the log-sum route matches
    F = ExpFunctional(phi).functional()
    assert F == WindowedExponential(phi) and F.radius == math.inf
    assert np.array_equal(F.batch(pos), np.prod(1.0 + phi(pos), axis=1))
    assert np.allclose(F.batch(pos), F.segments(*_segment_args(pos)), rtol=1e-13, atol=0.0)


def test_functional_radius_says_what_it_reads():
    G = product_kernel(1, {1: 1.0}, GaussianBump(0.5, (0.0,), 1.0))
    cyl = CylinderFunction(outer_linear(1.0), (SmoothBump(1.0, (0.0,), 1.0),))
    assert WindowedConstant().radius == 0.0 and WindowedCount(1.5).radius == 1.5
    for F in (KPolynomialFunctional(G), cyl):
        assert isinstance(F, ConfigurationFunctional) and F.radius == math.inf
        # they read every particle, so the invariance test, which draws only B(0, 1), refuses them
        with pytest.raises(ValueError, match="radius"):
            invariance_test(F, dim=1, intensity=1.0, t=0.5, inner_radius=1.0, replicas=100, seed=0)
    with pytest.raises(NotImplementedError):
        cyl.segments(np.zeros((2, 1)), np.array([0, 1]), 2)


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


def _displacement_oracle(rng, m, dim, intensity, t, radius):
    """The displacement sample with every Poisson draw written out: counts, then uniform positions, per family."""
    lam = intensity * ball_volume(dim, radius)
    scale = math.sqrt(2.0 * t)
    counts_a = rng.poisson(lam, size=m)
    starts = uniform_ball(rng, int(counts_a.sum()), dim, radius)
    ends_a = starts + scale * rng.standard_normal(starts.shape)
    counts_b = rng.poisson(lam, size=m)
    ends_b = uniform_ball(rng, int(counts_b.sum()), dim, radius)
    from_outside = np.sqrt(np.sum((ends_b + scale * rng.standard_normal(ends_b.shape)) ** 2, axis=1)) > radius
    idx_a = np.repeat(np.arange(m), counts_a)
    idx_b = np.repeat(np.arange(m), counts_b)[from_outside]
    return (starts, idx_a), (np.concatenate([ends_a, ends_b[from_outside]]), np.concatenate([idx_a, idx_b]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_displacement_sample_equals_written_out_draws(dim):
    for m, z, t, radius in [(1, 0.7, 0.2, 1.0), (300, 1.3, 0.4, 1.0), (50, 4.0, 2.0, 0.5)]:
        got = _displacement_sample(substream(42, dim), m, dim, z, t, radius)
        want = _displacement_oracle(substream(42, dim), m, dim, z, t, radius)
        for (pos, idx), (want_pos, want_idx) in zip(got, want):
            assert np.array_equal(pos, want_pos) and np.array_equal(idx, want_idx)


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


@pytest.mark.parametrize("outer, n", [(outer_linear(0.7), 1), (outer_linear(-2.0), 1), (outer_square(), 1),
                                      (outer_exp_neg_sum(1), 1), (outer_exp_neg_sum(2), 2), (outer_exp_neg_sum(8), 8)],
                         ids=lambda o: getattr(o, "name", None))
def test_outer_derivatives_match_central_differences(outer, n):
    # grad against central differences of fn, and hess against central differences of grad, step 1e-5
    rng = np.random.default_rng(n)
    h, eye = 1e-5, np.eye(n)
    for v in rng.uniform(-1.0, 1.0, (10, n)):
        grad_fd = np.array([(outer.fn(v + h * e) - outer.fn(v - h * e)) / (2.0 * h) for e in eye])
        # row j holds the derivative of grad along v_j, so column j of the Hessian
        hess_fd = np.array([(outer.grad(v + h * e) - outer.grad(v - h * e)) / (2.0 * h) for e in eye]).T
        scale = max(1.0, abs(float(outer.fn(v))))
        assert np.allclose(outer.grad(v), grad_fd, rtol=0.0, atol=1e-8 * scale), (outer.name, v)
        assert np.allclose(outer.hess(v), hess_fd, rtol=0.0, atol=1e-8 * scale), (outer.name, v)


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


def test_generator_residual_memory_is_a_few_blocks():
    # the t-list is moved in blocks of BLOCK_POINTS coordinates, so 400 particles hold a few blocks at once; a
    # whole (T, 4096, 400, 1) chunk held about 200 blocks
    F = CylinderFunction(outer_exp_neg_sum(1), (GaussianBump(0.01, (0.0,), 0.7),))
    gamma = Configuration.from_points(1, np.linspace(-1.0, 1.0, 400)[:, None], window_radius=2.0)
    tracemalloc.start()
    try:
        generator_residual(F, gamma, (0.1, 0.05, 0.025), replicas=5000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * confheat.rng.BLOCK_POINTS, peak


def test_invariance_and_generator_need_two_replicas():
    with pytest.raises(ValueError, match="replicas"):
        invariance_test(WindowedCount(1.0), dim=1, intensity=1.0, t=0.5, inner_radius=1.0, replicas=1, seed=0)
    F = CylinderFunction(outer_linear(1.0), (SmoothBump(1.0, (0.0,), 1.0),))
    with pytest.raises(ValueError, match="replicas"):
        generator_residual(F, cfg([0.0]), (0.1, 0.05), replicas=1, seed=0)


def test_generator_residual_reports_non_finite_replica():
    def fn(v):
        out = v[..., 0].copy()
        if out.shape[-1] == 2:  # the ragged last chunk: replicas 8 and 9, at every t
            out[..., 1] = np.nan
        return out

    outer = OuterFunction(name="nan", fn=fn, grad=lambda v: np.array([1.0]), hess=lambda v: np.zeros((1, 1)))
    F = CylinderFunction(outer, (SmoothBump(1.0, (0.0,), 1.0),))
    with pytest.raises(EvaluationError, match="replica 9"):
        generator_residual(F, cfg([0.0]), (0.1, 0.05), replicas=10, seed=0, chunk=4)


GENERATOR_EXACT_CASES = {
    # (outer, bump (amp, center, width), particles with multiplicities, t list)
    "linear-d1": (outer_linear(1.0), (1.0, (0.0,), 1.0 / math.sqrt(2.0)), [((0.0,), 1)], (0.1, 0.05, 0.025)),
    "linear-d2-multiple": (outer_linear(-0.7), (0.8, (0.2, -0.1), 0.6), [((0.0, 0.0), 2), ((0.5, -0.3), 1)],
                           (0.2, 0.1, 0.05)),
    "linear-d3": (outer_linear(2.0), (1.3, (0.0, 0.1, -0.2), 0.9), [((0.3, 0.0, 0.1), 1), ((-0.4, 0.2, 0.0), 3)],
                  (0.1, 0.05)),
    "square-d1": (outer_square(), (1.0, (0.0,), 1.0 / math.sqrt(2.0)), [((0.3,), 1), ((-0.5,), 1)],
                  (0.1, 0.05, 0.025)),
    "square-d1-multiple": (outer_square(), (-0.6, (0.4,), 0.5), [((0.0,), 3), ((0.6,), 2)], (0.08, 0.04)),
    "square-d2": (outer_square(), (0.9, (0.1, 0.0), 0.7), [((0.0, 0.0), 1), ((0.3, 0.2), 2), ((-0.6, 0.1), 1)],
                  (0.1, 0.05, 0.025)),
    "square-d3-multiple": (outer_square(), (1.1, (0.0, 0.0, 0.0), 0.8), [((0.2, -0.1, 0.0), 2)], (0.1, 0.05)),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_EXACT_CASES))
def test_generator_exact_agrees_with_monte_carlo(case):
    # the closed-form residuals against the Monte Carlo route at 4 SE (the exact side has none)
    outer, (amp, center, width), points, ts = GENERATOR_EXACT_CASES[case]
    dim = len(center)
    gamma = Configuration(dim, np.array([x for x, _ in points]), np.array([c for _, c in points]), 2.0)
    F = CylinderFunction(outer, (GaussianBump(amp, center, width),))
    exact = generator_exact(F, gamma, ts)
    mc = generator_residual(F, gamma, ts, replicas=200_000, seed=33)
    assert exact.generator_value == mc.generator_value
    assert [e.t for e in exact.entries] == list(ts)
    for e, m in zip(exact.entries, mc.entries):
        assert e.std_error is None and not e.inconclusive
        assert e.quotient - e.residual == pytest.approx(exact.generator_value, rel=1e-12)
        assert abs(e.residual - m.residual) <= 4.0 * m.std_error, (e.t, e.residual, m.residual, m.std_error)
    assert exact.ratios == tuple(a.residual / b.residual for a, b in zip(exact.entries, exact.entries[1:]))


def test_generator_exact_at_the_shipped_config():
    # the generator battery config: linear outer, one bump of width 1/sqrt(2) at 0, one particle at 0, where
    # P_t F = (1 + 4t)^(-1/2)
    phi = GaussianBump(1.0, (0.0,), 0.7071067811865476)
    report = generator_exact(CylinderFunction(outer_linear(), (phi,)), cfg([0.0]), (0.1, 0.05, 0.025))
    for e in report.entries:
        assert e.residual == pytest.approx((1.0 - (1.0 + 4.0 * e.t) ** -0.5) / e.t - 2.0, rel=1e-12)
    assert [round(e.residual, 5) for e in report.entries] == [-0.45154, -0.25742, -0.1385]
    assert [round(r, 3) for r in report.ratios] == [1.754, 1.859]
    assert report.verdict == "pass"


def test_generator_exact_needs_a_closed_form():
    F = CylinderFunction(outer_exp_neg_sum(1), (SmoothBump(1.0, (0.0,), 1.0),))
    with pytest.raises(CapabilityError, match="closed-form"):
        generator_exact(F, cfg([0.0]), (0.1, 0.05))
    with pytest.raises(ValueError):
        generator_exact(CylinderFunction(outer_square(), (SmoothBump(1.0, (0.0,), 1.0),)), cfg([0.0]), (0.05, 0.1))


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


def test_feller_probe_has_exact_routes_only():
    # a Monte Carlo functional has no route; its ExpFunctional takes the exact one
    gamma = cfg([0.0, 1.0], radius=2.0)
    ef = ExpFunctional(GaussianBump(-0.5, (0.0,), 1.0))
    with pytest.raises(CapabilityError, match="no evaluation route"):
        feller_probe(ef.functional(), gamma, [gamma], lambda a, b: 0.0, t=0.5)
    assert feller_probe(ef, gamma, [gamma], lambda a, b: 0.0, t=0.5).route == "exact exponential"


def test_feller_probe_rejects_non_monotone_schedule():
    bump = GaussianBump(0.5, (0.0,), 1.0)
    G = product_kernel(1, {1: 1.0}, bump)
    gamma = cfg([0.0], radius=2.0)
    bad = [cfg([0.5], radius=2.0), cfg([0.7], radius=2.0)]
    from confheat.metrics import rho

    with pytest.raises(ValueError, match="non-monotone"):
        feller_probe(G, gamma, bad, rho, t=0.5)

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confheat.errors import CapacityError
from confheat.harmonic import (
    IntegralSpec,
    KernelFunction,
    correlation_function,
    correlation_product_bound,
    elementary_symmetric,
    inverse_k_transform,
    k_transform,
    k_transform_finite,
    k_transform_product_batch,
    lebesgue_poisson_integral,
    permanent,
    permanent_bruteforce,
    permanent_kernel,
    product_kernel,
    star_convolution,
    star_kernel,
    transfer_expectation,
    verify_d_class,
)
from confheat.kernel import HeatKernelParams, density
from confheat.points import Configuration, Window
from confheat.profiles import BoxIndicator, ConstantProfile, GaussianBump
from confheat.rng import substream
from confheat.special import ball_volume


def simple_cfg(points, dim=1, radius=None):
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    return Configuration.from_points(dim, pts, None, radius)


def const_kernel(dim, orders, value=1.0, empty=0.0):
    return product_kernel(
        dim,
        {n: value for n in orders},
        {n: ConstantProfile(1.0, dim) for n in orders},
        value_at_empty=empty,
    )


def wavy_kernel(dim, max_order, seed):
    """Deterministic non-product kernel with pseudo-random smooth levels."""
    rng = substream(seed, 55)
    coefs = rng.uniform(-1.0, 1.0, size=max_order + 1)
    levels = {
        n: (lambda pts, c=coefs[n], k=n: float(c * math.sin(pts.sum() + k) + 0.3 * c))
        for n in range(1, max_order + 1)
    }
    return KernelFunction(dim=dim, max_order=max_order, value_at_empty=float(coefs[0]), levels=levels)


# ---------------------------------------------------------------------------
# K-transform


def test_k_transform_stated_examples():
    gamma5 = simple_cfg([0.0, 0.5, -0.5, 1.0, -1.0], radius=2.0)
    only_empty = const_kernel(1, [], empty=3.5)
    assert k_transform(only_empty, gamma5) == 3.5
    counts = const_kernel(1, [1])
    assert k_transform(counts, gamma5) == 5.0
    pairs = const_kernel(1, [2])
    assert k_transform(pairs, gamma5) == pytest.approx(math.comb(5, 2))


def test_k_transform_requires_simple():
    gamma = Configuration.from_points(1, [[0.0]], [2], 1.0)
    with pytest.raises(ValueError):
        k_transform(const_kernel(1, [1]), gamma)


def test_k_transform_capacity_guard():
    # subset enumeration (non-product kernels) over 2^33 - 1 subsets is refused
    gamma = simple_cfg(np.linspace(-1, 1, 33), radius=2.0)
    with pytest.raises(CapacityError):
        k_transform(wavy_kernel(1, 33, 5), gamma)


def test_k_transform_product_route_beyond_enumeration_capacity():
    gamma = simple_cfg(np.linspace(-1, 1, 33), radius=2.0)
    assert k_transform(const_kernel(1, list(range(1, 34))), gamma) == 2**33 - 1


def test_k_transform_product_route_matches_enumeration_random():
    rng = substream(8, 1)
    for trial in range(60):
        dim = 1 + trial % 3
        orders = sorted({int(k) for k in rng.integers(1, 6, size=int(rng.integers(1, 4)))})
        coeffs = {k: float(rng.uniform(0.1, 1.0)) for k in orders}
        bump = GaussianBump(float(rng.uniform(0.3, 1.2)), tuple(rng.uniform(-0.5, 0.5, dim)),
                            float(rng.uniform(0.6, 1.5)))
        G = product_kernel(dim, coeffs, bump, value_at_empty=float(rng.uniform(0.0, 0.5)))
        n = trial % 5 if trial < 10 else int(rng.integers(0, 9))  # n = 0 and orders above n
        gamma = simple_cfg(rng.uniform(-2, 2, size=(n, dim)), dim=dim, radius=2.0 * math.sqrt(dim) + 1)
        assert G.is_product
        want = k_transform_finite(G, gamma.positions)
        assert k_transform(G, gamma) == pytest.approx(want, rel=1e-12, abs=0.0), (trial, n, orders)


def test_k_transform_product_batch_matches_enumeration():
    rng = substream(7, 1)
    bump = GaussianBump(0.8, (0.2,), 1.1)
    G = product_kernel(1, {1: 0.7, 2: -0.4, 3: 0.2}, bump, value_at_empty=0.3)
    for _ in range(10):
        n = int(rng.integers(0, 7))
        pos = rng.uniform(-2, 2, size=(n, 1))
        batch = k_transform_product_batch(G, pos[None, :, :])[0]
        direct = k_transform_finite(G, pos)
        assert batch == pytest.approx(direct, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shared", [True, False])
def test_k_transform_product_batch_bitwise_as_one_table_per_level(shared):
    rng = substream(7, 2)
    bump = GaussianBump(0.8, (0.2, -0.1), 1.1)
    profiles = bump if shared else {1: bump, 2: GaussianBump(0.5, (0.0, 0.3), 0.7), 3: bump}
    G = product_kernel(2, {1: 0.7, 2: -0.4, 3: 0.2}, profiles, value_at_empty=0.3)
    pos = rng.uniform(-2, 2, size=(200, 6, 2))
    want = np.full(200, 0.3)
    for order in (1, 2, 3):
        want += G.coeffs[order] * elementary_symmetric(G.profiles[order](pos), order)[:, order]
    assert np.array_equal(k_transform_product_batch(G, pos), want)


# ---------------------------------------------------------------------------
# inverse K-transform


def test_inverse_k_transform_alternating_sum_examples():
    ones = lambda pts: 1.0
    assert inverse_k_transform(ones, np.zeros((0, 1))) == 1.0
    assert inverse_k_transform(ones, np.array([[0.4]])) == 0.0
    assert inverse_k_transform(ones, np.array([[0.4], [1.0]])) == 0.0
    card = lambda pts: float(len(pts))
    assert inverse_k_transform(card, np.array([[0.4]])) == 1.0
    assert inverse_k_transform(card, np.array([[0.4], [1.0]])) == 0.0


def test_inverse_k_transform_capacity():
    with pytest.raises(CapacityError):
        inverse_k_transform(lambda pts: 1.0, np.zeros((26, 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 10_000))
def test_inverse_of_k_transform_is_identity(n, seed):
    G = wavy_kernel(1, 4, seed)
    rng = substream(seed, 77)
    pts = rng.uniform(-2.0, 2.0, size=(n, 1))
    F = lambda sub: k_transform_finite(G, sub)
    got = inverse_k_transform(F, pts)
    want = G.value_at_empty if n == 0 else G.value(pts)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# star convolution


def test_star_convolution_empty_and_singleton():
    G1 = wavy_kernel(1, 3, 1)
    G2 = wavy_kernel(1, 3, 2)
    assert star_convolution(G1, G2, np.zeros((0, 1))) == pytest.approx(
        G1.value_at_empty * G2.value_at_empty
    )
    x = np.array([[0.7]])
    expected = (
        G1.value(x) * G2.value_at_empty
        + G1.value(x) * G2.value(x)
        + G1.value_at_empty * G2.value(x)
    )
    assert star_convolution(G1, G2, x) == pytest.approx(expected, rel=1e-12)


def test_star_convolution_capacity():
    G = wavy_kernel(1, 2, 3)
    with pytest.raises(CapacityError):
        star_convolution(G, G, np.zeros((13, 1)))


def test_star_product_rule_random_instances():
    rng = substream(12, 9)
    for trial in range(40):
        G1 = wavy_kernel(1, 2, 100 + trial)
        G2 = wavy_kernel(1, 2, 200 + trial)
        n = int(rng.integers(0, 7))
        gamma = simple_cfg(rng.uniform(-2, 2, size=(n, 1)), radius=3.0)
        lhs = k_transform(star_kernel(G1, G2), gamma)
        rhs = k_transform(G1, gamma) * k_transform(G2, gamma)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# permanents


def test_permanent_kernel_base_cases():
    assert permanent_kernel(np.zeros((0, 1)), np.zeros((0, 1)), 0.5) == 1.0
    assert permanent_kernel(np.array([[0.0]]), np.zeros((0, 1)), 0.5) == 0.0
    x, y = np.array([[0.2]]), np.array([[1.0]])
    assert permanent_kernel(x, y, 0.5) == pytest.approx(
        density(HeatKernelParams(1, 0.5), [0.2], [1.0]), rel=1e-12
    )


def test_permanent_vs_bruteforce_random():
    rng = substream(13, 2)
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            m = rng.uniform(0.0, 1.0, size=(n, n))
            assert permanent(m) == pytest.approx(permanent_bruteforce(m), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        )
    )
)
def test_permanent_vs_bruteforce_hypothesis(flat):
    n = int(math.isqrt(len(flat)))
    m = np.array(flat).reshape(n, n)
    assert permanent(m) == pytest.approx(permanent_bruteforce(m), rel=1e-9, abs=1e-9)


def test_permanent_rectangular_vs_enumeration_random():
    # rectangular sums through correlation_function: up to 9 rows (points) and 5 columns (marks)
    rng = substream(13, 4)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        gamma = simple_cfg(rng.uniform(-2, 2, size=(int(rng.integers(n, 10)), 1)), radius=3.0)
        theta = rng.uniform(-2, 2, size=(n, 1))
        t = float(rng.uniform(0.1, 1.5))
        assert correlation_function(gamma, theta, t) == pytest.approx(
            correlation_function(gamma, theta, t, method="enumerate"), rel=1e-10
        )


def test_permanent_rank_one_closed_form():
    # per(a b^T) over 30 rows and 8 columns = 8! * e_8(a) * prod(b)
    rng = substream(13, 5)
    a = rng.uniform(0.2, 1.0, size=30)
    b = rng.uniform(0.2, 1.0, size=8)
    expected = math.factorial(8) * elementary_symmetric(a, 8)[8] * float(np.prod(b))
    assert permanent(np.outer(a, b)) == pytest.approx(expected, rel=1e-12)


def test_permanent_accuracy_against_exact_rationals():
    # Ryser's formula in exact rational arithmetic; floats are binary fractions, so this
    # is the exact permanent of the float matrix
    rng = substream(13, 6)
    m = rng.uniform(0.0, 1.0, size=(10, 10))
    rows = [[Fraction(x) for x in row] for row in m]
    reference = Fraction(0)
    for mask in range(1, 1 << 10):
        cols = [j for j in range(10) if mask >> j & 1]
        term = math.prod(sum(row[j] for j in cols) for row in rows)
        reference += term if len(cols) % 2 == 0 else -term
    assert abs(Fraction(permanent(m)) - reference) <= Fraction(1, 10**14) * reference


def test_permanent_kernel_vs_naive_points():
    rng = substream(13, 3)
    eta = rng.uniform(-1, 1, size=(4, 2))
    theta = rng.uniform(-1, 1, size=(4, 2))
    p = HeatKernelParams(2, 0.7)
    m = np.array([[density(p, a, b) for b in theta] for a in eta])
    assert permanent_kernel(eta, theta, 0.7) == pytest.approx(permanent_bruteforce(m), rel=1e-10)


def test_permanent_capacity():
    with pytest.raises(CapacityError):
        permanent(np.eye(25))


# ---------------------------------------------------------------------------
# correlation functions


def test_correlation_first_order_is_row_sum():
    gamma = simple_cfg([0.0, 1.0, -0.7], radius=2.0)
    y = np.array([[0.3]])
    p = HeatKernelParams(1, 0.4)
    expected = sum(density(p, x, y[0]) for x in gamma.positions)
    assert correlation_function(gamma, y, 0.4) == pytest.approx(expected, rel=1e-12)


def test_correlation_second_order_two_points():
    gamma = simple_cfg([0.0, 1.0], radius=2.0)
    theta = np.array([[0.2], [0.9]])
    p = HeatKernelParams(1, 0.3)
    x1, x2 = gamma.positions
    y1, y2 = theta
    expected = density(p, x1, y1) * density(p, x2, y2) + density(p, x2, y1) * density(p, x1, y2)
    assert correlation_function(gamma, theta, 0.3) == pytest.approx(expected, rel=1e-12)


def test_correlation_methods_agree():
    rng = substream(14, 5)
    gamma = simple_cfg(rng.uniform(-2, 2, size=(6, 1)), radius=3.0)
    theta = rng.uniform(-1.5, 1.5, size=(3, 1))
    a = correlation_function(gamma, theta, 0.5, method="enumerate")
    b = correlation_function(gamma, theta, 0.5, method="inclusion_exclusion")
    assert a == pytest.approx(b, rel=1e-9)


def test_correlation_more_marks_than_points_is_zero():
    gamma = simple_cfg([0.0], radius=1.0)
    assert correlation_function(gamma, np.array([[0.1], [0.2]]), 0.5) == 0.0


def test_correlation_capacity_is_the_permanent_cap():
    gamma = simple_cfg(np.linspace(-10, 10, 30))
    theta = np.linspace(-3, 3, 8).reshape(-1, 1)
    val = correlation_function(gamma, theta, 0.5)
    assert 0.0 < val <= correlation_product_bound(gamma, theta, 0.5)
    with pytest.raises(CapacityError):
        correlation_function(gamma, np.linspace(-3, 3, 25).reshape(-1, 1), 0.5)


def test_correlation_capacity_bounds_work_not_marks():
    # 400 points x 24 marks is 400 * 24 * 2^23 multiply-adds: refused before any table is built
    gamma = simple_cfg(np.linspace(-10, 10, 400))
    theta = np.linspace(-3, 3, 24).reshape(-1, 1)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        correlation_function(gamma, theta, 0.5)
    assert time.perf_counter() - start < 5.0


def test_correlation_skips_points_whose_heat_rows_underflow():
    gamma = simple_cfg([0.0, 1.0, -0.7, 2.0])
    theta = np.array([[0.3], [-0.2], [1.1]])
    val = correlation_function(gamma, theta, 0.5)
    # exp(-1000^2 / 2) underflows to 0: the far points' heat-kernel rows are all zero
    far = simple_cfg([0.0, 1.0, -0.7, 2.0, 1000.0, -1000.0, 1200.0])
    assert correlation_function(far, theta, 0.5) == val


def test_correlation_bound_and_symmetry():
    rng = substream(14, 6)
    for _ in range(20):
        gamma = simple_cfg(rng.uniform(-2, 2, size=(5, 1)), radius=3.0)
        theta = rng.uniform(-2, 2, size=(3, 1))
        val = correlation_function(gamma, theta, 0.6)
        assert val <= correlation_product_bound(gamma, theta, 0.6) * (1 + 1e-12)
        perm = theta[[2, 0, 1]]
        assert correlation_function(gamma, perm, 0.6) == pytest.approx(val, rel=1e-11)


# ---------------------------------------------------------------------------
# Lebesgue-Poisson integration


def test_lp_integral_constant_empty_level():
    G = const_kernel(1, [], empty=1.0)
    res = lebesgue_poisson_integral(G, Window(1.0, 1.0), n_max=5)
    assert res.value == 1.0 and res.remainder_bound == 0.0


def test_lp_integral_indicator_first_order():
    R, z = 1.5, 2.0
    box = BoxIndicator(1.0, (-R,), (R,))
    G = product_kernel(1, {1: 1.0}, box)
    res = lebesgue_poisson_integral(G, Window(R, z), n_max=3)
    assert res.value == pytest.approx(z * 2 * R, rel=1e-9)


def test_lp_integral_exponential_series():
    # G^(n) = 1 on all orders: partial sums approach exp(z * vol)
    z, R, N = 1.0, 1.0, 14
    G = const_kernel(1, list(range(1, N + 1)), empty=1.0)
    res = lebesgue_poisson_integral(G, Window(R, z), n_max=N)
    lam = z * ball_volume(1, R)
    assert res.value == pytest.approx(math.exp(lam), rel=1e-8)


def test_lp_integral_generic_quadrature_and_mc():
    # level n is c_n (sin(x_1 + ... + x_n + n) + 0.3); over [-1, 1]^n the sine
    # integrates to Im(e^{in} (2 sin 1)^n), so order n is
    # c_n ((2 sin 1)^n sin n + 0.3 * 2^n) / n!
    rng_kernel = wavy_kernel(1, 4, 321)
    res = lebesgue_poisson_integral(rng_kernel, Window(1.0, 1.0), n_max=4, spec=IntegralSpec(mc_samples=4000))
    c = substream(321, 55).uniform(-1.0, 1.0, size=5)
    exact = [c[n] * ((2.0 * math.sin(1.0)) ** n * math.sin(n) + 0.3 * 2.0**n) / math.factorial(n)
             for n in range(1, 5)]
    assert res.per_order[0] == c[0]
    # orders 1-3 by tensor quadrature
    assert res.per_order[1:4] == pytest.approx(exact[:3], rel=0.0, abs=1e-12)
    # order 4 went through Monte Carlo; its standard error appears in the estimate
    assert res.error_estimate > 0.0
    assert abs(res.per_order[4] - exact[3]) <= 4.0 * res.error_estimate


def test_lp_integral_remainder_bound_and_warning():
    bump = GaussianBump(0.5, (0.0,), 0.8)
    G = product_kernel(1, {1: 1.0, 2: 1.0, 3: 1.0}, bump, d_class="auto")
    res = lebesgue_poisson_integral(G, Window(2.0, 1.0), n_max=2)
    assert res.remainder_bound > 0.0
    # true dropped order-3 term is below the bound
    full = lebesgue_poisson_integral(G, Window(2.0, 1.0), n_max=3)
    assert abs(full.value - res.value) <= res.remainder_bound
    no_cert = product_kernel(1, {1: 1.0, 2: 1.0, 3: 1.0}, bump)
    res2 = lebesgue_poisson_integral(no_cert, Window(2.0, 1.0), n_max=2)
    assert any("unbounded remainder" in w for w in res2.warnings)


# ---------------------------------------------------------------------------
# transfer identity plumbing and certificates


def test_transfer_expectation_matches_convolution_route():
    from confheat.semigroup import lift_kernel

    gamma = simple_cfg([0.0, 0.8, -1.2], radius=2.0)
    bump = GaussianBump(0.6, (0.1,), 0.9)
    G = product_kernel(1, {1: 1.0, 2: 0.5}, bump, value_at_empty=0.2)
    t = 0.4
    quadrature_side = transfer_expectation(G, gamma, t)
    lifted = lift_kernel(G, t)
    convolution_side = k_transform(lifted, gamma)
    assert quadrature_side == pytest.approx(convolution_side, rel=1e-9)


def test_transfer_expectation_order_four_matches_convolution_route():
    from confheat.semigroup import lift_kernel

    gamma = simple_cfg([0.0, 0.8, -1.2, 1.9, -0.4], radius=3.0)
    bump = GaussianBump(0.6, (0.1,), 0.9)
    G = product_kernel(1, {1: 1.0, 2: 0.5, 3: -0.7, 4: 0.3}, bump, value_at_empty=0.2)
    t = 0.4
    assert transfer_expectation(G, gamma, t) == pytest.approx(k_transform(lift_kernel(G, t), gamma), rel=1e-9)


def test_transfer_identity_mc_vs_quadrature():
    # E over one heat step of KG equals the correlation-side integral, checked
    # with an independent Monte Carlo left side (4 SE)
    from confheat.semigroup import KPolynomialFunctional, apply_mc

    gamma = simple_cfg([0.0, 0.8, -1.2, 1.9], radius=3.0)
    bump = GaussianBump(0.6, (0.1,), 0.9)
    G = product_kernel(1, {1: 1.0, 2: 0.5}, bump, value_at_empty=0.2)
    t = 0.4
    rhs = transfer_expectation(G, gamma, t)
    est = apply_mc(KPolynomialFunctional(G), gamma, t, replicas=100_000, seed=91)
    assert abs(est.mean - rhs) <= 4 * est.std_error


def test_verify_d_class_auto_certificate_holds():
    bump = GaussianBump(0.7, (0.0, 0.0), 1.0)
    G = product_kernel(2, {1: 1.0, 2: 0.8}, bump, d_class="auto")
    ok, worst = verify_d_class(G, G.d_class, seed=3)
    assert ok and worst <= 1.0


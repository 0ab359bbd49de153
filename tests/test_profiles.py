import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e

from confheat import profiles
from confheat.errors import CapabilityError, SolverError
from confheat.profiles import (
    BoxIndicator,
    ConstantProfile,
    GaussianBump,
    SmoothedIndicator,
)


def gauss_density(y, x, var):
    return np.exp(-((y - x) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_bump_value_and_laplacian_bitwise_as_coordinate_reduce(dim):
    rng = np.random.default_rng(40 + dim)
    bump = GaussianBump(-0.7, tuple(rng.standard_normal(dim)), 1.3)
    c = np.asarray(bump.center)
    for shape in [(dim,), (50, dim), (20, 11, dim)]:
        x = 3.0 * rng.standard_normal(shape)
        sq = np.sum((x - c) ** 2, axis=-1)
        value = bump.amp * np.exp(-sq / (2.0 * bump.width**2))
        assert np.array_equal(bump(x), value)
        assert np.array_equal(bump.laplacian(x), value * (sq / bump.width**4 - dim / bump.width**2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_bump_derivatives_match_central_differences(dim):
    # the closed-form gradient and Laplacian against central differences whose step scales with the width
    # (1e-5 w for the gradient, 1e-3 w for the second differences), at points within 1.5 widths of the
    # centre, to 1e-5 of amp/w and amp/w^2
    rng = np.random.default_rng(60 + dim)
    eye = np.eye(dim)
    for width in (2.0, 0.5, 0.1, 0.01, 1e-3):
        for amp in (1.3, -0.7):
            bump = GaussianBump(amp, tuple(rng.uniform(-1.0, 1.0, dim)), width)
            u = rng.standard_normal((20, dim))
            u *= rng.uniform(0.0, 1.5, (20, 1)) / np.linalg.norm(u, axis=1, keepdims=True)
            x = np.asarray(bump.center) + width * u
            h = 1e-5 * width
            grad_fd = np.stack([(bump(x + h * e) - bump(x - h * e)) / (2.0 * h) for e in eye], axis=-1)
            assert np.max(np.abs(bump.gradient(x) - grad_fd)) <= 1e-5 * abs(amp) / width, (width, amp)
            h = 1e-3 * width
            lap_fd = sum((bump(x + h * e) - 2.0 * bump(x) + bump(x - h * e)) / h**2 for e in eye)
            assert np.max(np.abs(bump.laplacian(x) - lap_fd)) <= 1e-5 * abs(amp) / width**2, (width, amp)


def test_gaussian_bump_convolution_matches_quadrature_1d():
    bump = GaussianBump(0.7, (0.4,), 0.9)
    conv = bump.heat_convolve(0.6)
    for x in (-1.0, 0.0, 0.4, 2.0):
        ref, _ = quad(lambda y: float(bump(np.array([y]))) * gauss_density(y, x, 1.2), -30, 30)
        assert conv(np.array([x])) == pytest.approx(ref, rel=1e-10)


def test_gaussian_bump_convolution_matches_grid_2d():
    bump = GaussianBump(-0.5, (0.2, -0.1), 1.1)
    t = 0.4
    conv = bump.heat_convolve(t)
    grid = np.linspace(-8, 8, 801)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([xx, yy], axis=-1)
    step = grid[1] - grid[0]
    for x0 in ([0.0, 0.0], [1.0, -0.5]):
        dens = np.exp(-np.sum((pts - np.asarray(x0)) ** 2, axis=-1) / (4 * t)) / (4 * math.pi * t)
        ref = float(np.sum(bump(pts) * dens)) * step * step
        assert conv(np.asarray(x0)) == pytest.approx(ref, abs=1e-7)


def test_box_indicator_convolution_matches_quadrature():
    box = BoxIndicator(0.8, (-1.0,), (0.5,))
    t = 0.3
    erf_box = box.heat_convolve(t)
    for x in (-2.0, -0.5, 0.0, 1.5):
        ref, _ = quad(lambda y: float(box(np.array([y]))) * gauss_density(y, x, 2 * t), -10, 10)
        assert erf_box(np.array([x])) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_erf_box_two_step_additivity():
    box = BoxIndicator(1.0, (-1.0, 0.0), (1.0, 2.0))
    once = box.heat_convolve(0.7)
    twice = box.heat_convolve(0.3).heat_convolve(0.4)
    pts = np.array([[0.0, 1.0], [2.0, -1.0], [-0.3, 0.4]])
    assert np.allclose(once(pts), twice(pts), rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_smoothed_indicator_convolution_vs_grid(dim):
    prof = SmoothedIndicator(-0.6, 1.0, 0.3, dim)
    t = 0.4
    conv = prof.heat_convolve(t)
    n = {1: 20001, 2: 701, 3: 121}[dim]
    lim = 6.0
    axes = [np.linspace(-lim, lim, n)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    step = axes[0][1] - axes[0][0]
    x0 = np.zeros(dim)
    x0[0] = 0.7
    dens = np.exp(-np.sum((pts - x0) ** 2, axis=-1) / (4 * t)) * (4 * math.pi * t) ** (-dim / 2)
    ref = float(np.sum(prof(pts) * dens)) * step**dim
    tol = {1: 1e-8, 2: 1e-5, 3: 1e-4}[dim]
    assert conv(x0) == pytest.approx(ref, abs=tol)


def test_smoothed_indicator_range_and_shape():
    prof = SmoothedIndicator(-0.5, 1.0, 0.2, 2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    vals = prof(pts)
    assert -0.5 <= vals.min() and vals.max() <= 0.0
    assert vals[0] == pytest.approx(-0.5, abs=1e-4)
    assert vals[1] == pytest.approx(-0.25, rel=1e-12)
    assert abs(vals[2]) < 1e-4


def test_constant_profile_heat_invariant():
    prof = ConstantProfile(2.5, 3)
    assert prof.heat_convolve(1.0) is prof
    assert prof(np.zeros((4, 3))).tolist() == [2.5] * 4


def test_radial_convolution_unsupported_dimension():
    prof = SmoothedIndicator(-0.5, 1.0, 0.2, 4)
    conv = prof.heat_convolve(0.5)
    with pytest.raises(CapabilityError):
        conv(np.zeros((1, 4)))


def test_radial_convolution_d3_near_origin_matches_origin():
    conv = SmoothedIndicator(-0.6, 1.0, 0.3, 3).heat_convolve(0.4)
    at_origin = float(conv(np.zeros(3)))
    for r in (1e-12, 1e-10, 1e-8):
        assert abs(float(conv(np.array([r, 0.0, 0.0]))) - at_origin) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [1.0, 1.2])
def test_radial_convolution_small_time_matches_laplacian(dim, r):
    # p_t * phi = phi + t Laplacian(phi) + O(t^2); at t = 1e-4 the kernel is a spike of width 0.014
    amp, radius, width, t = -0.6, 1.0, 0.3, 1.0e-4
    prof = SmoothedIndicator(amp, radius, width, dim)
    x = np.zeros(dim)
    x[0] = r
    th = math.tanh((r - radius) / width)
    d1 = -amp * (1.0 - th * th) / (2.0 * width)
    d2 = amp * th * (1.0 - th * th) / width**2
    expected = float(prof(x)) + t * (d2 + (dim - 1) * d1 / r)
    assert abs(float(prof.heat_convolve(t)(x)) - expected) <= 1e-5


def test_decay_bounds_dominate_profiles():
    rng = np.random.default_rng(5)
    bump = GaussianBump(0.9, (0.5,), 1.2)
    box = BoxIndicator(0.8, (-1.0,), (2.0,))
    for prof in (bump, box):
        c = prof.decay_bound(1.0)
        xs = rng.uniform(-6, 6, size=(300, 1))
        vals = np.abs(prof(xs))
        bound = c * np.exp(-2.0 * np.abs(xs[:, 0]))
        assert np.all(vals <= bound * (1 + 1e-12))


# ---------------------------------------------------------------------------
# the radial heat convolution against two oracles


def _window(t, r):
    half = 14.0 * np.sqrt(2.0 * t)
    return np.maximum(r - half, 0.0), r + half


def _gauss_legendre_radial(prof, t, radii):
    """(p_t * phi) at each radius by composite 20-point Gauss-Legendre over the
    kernel's window, cut at radius +- 40 width into three pieces of 100 equal
    panels each, so both the kernel and the indicator's transition are resolved
    however wide the window.  The d = 1 and d = 3 kernels are written as image
    sums, not in the library's folded forms; d = 2 shares the library's form."""
    v = 2.0 * t
    r = np.asarray(radii, dtype=float)[:, None, None]
    lo, hi = _window(t, r)
    margin = 40.0 * prof.width
    edges = np.clip(prof.radius + np.array([-np.inf, -margin, margin, np.inf]), lo[..., 0], hi[..., 0])
    nodes, weights = np.polynomial.legendre.leggauss(20)
    panels = np.linspace(edges[:, :-1], edges[:, 1:], 101, axis=-1).reshape(len(r), -1)
    a, b = panels[:, :-1], panels[:, 1:]  # the pieces' shared edges make zero-width panels, worth 0
    half = ((b - a) / 2)[..., None]
    u = a[..., None] + half * (nodes + 1.0)
    g = np.exp(-((u - r) ** 2) / (2 * v))
    if prof.ndim == 1:
        k = (g + np.exp(-((u + r) ** 2) / (2 * v))) / math.sqrt(2 * math.pi * v)
    elif prof.ndim == 2:
        k = u / v * g * i0e(u * r / v)
    else:
        k = u / (r * math.sqrt(2 * math.pi * v)) * g * -np.expm1(-2 * u * r / v)
    return np.sum(half * prof.radial(u) * k * weights, axis=(1, 2))


def _quad_radial(prof, t, radii):
    """The per-point QUADPACK route the batched rule replaced."""
    kernel = profiles._RADIAL_HEAT_KERNELS[prof.ndim]
    return np.array([quad(lambda u: float(prof.radial(u) * kernel(u, r, 2.0 * t)), *map(float, _window(t, r)),
                          epsabs=1e-11, epsrel=1e-12, limit=400)[0] for r in radii])


def _random_case(rng, min_width):
    dim = int(rng.integers(1, 4))
    t = math.exp(rng.uniform(math.log(1e-4), math.log(500.0)))
    width = math.exp(rng.uniform(math.log(min_width), 0.0))
    prof = SmoothedIndicator(rng.uniform(-1.0, 1.0), rng.uniform(0.2, 3.0), width, dim)
    x = rng.standard_normal((30, dim))
    x *= (6.0 * rng.random(30) ** (1.0 / dim) / np.linalg.norm(x, axis=1))[:, None]
    return prof, t, x


def test_radial_convolution_large_t_sees_narrow_indicator():
    # a window of radius 396 around an indicator of width 0.01: one rule over the window sees no node on it
    prof = SmoothedIndicator(-0.5, 0.3, 0.01, 1)
    got = float(prof.heat_convolve(400.0)(np.array([0.5])))
    ref = float(_gauss_legendre_radial(prof, 400.0, [0.5])[0])
    assert ref == pytest.approx(-4.230681e-3, abs=1e-9)
    assert abs(got - ref) <= 1e-10


def test_radial_convolution_matches_gauss_legendre_on_random_draws():
    rng = np.random.default_rng(15)
    cases = [_random_case(rng, 1e-3) for _ in range(96)]
    # a transition of width 1e-3 at radius 1.5 seen from |x| = 3.57 at t = 5: a rule that does not
    # cut the window at the transition misses it by more than 1e-10
    cases.append((SmoothedIndicator(0.8, 1.5, 1e-3, 2), 5.0, np.array([[3.57, 0.0], [2.5, 2.5], [0.0, 1.5]])))
    for prof, t, x in cases:
        got = prof.heat_convolve(t)(x)
        gap = np.max(np.abs(got - _gauss_legendre_radial(prof, t, np.linalg.norm(x, axis=1))))
        assert gap <= 1e-10, (prof, t, gap)


def test_radial_convolution_matches_quad_on_smooth_profiles():
    rng = np.random.default_rng(16)
    for _ in range(20):
        prof, t, x = _random_case(rng, 0.3)
        x = x[:8]
        gap = np.max(np.abs(prof.heat_convolve(t)(x) - _quad_radial(prof, t, np.linalg.norm(x, axis=1))))
        assert gap <= 1e-14, (prof, t, gap)


def test_radial_convolution_raises_when_tolerance_unreachable(monkeypatch):
    conv = SmoothedIndicator(-0.6, 1.0, 0.3, 2).heat_convolve(0.4)
    monkeypatch.setattr(profiles, "_QUAD_ABS_TOL", 1e-30)
    with pytest.raises(SolverError):
        conv(np.array([[0.5, 0.5], [2.0, 0.0]]))


def test_radial_convolution_raises_when_rounding_exceeds_tolerance():
    # at |value| near 2e5 the rounding floor 50 eps |value| is 2.2e-9, above the 1e-10 gate
    with pytest.raises(SolverError):
        SmoothedIndicator(-1.0e6, 1.0, 0.3, 2).heat_convolve(0.4)(np.ones(2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_convolution_keeps_input_shape(dim):
    conv = SmoothedIndicator(-0.6, 1.0, 0.3, dim).heat_convolve(0.4)
    x = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(2, 75, dim))  # more points than one block
    single = np.array([[float(conv(p)) for p in row] for row in x])
    assert conv(x[0, 0]).shape == ()
    assert conv(x[0]).shape == (75,)
    got = conv(x)
    assert got.shape == (2, 75)
    np.testing.assert_allclose(got, single, rtol=1e-14, atol=0.0)


def test_gk21_rule_is_exact_on_polynomials():
    nodes, weights = profiles._GK21_NODES, profiles._GK21_WEIGHTS
    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(nodes**k @ weights[:, 0] - exact) <= 1e-15
        if k < 20:
            assert abs(nodes**k @ weights[:, 1] - exact) <= 1e-15
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(10)
    used = weights[:, 1] > 0
    np.testing.assert_allclose(nodes[used], gauss_nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(weights[used, 1], gauss_weights, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_radial_convolution_rejects_nonpositive_time(t):
    # t = 0 used to return 0 at every point and t < 0 a bare math domain error
    with pytest.raises(ValueError, match="t must be a positive finite real"):
        SmoothedIndicator(-0.5, 1.0, 0.2, 2).heat_convolve(t)

import math

import numpy as np
import pytest
from scipy.integrate import quad

from confheat.errors import CapabilityError
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

import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from confheat.kernel import HeatKernelParams, tail_mass, tau
from confheat.special import ball_volume, exp_radial_integral, last_axis_sum, sphere_area, sq_dist

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# At t = 1/4 the tail mass in R^d is Q(d/2, r^2): the closed forms below are
# Q(1/2, z) = erfc(sqrt z), Q(1, z) = e^-z and Q(3/2, z) = erfc(sqrt z) + 2 sqrt(z/pi) e^-z.
QUARTER = 0.25


@pytest.mark.parametrize("z", [1e-6, 0.01, 0.3, 1.0, 2.5, 10.0, 40.0])
def test_gamma_q_half_is_erfc(z):
    r = math.sqrt(z)
    assert tail_mass(HeatKernelParams(1, QUARTER), r) == pytest.approx(math.erfc(r), rel=1e-12)


@pytest.mark.parametrize("z", [0.0, 0.4, 1.0, 3.7, 25.0])
def test_gamma_q_one_is_exp(z):
    r = math.sqrt(z)
    assert tail_mass(HeatKernelParams(2, QUARTER), r) == pytest.approx(math.exp(-r * r), rel=1e-13)


@pytest.mark.parametrize("z", [0.1, 1.0, 4.0, 16.0])
def test_gamma_q_three_halves_closed_form(z):
    r = math.sqrt(z)
    expected = math.erfc(r) + 2.0 * r / math.sqrt(math.pi) * math.exp(-r * r)
    assert tail_mass(HeatKernelParams(3, QUARTER), r) == pytest.approx(expected, rel=1e-12)


@mpmath.workdps(40)
def test_tail_mass_and_radial_integral_against_mpmath():
    rng = np.random.default_rng(20)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        t, r = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 12.0))
        z = mpmath.mpf(r) ** 2 / (4 * mpmath.mpf(t))
        exact = mpmath.gammainc(mpmath.mpf(d) / 2, z, mpmath.inf, regularized=True)
        assert tail_mass(HeatKernelParams(d, t), r) == pytest.approx(float(exact), rel=1e-12)
        alpha, radius = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.01, 10.0))
        area = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
        exact = area * mpmath.gammainc(d, 0, alpha * mpmath.mpf(radius)) / mpmath.mpf(alpha) ** d
        assert exp_radial_integral(alpha, d, radius) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_mass_array_matches_scalar_calls(dim):
    params = HeatKernelParams(dim, 0.7)
    radii = np.random.default_rng(dim).uniform(0.0, 12.0, size=(40, 5))
    values = tail_mass(params, radii)
    assert isinstance(values, np.ndarray) and values.shape == radii.shape
    assert np.array_equal(values, [[tail_mass(params, float(r)) for r in row] for row in radii])
    assert np.array_equal(tau(dim, 0.7, radii), values)
    assert type(tail_mass(params, 1.5)) is float and type(tau(dim, 0.7, np.float64(1.5))) is float


def test_gamma_rejects_bad_inputs():
    params = HeatKernelParams(1, 1.0)
    for bad in (-0.5, math.nan, math.inf, [0.5, -0.5], np.array([[1.0], [math.nan]])):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            tail_mass(params, bad)
    with pytest.raises(ValueError):
        HeatKernelParams(0, 1.0)
    with pytest.raises(ValueError):
        exp_radial_integral(1.0, 2, -1.0)


def test_ball_volume_low_dims():
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert ball_volume(2, 3.0) == pytest.approx(9.0 * math.pi)


def test_sphere_area_low_dims():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


@pytest.mark.parametrize("alpha,R", [(1.0, 2.0), (0.5, 5.0), (2.0, math.inf)])
def test_exp_radial_integral_d1(alpha, R):
    if math.isinf(R):
        expected = 2.0 / alpha
    else:
        expected = 2.0 * (1.0 - math.exp(-alpha * R)) / alpha
    assert exp_radial_integral(alpha, 1, R) == pytest.approx(expected, rel=1e-12)


def test_exp_radial_integral_d3_quadrature():
    from scipy.integrate import quad

    alpha, R = 1.3, 4.0
    val, _ = quad(lambda u: math.exp(-alpha * u) * 4.0 * math.pi * u * u, 0.0, R)
    assert exp_radial_integral(alpha, 3, R) == pytest.approx(val, rel=1e-10)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.6 s of import time and scipy.integrate about 20 ms; the package needs neither
    probe = "import sys, confheat; sys.exit('scipy.stats' in sys.modules or 'scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


# ---------------------------------------------------------------------------
# sq_dist: numpy's own order on the coordinate axis


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sq_dist_is_bitwise_numpy_reduce(dim):
    rng = np.random.default_rng(100 + dim)
    shapes = [(dim,), (1, dim), (7, dim), (500, dim), (20, 30, dim), (0, dim), (4, 0, dim)]
    for _ in range(20):
        for shape in shapes:
            scale = 10.0 ** rng.uniform(-8, 8, size=shape)
            x = rng.standard_normal(shape) * scale
            y = rng.standard_normal(shape) * scale
            got, want = sq_dist(x, y), np.sum((x - y) ** 2, axis=-1)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.array_equal(sq_dist(x), np.sum(x**2, axis=-1))
            assert np.array_equal(np.sqrt(sq_dist(x)), np.linalg.norm(x, axis=-1))
            assert np.array_equal(np.sqrt(sq_dist(x, y)), np.linalg.norm(x - y, axis=-1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sq_dist_broadcasts_bitwise(dim):
    rng = np.random.default_rng(200 + dim)
    x = rng.standard_normal((40, dim))
    y = rng.standard_normal((30, dim))
    pairs = sq_dist(x[:, None, :], y[None, :, :])
    assert pairs.shape == (40, 30)
    assert np.array_equal(pairs, np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2))
    center = tuple(rng.standard_normal(dim))
    assert np.array_equal(sq_dist(x, center), np.sum((x - np.asarray(center)) ** 2, axis=-1))
    paths = rng.standard_normal((5, 9, dim))
    within = sq_dist(paths[:, :, None, :], paths[:, None, :, :])
    assert within.shape == (5, 9, 9)
    assert np.array_equal(within, np.sum((paths[:, :, None, :] - paths[:, None, :, :]) ** 2, axis=3))
    assert sq_dist(np.zeros((0, dim)), y[None, 0]).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sq_dist_fast_path_on_small_shapes(monkeypatch, dim):
    # equal shapes and a lone x skip the broadcast; unequal shapes still take it, with the same sums
    calls = []
    broadcast_shapes = np.broadcast_shapes
    monkeypatch.setattr(np, "broadcast_shapes", lambda *shapes: calls.append(shapes) or broadcast_shapes(*shapes))
    rng = np.random.default_rng(500 + dim)
    for shape in [(dim,), (1, dim), (2, dim), (10, dim), (3, 4, dim)]:
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        assert np.array_equal(sq_dist(x, y), np.sum((x - y) ** 2, axis=-1))
        assert np.array_equal(sq_dist(x), np.sum(x * x, axis=-1))
        assert np.array_equal(sq_dist(list(x), y), np.sum((x - y) ** 2, axis=-1))
    assert calls == []
    x, y = rng.standard_normal((3, 1, dim)), rng.standard_normal((1, 4, dim))
    assert np.array_equal(sq_dist(x, y), np.sum((x - y) ** 2, axis=-1))
    assert np.array_equal(sq_dist(x, y[0, 0]), np.sum((x - y[0, 0]) ** 2, axis=-1))
    assert len(calls) == 2


@pytest.mark.parametrize("dim", range(1, 11))
def test_sq_dist_agrees_to_ulps_on_longer_axes(dim):
    # from dim = 8 on numpy sums pairwise, so only rounding-level agreement is promised
    rng = np.random.default_rng(300 + dim)
    x = rng.standard_normal((1000, dim))
    y = rng.standard_normal((1000, dim))
    np.testing.assert_allclose(sq_dist(x, y), np.sum((x - y) ** 2, axis=-1), rtol=4 * np.finfo(float).eps, atol=0)
    np.testing.assert_allclose(np.sqrt(sq_dist(x)), np.linalg.norm(x, axis=-1), rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("n", range(0, 11))
def test_last_axis_sum_is_bitwise_numpy_sum(n):
    rng = np.random.default_rng(400 + n)
    for shape in [(n,), (1, n), (7, n), (4096, n), (20, 30, n), (0, n)]:
        for _ in range(10):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 12, size=shape)
            x[rng.random(shape) < 0.1] = -0.0  # numpy starts at +0.0, so all-negative-zero rows sum to +0.0
            got, want = last_axis_sum(x), np.sum(x, axis=-1)
            assert got.shape == want.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    transposed = rng.standard_normal((n, 50)).T  # a strided last axis
    assert np.array_equal(last_axis_sum(transposed), np.sum(transposed, axis=-1))


def test_sq_dist_rejects_mismatched_coordinate_axes():
    with pytest.raises(ValueError, match="coordinate axes"):
        sq_dist(np.zeros((3, 2)), np.zeros((3, 3)))

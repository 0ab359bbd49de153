import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from confheat import rng as confheat_rng
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


def _sq_dist_full_term(x, y=None):
    """sq_dist before its scratch slab: the later squares go through a second output-sized array."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    shape = x.shape[:-1]
    if y is not None:
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(shape, y.shape[:-1])
    out = np.empty(shape) if d else np.zeros(shape)
    term = np.empty(shape) if d > 1 else None
    for k in range(d):
        dst = term if k else out
        if y is None:
            np.multiply(x[..., k], x[..., k], out=dst)
        else:
            np.subtract(x[..., k], y[..., k], out=dst)
            dst *= dst
        if k:
            out += term
    return out


# (x shape, y shape or None) without the coordinate axis: 0-d and empty outputs, a leading axis of length 1 on
# either operand, operands of fewer dimensions than the output, and a rho-shaped pair; 41 rows and 30 columns are
# split unevenly by slabs of 1, 7 and 64 values
SLAB_SHAPES = [
    ((), None), ((), ()), ((0, 5), (5,)), ((41, 30), None), ((41, 30), (41, 30)),
    ((41, 1), (1, 30)), ((1, 30), (41, 1)), ((30,), (3, 1, 30)), ((3, 1, 30), (30,)), ((3, 41, 30), (3, 1, 1)),
    ((200, 1), (1, 200)),
]


def _awkward(gen, shape):
    """Normals spread over 16 decades, with signed zeros and subnormals mixed in."""
    a = gen.standard_normal(shape) * 10.0 ** gen.uniform(-8, 8, size=shape)
    pick = gen.integers(0, 8, size=shape)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-320, -2.5e-320])
    a[pick < len(specials)] = specials[pick[pick < len(specials)]]
    return a


@pytest.mark.parametrize("block_points", [1, 7, 64, confheat_rng.BLOCK_POINTS])
@pytest.mark.parametrize("dim", [0, 1, 2, 3, 8, 9])
def test_sq_dist_slabs_equal_the_full_term_route(monkeypatch, block_points, dim):
    # a scratch slab of at most BLOCK_POINTS values changes no bit of the sums, signs included
    monkeypatch.setattr(confheat_rng, "BLOCK_POINTS", block_points)
    gen = np.random.default_rng(600 + dim)
    for x_shape, y_shape in SLAB_SHAPES:
        x = _awkward(gen, (*x_shape, dim))
        y = None if y_shape is None else _awkward(gen, (*y_shape, dim))
        got, want = sq_dist(x, y), _sq_dist_full_term(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("block_points", [64, confheat_rng.BLOCK_POINTS])
def test_sq_dist_holds_its_output_and_one_slab(monkeypatch, block_points):
    # the full-term route held two output-sized arrays; the slab route one, plus BLOCK_POINTS scratch values
    # and the ufunc call's own buffers (about 128 KiB for a lone np.subtract into a preallocated array)
    monkeypatch.setattr(confheat_rng, "BLOCK_POINTS", block_points)
    gen = np.random.default_rng(700)
    x, y = gen.standard_normal((700, 1, 3)), gen.standard_normal((1, 900, 3))
    tracemalloc.start()
    try:
        out = sq_dist(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * block_points + 2**18


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

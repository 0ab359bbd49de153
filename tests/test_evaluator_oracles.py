"""The functional evaluators work in buffers they allocate; they must equal,
bit for bit, the out-of-place expressions they replace.

Each oracle below is the plain expression (a fresh array per operation, the
same IEEE operations in the same order).  Inputs mix ordinary values with
signed zeros and subnormals, in 1, 2 and 3 dimensions.
"""
import math

import numpy as np
import pytest

from confheat.harmonic import elementary_symmetric
from confheat.points import Configuration
from confheat.profiles import GaussianBump, gaussian_bumps
from confheat.rng import TAG_GENERATOR
from confheat.semigroup import (
    CylinderFunction,
    WindowedExponential,
    _chunked_mean_se,
    generator_residual,
    outer_exp_neg_sum,
    outer_linear,
)
from confheat.special import last_axis_sum, sq_dist

SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.0e-310, 1.0e-300, 3.0, -7.5])


def same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def points(rng, shape):
    """Normal draws with the special values scattered over a quarter of the entries."""
    x = rng.standard_normal(shape)
    mask = rng.random(shape) < 0.25
    x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return x


def bump_oracle(phi, x):
    return phi.amp * np.exp(-sq_dist(x, phi.center) / (2.0 * phi.width**2))


def exp_neg_sum_oracle(v):
    return np.exp(-last_axis_sum(v))


def elementary_symmetric_oracle(values, k_max):
    vals = np.asarray(values, dtype=float)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[None, :]
    r, n = vals.shape
    e = np.zeros((r, k_max + 1))
    e[:, 0] = 1.0
    for j in range(n):
        top = min(j + 1, k_max)
        for k in range(top, 0, -1):
            e[:, k] += vals[:, j] * e[:, k - 1]
    return e[0] if squeeze else e


def bumps(dim):
    return [
        GaussianBump(-0.4, (0.2,) * dim, 0.8),
        GaussianBump(1.5, (-0.0,) * dim, 0.05),  # narrow: values underflow to subnormals and zero
        GaussianBump(-0.0, (5e-324,) * dim, 1.0),
        GaussianBump(2, tuple(range(dim)), 3),  # integer parameters
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_bump_equals_expression(dim):
    rng = np.random.default_rng(dim)
    for phi in bumps(dim):
        for shape in [(dim,), (7, dim), (5, 4, dim), (2, 3, 4, dim)]:
            x = points(rng, shape)
            assert same_bits(phi(x), bump_oracle(phi, x)), (phi, shape)
        x = SPECIALS[:, None] * np.ones(dim)
        assert same_bits(phi(x), bump_oracle(phi, x))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_bumps_rows_equal_each_bump(dim):
    rng = np.random.default_rng(40 + dim)
    for shape in [(dim,), (7, dim), (2, 3, 4, dim)]:
        x = points(rng, shape)
        rows = gaussian_bumps(bumps(dim), x)
        assert rows.shape == (4, *shape[:-1])
        for row, phi in zip(rows, bumps(dim)):
            assert np.asarray(row).tobytes() == np.asarray(bump_oracle(phi, x)).tobytes(), (phi, shape)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_windowed_exponential_batch_equals_product_expression(dim):
    rng = np.random.default_rng(10 + dim)
    for phi in bumps(dim):
        F = WindowedExponential(phi)
        x = points(rng, (50, 6, dim))
        want = np.prod(1.0 + np.asarray(bump_oracle(phi, x), dtype=float), axis=1)
        assert same_bits(F.batch(x), want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cylinder_batch_equals_stacked_expression(dim):
    rng = np.random.default_rng(20 + dim)
    inner = tuple(bumps(dim))
    for outer, outer_oracle in [(outer_exp_neg_sum(len(inner)), exp_neg_sum_oracle),
                                (outer_linear(0.7), lambda v: 0.7 * v[..., 0])]:
        F = CylinderFunction(outer, inner)
        for shape in [(1, 3, dim), (40, 5, dim), (3, 40, 2, dim)]:
            x = points(rng, shape)
            v = np.stack([last_axis_sum(bump_oracle(phi, x)) for phi in inner], axis=-1)
            assert same_bits(F.batch(x), np.asarray(outer_oracle(v), dtype=float)), (outer.name, shape)


@pytest.mark.parametrize("n_args", [1, 2, 7, 8, 9])
def test_exp_neg_sum_equals_expression(n_args):
    rng = np.random.default_rng(n_args)
    fn = outer_exp_neg_sum(n_args).fn
    for shape in [(n_args,), (33, n_args), (3, 11, n_args)]:
        v = points(rng, shape)
        assert same_bits(fn(v), exp_neg_sum_oracle(v)), shape
    with np.errstate(over="ignore"):
        v = np.full((4, n_args), -800.0)  # exp overflows to inf in both
        assert same_bits(fn(v), exp_neg_sum_oracle(v))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_elementary_symmetric_equals_descending_loop(n):
    rng = np.random.default_rng(30 + n)
    for k_max in range(0, n + 2):
        for shape in [(n,), (9, n)]:
            vals = points(rng, shape)
            got, want = elementary_symmetric(vals, k_max), elementary_symmetric_oracle(vals, k_max)
            assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes(), (k_max, shape)


def per_t_generator_means(F, base, ts, replicas, seed, threads, chunk):
    """Oracle: one F.batch call per t on base + sqrt(2t) z, stacked."""

    def sample(rng, m):
        z = rng.standard_normal((m, base.shape[0], base.shape[1]))
        return np.stack([F.batch(base[None, :, :] + math.sqrt(2.0 * t) * z) for t in ts])

    return _chunked_mean_se(sample, replicas, seed, TAG_GENERATOR, threads, chunk)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_fused_generator_equals_per_t_loop(dim, threads):
    inner = (GaussianBump(2.0, (0.0,) * dim, 0.6), GaussianBump(1.5, (0.3,) * dim, 0.5))
    F = CylinderFunction(outer_exp_neg_sum(2), inner)
    base = np.array([[0.0] * dim, [-0.3] * dim, [0.5] * dim])
    gamma = Configuration.from_points(dim, base, window_radius=1.0)
    ts, replicas, seed, chunk = (0.1, 0.05, 0.025), 1000, 7, 300  # the last chunk holds 100 replicas
    report = generator_residual(F, gamma, ts, replicas, seed, threads=threads, chunk=chunk)
    means, ses = per_t_generator_means(F, base, ts, replicas, seed, threads, chunk)
    f0 = F.value(base)
    for entry, t, mean, se in zip(report.entries, ts, means, ses):
        assert entry.quotient == (f0 - float(mean)) / t
        assert entry.std_error == float(se) / t

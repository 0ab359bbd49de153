import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confheat.points import (
    Configuration,
    Window,
    as_multiset,
    default_pad,
    diffuse,
    poisson_points,
    sample_poisson,
    truncation_tail_bound,
    uniform_ball,
)
from confheat.rng import substream
from confheat.special import ball_volume


def config_1d(points, mults=None, radius=None, intensity=None):
    return Configuration.from_points(1, [[p] for p in points], mults, radius, intensity)


# ---------------------------------------------------------------------------
# Configuration basics


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(1, np.array([[2.0]]), np.array([1]), 1.0)  # outside window
    with pytest.raises(ValueError):
        Configuration(1, np.array([[0.5]]), np.array([0]), 1.0)  # multiplicity 0
    with pytest.raises(ValueError):
        Configuration(1, np.array([[np.inf]]), np.array([1]), 10.0)
    with pytest.raises(ValueError):
        Configuration(0, np.zeros((0, 0)), np.zeros(0, dtype=int), 1.0)
    cfg = config_1d([0.0, 0.5], [1, 2])
    assert cfg.total_count == 3 and cfg.n_sites == 2 and not cfg.is_simple
    assert cfg.expand().shape == (3, 1)


def test_as_multiset_examples():
    cfg = config_1d([1.0, 0.0])
    canon = as_multiset(cfg)
    assert np.allclose(canon.positions[:, 0], [0.0, 1.0])
    dup = config_1d([0.0, 0.0])
    merged = as_multiset(dup)
    assert merged.n_sites == 1 and merged.multiplicities[0] == 2
    again = as_multiset(merged)
    assert np.array_equal(again.positions, merged.positions)
    assert np.array_equal(again.multiplicities, merged.multiplicities)


def test_as_multiset_matches_dict_merge_random():
    rng = substream(61, 1)
    for trial in range(60):
        dim = 1 + trial % 3
        n = int(rng.integers(1, 30))
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float)  # many coincident rows
        mults = rng.integers(1, 4, size=n)
        merged: dict[tuple, int] = {}
        for p, m in zip(pts, mults):
            merged[tuple(p)] = merged.get(tuple(p), 0) + int(m)
        keys = sorted(merged)
        canon = as_multiset(Configuration.from_points(dim, pts, mults, 4.0))
        assert np.array_equal(canon.positions, np.array(keys).reshape(-1, dim))
        assert canon.multiplicities.dtype == np.int64
        assert canon.multiplicities.tolist() == [merged[k] for k in keys]


@settings(max_examples=60)
@given(
    st.lists(
        st.floats(min_value=-5, max_value=5).map(lambda v: round(v, 1)),
        min_size=0,
        max_size=10,
    )
)
def test_as_multiset_idempotent_and_order_free(raw):
    cfg = config_1d(raw, radius=10.0)
    shuffled = config_1d(list(reversed(raw)), radius=10.0)
    a, b = as_multiset(cfg), as_multiset(shuffled)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.multiplicities, b.multiplicities)
    assert a.total_count == len(raw)
    assert cfg.same_as(shuffled)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=0, max_size=12),
    st.data(),
)
def test_json_round_trip_bit_exact(dim, flat, data):
    n = len(flat) // dim
    pts = np.array(flat[: n * dim]).reshape(n, dim)
    mults = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    cfg = Configuration.from_points(dim, pts, mults, window_radius=7.5, intensity=0.5)
    back = Configuration.from_json(cfg.to_json())
    assert back.dim == cfg.dim
    assert back.window_radius == cfg.window_radius
    assert back.intensity == cfg.intensity
    assert np.array_equal(back.positions, cfg.positions)
    assert np.array_equal(back.multiplicities, cfg.multiplicities)
    # a second round trip produces identical bytes
    assert back.to_json() == cfg.to_json()


# ---------------------------------------------------------------------------
# Poisson sampling


def test_sample_poisson_count_moments():
    rng = substream(21, 1)
    win = Window(radius=1.0, intensity=1.0)
    counts = np.array([sample_poisson(win, 2, rng).total_count for _ in range(20000)])
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(mean - math.pi) <= 3 * se
    # all samples are simple and in-window
    cfg = sample_poisson(win, 2, rng)
    assert cfg.is_simple
    if cfg.n_sites:
        assert np.linalg.norm(cfg.positions, axis=1).max() <= 1.0 + 1e-9


def test_sample_poisson_variance_1d():
    rng = substream(22, 1)
    win = Window(radius=2.0, intensity=3.0)
    counts = np.array([sample_poisson(win, 1, rng).total_count for _ in range(20000)])
    var = counts.var(ddof=1)
    lam = 12.0
    se_var = math.sqrt((lam + 2 * lam * lam) / len(counts))
    assert abs(var - lam) <= 3 * se_var


def test_sample_poisson_tiny_intensity_empty():
    rng = substream(23, 1)
    win = Window(radius=1.0, intensity=1e-7)
    assert all(sample_poisson(win, 2, rng).total_count == 0 for _ in range(200))


def test_sample_poisson_disjoint_region_independence():
    rng = substream(24, 1)
    win = Window(radius=1.0, intensity=4.0)
    inner, shell = [], []
    for _ in range(20000):
        cfg = sample_poisson(win, 2, rng)
        if cfg.n_sites:
            norms = np.linalg.norm(cfg.positions, axis=1)
            inner.append(int((norms <= 0.5).sum()))
            shell.append(int((norms > 0.5).sum()))
        else:
            inner.append(0)
            shell.append(0)
    inner = np.array(inner, dtype=float)
    shell = np.array(shell, dtype=float)
    n = len(inner)
    cov = float(np.mean((inner - inner.mean()) * (shell - shell.mean())))
    se_cov = float(np.std((inner - inner.mean()) * (shell - shell.mean()), ddof=1) / math.sqrt(n))
    assert abs(cov) <= 4 * se_cov


def _one_poisson_draw(window, dim, rng):
    """Oracle: one Poisson configuration as a scalar count, then its uniform positions."""
    n = int(rng.poisson(window.intensity * ball_volume(dim, window.radius)))
    return n, uniform_ball(rng, n, dim, window.radius)


@pytest.mark.parametrize("dim,radius,intensity", [(1, 2.0, 3.0), (2, 1.0, 1.0), (3, 1.5, 0.2), (2, 4.0, 30.0)])
def test_poisson_points_single_replica_reproduces_scalar_draws(dim, radius, intensity):
    # poisson(lam, size=1) draws what poisson(lam) draws, so the stream stays the same draw after draw
    win = Window(radius, intensity)
    rng, ref = substream(27, dim), substream(27, dim)
    for _ in range(200):
        counts, pos = poisson_points(rng, 1, win, dim)
        n, want = _one_poisson_draw(win, dim, ref)
        assert counts.tolist() == [n] and np.array_equal(pos, want)
        cfg = sample_poisson(win, dim, ref)
        assert np.array_equal(sample_poisson(win, dim, rng).positions, cfg.positions)
    assert rng.random() == ref.random()


def test_poisson_points_draws_counts_then_positions_in_replica_order():
    win = Window(1.2, 2.0)
    counts, pos = poisson_points(substream(28, 1), 500, win, 2)
    ref = substream(28, 1)
    assert np.array_equal(counts, ref.poisson(win.intensity * ball_volume(2, 1.2), size=500))
    assert np.array_equal(pos, uniform_ball(ref, int(counts.sum()), 2, 1.2))
    assert pos.shape == (counts.sum(), 2) and np.sqrt(np.sum(pos * pos, axis=1)).max() <= 1.2


def test_sampled_configurations_have_finite_bn():
    from confheat.metrics import b_n

    rng = substream(26, 1)
    win = Window(radius=3.0, intensity=2.0)
    for _ in range(100):
        cfg = sample_poisson(win, 2, rng)
        for n in (1, 2, 5, 10):
            assert math.isfinite(b_n(cfg, n))


def test_uniform_ball_radial_law():
    rng = substream(25, 1)
    pts = uniform_ball(rng, 40000, 2, 1.0)
    # E|x| = 2/3 for the unit disk
    norms = np.linalg.norm(pts, axis=1)
    se = norms.std(ddof=1) / math.sqrt(len(norms))
    assert abs(norms.mean() - 2.0 / 3.0) <= 4 * se


# ---------------------------------------------------------------------------
# heat step


def test_diffuse_preserves_count_and_unfolds_multiplicity():
    rng = substream(31, 1)
    cfg = config_1d([0.0, 0.5], [1, 2], radius=1.0)
    out = diffuse(cfg, 0.3, rng)
    assert out.total_count == 3 and out.n_sites == 3 and out.is_simple
    empty = Configuration.empty(1)
    assert diffuse(empty, 0.5, rng).total_count == 0
    with pytest.raises(ValueError):
        diffuse(cfg, 0.0, rng)


def test_diffuse_displacement_variance():
    rng = substream(32, 1)
    cfg = Configuration(1, np.zeros((1, 1)), np.array([100000]), 1.0)
    out = diffuse(cfg, 0.5, rng)
    var = out.positions[:, 0].var(ddof=1)
    se_var = var * math.sqrt(2.0 / (out.n_sites - 1))
    assert abs(var - 1.0) <= 3 * se_var


def test_diffuse_window_grows_enough():
    rng = substream(33, 1)
    cfg = config_1d([0.0], radius=1.0)
    out = diffuse(cfg, 0.5, rng)
    assert out.window_radius >= 1.0 + default_pad(0.5, 1) - 1e-12
    assert np.linalg.norm(out.positions, axis=1).max() <= out.window_radius


def test_diffuse_semigroup_in_law():
    # functional means after (t then s) match one step of t+s within 4 SE
    rng_a = substream(34, 1)
    rng_b = substream(34, 2)
    cfg = config_1d([-0.5, 0.2, 1.0], radius=2.0)
    t, s = 0.3, 0.2
    n = 12000

    def stats(draw):
        b1 = np.empty(n)
        cnt = np.empty(n)
        for i in range(n):
            out = draw()
            b1[i] = float(np.sum(np.exp(-np.abs(out.positions[:, 0]))))
            cnt[i] = float(np.sum(np.abs(out.positions[:, 0]) <= 1.0))
        return b1, cnt

    b1_two, cnt_two = stats(lambda: diffuse(diffuse(cfg, t, rng_a), s, rng_a))
    b1_one, cnt_one = stats(lambda: diffuse(cfg, t + s, rng_b))
    for a, b in ((b1_two, b1_one), (cnt_two, cnt_one)):
        diff = a.mean() - b.mean()
        se = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(diff) <= 4 * se


# ---------------------------------------------------------------------------
# truncation tail bound


def test_truncation_tail_bound_monotone_to_zero():
    vals = [truncation_tail_bound(R, 2, 2, 1.0) for R in (1.0, 5.0, 10.0, 20.0, 40.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4


def test_truncation_tail_bound_matches_upper_incomplete_gamma():
    # z |S^{d-1}| n^d Gamma(d, R/n): the integral of exp(-|x|/n) over |x| > R, at 40 digits
    mpmath.mp.dps = 40
    z = 1.3
    for dim in range(1, 6):
        area = 2 * mpmath.pi ** (mpmath.mpf(dim) / 2) / mpmath.gamma(mpmath.mpf(dim) / 2)
        for n in (1, 2, 4, 20, 100):
            for R in (0.1, 0.5, 3.0, 10.5, 12.0, 50.0, 200.0, 1000.0):
                exact = z * area * mpmath.mpf(n) ** dim * mpmath.gammainc(dim, mpmath.mpf(R) / n)
                assert truncation_tail_bound(R, n, dim, z) == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def test_truncation_tail_bound_matches_monte_carlo():
    # the exact tail against a Monte Carlo estimate of E[sum_{|x|>R} exp(-|x|/n)] on B(0, R + 15), within 4 SE;
    # the mass beyond R + 15 is 1.8e-6, against an SE of 1.2e-3
    rng = substream(35, 1)
    R, n, dim, z = 3.0, 1, 2, 1.0
    outer = R + 15.0
    lam = z * ball_volume(dim, outer)
    n_rep = 20000
    sums = np.empty(n_rep)
    for rep in range(n_rep):
        k = int(rng.poisson(lam))
        pts = uniform_ball(rng, k, dim, outer)
        norms = np.linalg.norm(pts, axis=1)
        sums[rep] = float(np.exp(-norms[norms > R] / n).sum())
    se = sums.std(ddof=1) / math.sqrt(n_rep)
    assert truncation_tail_bound(outer, n, dim, z) < 0.01 * se
    assert abs(sums.mean() - truncation_tail_bound(R, n, dim, z)) <= 4 * se


def test_truncation_tail_bound_fractional_radius_is_exact():
    # integral of e^{-|x|} over |x| > 10.5 in d=1
    assert truncation_tail_bound(10.5, 1, 1, 1.0) == pytest.approx(2.0 * math.exp(-10.5), rel=1e-14, abs=0.0)

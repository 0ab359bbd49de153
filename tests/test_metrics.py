import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import confheat.metrics
from confheat.errors import CapacityError, SolverError
from confheat.metrics import (
    FLAT_METRIC_LP_MAX_SUPPORT,
    FLAT_METRIC_MAX_SUPPORT,
    RHO_MAX_POINTS,
    MetricValue,
    b_n,
    d1,
    d_infty,
    d_k,
    flat_metric,
    flat_metric_lp,
    flat_metric_size,
    rho,
    rho_bruteforce,
    solve_lp,
)
from confheat.points import Configuration
from confheat.rng import substream


def cfg(points, dim=1, mults=None, radius=None):
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    return Configuration.from_points(dim, pts, mults, radius)


def random_cfg(rng, dim=1, max_pts=6, spread=3.0):
    n = int(rng.integers(0, max_pts + 1))
    return cfg(rng.uniform(-spread, spread, size=(n, dim)), dim=dim, radius=spread * math.sqrt(dim) + 1)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# B_n


def test_b_n_examples():
    assert b_n(cfg([0.0]), 1) == pytest.approx(1.0)
    assert b_n(cfg([0.0, 3.0]), 3) == pytest.approx(1.0 + math.exp(-1.0), rel=1e-12)
    assert b_n(Configuration.empty(2), 5) == 0.0
    # multiplicities count
    assert b_n(cfg([0.0], mults=[3]), 1) == pytest.approx(3.0)


def test_b_n_batched_over_paths_equals_per_configuration():
    # paths of shape (replicas, particles, steps + 1, d): B_n along the particle axis at every grid time
    rng = np.random.default_rng(3)
    paths = rng.normal(size=(4, 3, 5, 2))
    batched = b_n(paths, 2, axis=1)
    assert batched.shape == (4, 5)
    for r in range(4):
        for k in range(5):
            assert batched[r, k] == b_n(cfg(paths[r, :, k], dim=2, radius=10.0), 2)


# ---------------------------------------------------------------------------
# flat metric d_{K,i}


def test_flat_metric_stated_examples():
    a = cfg([0.0])
    assert flat_metric(a, a, 5) == 0.0
    assert flat_metric(cfg([0.0]), cfg([1.0]), 5) == pytest.approx(1.0, abs=1e-9)
    assert flat_metric(cfg([0.0]), Configuration.empty(1), 5) == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize(
    "x,y,i",
    [(0.0, 1.0, 5), (0.0, 4.0, 3), (-2.0, 2.5, 4), (0.5, 0.9, 1), (3.0, 8.0, 2)],
)
def test_flat_metric_two_point_closed_form(x, y, i):
    # single point vs single point: min(|x-y|, cap(x) + cap(y))
    expected = min(abs(x - y), max(0.0, i - abs(x)) + max(0.0, i - abs(y)))
    got = flat_metric(cfg([x]), cfg([y]), i)
    assert got == pytest.approx(expected, abs=1e-7)


def test_flat_metric_outside_cutoff_is_zero():
    assert flat_metric(cfg([5.0]), Configuration.empty(1), 3) == 0.0


def test_flat_metric_mass_bound():
    rng = substream(41, 1)
    for _ in range(25):
        g1, g2 = random_cfg(rng), random_cfg(rng)
        i = int(rng.integers(1, 8))
        val = flat_metric(g1, g2, i)
        assert val <= i * (g1.total_count + g2.total_count) + 1e-9


def test_flat_metric_symmetry_and_cancellation():
    g1 = cfg([0.0, 1.0])
    g2 = cfg([1.0, 2.0])
    assert flat_metric(g1, g2, 6) == pytest.approx(flat_metric(g2, g1, 6), abs=1e-9)
    # shared point at 1.0 cancels: distance equals the {0} vs {2} problem
    assert flat_metric(g1, g2, 6) == pytest.approx(flat_metric(cfg([0.0]), cfg([2.0]), 6), abs=1e-9)


def test_flat_metric_multiplicity_weighting():
    doubled = cfg([0.0], mults=[2])
    split = cfg([0.0, 0.0])
    assert flat_metric(doubled, split, 5) == 0.0
    single = cfg([0.0])
    # one uncancelled unit of mass at the origin is worth the full cutoff
    assert flat_metric(doubled, single, 5) == pytest.approx(5.0, abs=1e-9)


def test_flat_metric_triangle_inequality_random():
    rng = substream(42, 1)
    for _ in range(100):
        a, b, c = (random_cfg(rng, max_pts=4) for _ in range(3))
        i = int(rng.integers(1, 6))
        ab = flat_metric(a, b, i)
        bc = flat_metric(b, c, i)
        ac = flat_metric(a, c, i)
        assert ac <= ab + bc + 1e-7


def _signed_instance(rng, dim):
    """Two configurations with multiplicities 1-3, some points outside B(0, 4)
    and some sites shared between the sides (partly or fully cancelling)."""
    def side():
        n = int(rng.integers(0, 6))
        return rng.uniform(-6.0, 6.0, size=(n, dim)), rng.integers(1, 4, size=n)

    (p1, m1), (p2, m2) = side(), side()
    if p1.shape[0] and p2.shape[0] and rng.random() < 0.5:
        k = int(rng.integers(1, min(p1.shape[0], p2.shape[0]) + 1))
        p2[:k] = p1[:k]
    if p1.shape[0] > 1 and rng.random() < 0.3:
        p1[1] = p1[0]  # coincident sites on one side
    radius = 6.0 * math.sqrt(dim) + 1.0
    return cfg(p1, dim, m1, radius), cfg(p2, dim, m2, radius)


def test_flat_metric_assignment_matches_lp_oracle_random():
    rng = substream(43, 1)
    for trial in range(240):
        dim = 1 + trial % 3
        g1, g2 = _signed_instance(rng, dim)
        if trial % 10 == 0:
            g2 = Configuration.empty(dim)
        i = int(rng.integers(1, 7))
        assert flat_metric(g1, g2, i) == pytest.approx(flat_metric_lp(g1, g2, i), abs=1e-9), (trial, i)


def test_flat_metric_above_old_lp_cap_matches_highs():
    rng = substream(44, 1)
    p1, p2 = rng.uniform(-4.0, 4.0, size=(2, 125, 2))
    m1, m2 = rng.integers(1, 4, size=(2, 125))
    g1, g2 = cfg(p1, 2, m1, 6.0), cfg(p2, 2, m2, 6.0)
    assert 450 <= m1.sum() + m2.sum() <= 550
    assert flat_metric(g1, g2, 3) == pytest.approx(flat_metric_lp(g1, g2, 3), abs=1e-7)


def test_flat_metric_capacity_boundary():
    a, b = [[0.0, 0.0]], [[1.0, 0.0]]
    half = FLAT_METRIC_MAX_SUPPORT // 2
    assert FLAT_METRIC_MAX_SUPPORT == 2000
    at_cap = flat_metric(cfg(a, 2, [half], 3.0), cfg(b, 2, [half], 3.0), 2)
    assert at_cap == pytest.approx(half * 1.0, abs=1e-9)
    with pytest.raises(CapacityError):
        flat_metric(cfg(a, 2, [half + 1], 3.0), cfg(b, 2, [half], 3.0), 2)


def test_flat_metric_size_counts_the_signed_support():
    # the count flat_metric holds to FLAT_METRIC_MAX_SUPPORT: mass on a shared site cancels
    assert flat_metric_size(cfg([0.0, 1.0], mults=[3, 2]), cfg([1.0, 2.0], mults=[1, 4])) == 3 + 1 + 4
    assert flat_metric_size(cfg([0.5], mults=[2]), cfg([0.5], mults=[2])) == 0


def test_flat_metric_builds_its_pair_block_in_place():
    # p = n = 1000 in d = 2, the support cap: the 2000 x 2000 cost matrix (30.5 MiB) and one 1000 x 1000
    # temporary at a time; separate distance, root, cap-sum and minimum arrays peaked at 53.6 MiB
    rng = substream(46, 1)
    g1, g2 = (cfg(rng.uniform(-5.0, 5.0, size=(1000, 2)), 2, radius=8.0) for _ in range(2))
    assert flat_metric_size(g1, g2) == FLAT_METRIC_MAX_SUPPORT
    assert _traced_peak(lambda: flat_metric(g1, g2, 3)) < 42e6


def test_flat_metric_lp_oracle_capacity():
    line = np.linspace(-1.0, 1.0, 121)
    value = flat_metric_lp(cfg(line[:60]), cfg(line[60:]), 2)
    assert value == pytest.approx(flat_metric(cfg(line[:60]), cfg(line[60:]), 2), abs=1e-7)
    assert value == pytest.approx(61.0, abs=1e-7)
    assert FLAT_METRIC_LP_MAX_SUPPORT == 500
    line = np.linspace(-1.0, 1.0, FLAT_METRIC_LP_MAX_SUPPORT + 1)
    with pytest.raises(CapacityError):
        flat_metric_lp(cfg(line[:250]), cfg(line[250:]), 2)


def test_solve_lp_optimum_and_unbounded():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x, y >= 0: optimum 2.8 at (1.6, 1.2)
    assert solve_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0], [(0, None)] * 2) == pytest.approx(2.8)
    with pytest.raises(SolverError):
        solve_lp([1.0, 0.0], [[0.0, 1.0]], [1.0], [(0, None)] * 2)


# ---------------------------------------------------------------------------
# d_K, d_1, d_infty


def test_dk_truncation_error_and_zero():
    a = cfg([0.3, -0.4])
    mv = d_k(a, a, i_max=12)
    assert isinstance(mv, MetricValue)
    assert mv.value == 0.0
    assert mv.truncation_error == 2.0**-12


def test_d1_b_term_example():
    val = d1(cfg([0.0]), Configuration.empty(1))
    base = d_k(cfg([0.0]), Configuration.empty(1)).value
    assert val == pytest.approx(base + 1.0, rel=1e-12)


def test_d_infty_bounds_and_truncation():
    g1, g2 = cfg([0.0, 1.0]), cfg([0.5])
    mv = d_infty(g1, g2, i_max=10, n_max=10)
    assert mv.truncation_error == pytest.approx(2.0**-10 + 2.0**-10)
    assert mv.value >= d_k(g1, g2, i_max=10).value


def test_metric_triangle_inequality_d1_and_dinfty():
    rng = substream(43, 1)
    for _ in range(30):
        a, b, c = (random_cfg(rng, max_pts=4) for _ in range(3))
        assert d1(a, c, i_max=8) <= d1(a, b, i_max=8) + d1(b, c, i_max=8) + 1e-7
        assert (
            d_infty(a, c, 8, 8).value
            <= d_infty(a, b, 8, 8).value + d_infty(b, c, 8, 8).value + 1e-7
        )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=0, max_size=4), st.lists(st.floats(-3, 3), min_size=0, max_size=4))
def test_metric_symmetry(p1, p2):
    g1, g2 = cfg(p1, radius=5.0), cfg(p2, radius=5.0)
    assert flat_metric(g1, g2, 4) == pytest.approx(flat_metric(g2, g1, 4), abs=1e-8)
    assert d1(g1, g2, i_max=6) == pytest.approx(d1(g2, g1, i_max=6), abs=1e-8)


# ---------------------------------------------------------------------------
# rho


def test_rho_stated_examples():
    assert rho(cfg([0.0, 2.0]), cfg([0.0, 2.0])) == 0.0
    assert rho(cfg([0.0]), cfg([3.0])) == pytest.approx(3.0, rel=1e-12)
    assert rho(cfg([0.0, 2.0]), cfg([1.0, 3.0])) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rho(cfg([0.0]), cfg([0.0, 1.0])) == math.inf


def test_rho_multiplicity_unfolding():
    doubled = cfg([0.0], mults=[2])
    pair = cfg([0.0, 0.5])
    assert rho(doubled, pair) == pytest.approx(0.5, rel=1e-12)


def test_rho_finiteness_iff_equal_cardinality():
    rng = substream(44, 1)
    for _ in range(50):
        g1, g2 = random_cfg(rng, dim=2), random_cfg(rng, dim=2)
        r = rho(g1, g2)
        if g1.total_count == g2.total_count:
            assert math.isfinite(r)
        else:
            assert r == math.inf


def test_rho_holds_one_cost_matrix():
    # n = 1000 in d = 2: one 8 MB squared-distance matrix; with a second, full-size array for the later
    # coordinates the peak was 15.4 MiB
    rng = substream(45, 1)
    n = 1000
    g1, g2 = (cfg(rng.uniform(-5.0, 5.0, size=(n, 2)), 2, radius=8.0) for _ in range(2))
    assert _traced_peak(lambda: rho(g1, g2)) < 1.1 * n * n * 8


def test_rho_capacity_is_checked_before_allocating(monkeypatch):
    assert RHO_MAX_POINTS == 4096 and 8 * RHO_MAX_POINTS**2 <= 128 * 2**20
    over = RHO_MAX_POINTS + 1
    g1, g2, g3 = cfg([0.0], mults=[over]), cfg([1.0], mults=[over]), cfg([1.0], mults=[over + 1])
    monkeypatch.setattr(confheat.metrics, "sq_dist", lambda *args: pytest.fail("sq_dist called above the cap"))
    monkeypatch.setattr(Configuration, "expand", lambda self: pytest.fail("expand called above the cap"))
    with pytest.raises(CapacityError, match="rho matching of 4097 particles exceeds 4096"):
        rho(g1, g2)
    # unequal counts are a value of the metric, whatever their size
    assert rho(g1, g3) == math.inf


def test_rho_matches_bruteforce():
    rng = substream(45, 1)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(0, 8))
        radius = 4.0 * math.sqrt(dim) + 1
        g1 = cfg(rng.uniform(-4, 4, size=(n, dim)), dim=dim, radius=radius)
        g2 = cfg(rng.uniform(-4, 4, size=(n, dim)), dim=dim, radius=radius)
        assert rho(g1, g2) == pytest.approx(rho_bruteforce(g1, g2), abs=1e-9)


def test_rho_convergence_drives_bn_convergence():
    base = cfg([0.0, 1.5, -2.0], radius=4.0)
    prev_gap = None
    for j in range(1, 11):
        shifted = cfg([2.0**-j, 1.5, -2.0], radius=4.0)
        assert rho(shifted, base) == pytest.approx(2.0**-j, rel=1e-12)
        gap = abs(b_n(shifted, 2) - b_n(base, 2))
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-3

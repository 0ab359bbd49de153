import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

import confheat.experiments
import confheat.process
from confheat.errors import CapacityError
from confheat.kernel import HeatKernelParams, tail_mass, tau
from confheat.points import Configuration
from confheat.process import (
    BN_REPLICA_CAPACITY,
    OSCILLATION_MAX_SUBSTEPS,
    PAIR_POINTS,
    PathBundle,
    bn_continuity_report,
    bn_refinement_medians,
    bn_values,
    collision_report,
    marginal_ks,
    oscillation_check,
    simulate_paths,
)
from confheat.rng import substream


def cfg(points, dim=1, radius=None):
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    return Configuration.from_points(dim, pts, None, radius)


def test_simulate_paths_shapes_and_determinism():
    gamma = cfg([0.0, 1.0], radius=2.0)
    b1 = simulate_paths(gamma, 1.0, 0.1, seed=3)
    b2 = simulate_paths(gamma, 1.0, 0.1, seed=3)
    assert b1.paths.shape == (2, 11, 1)
    assert np.array_equal(b1.paths, b2.paths)
    assert np.allclose(b1.times, np.arange(11) * 0.1)
    empty = simulate_paths(Configuration.empty(2), 0.5, 0.1, seed=0)
    assert empty.paths.shape == (0, 6, 2)


def test_simulate_paths_validation():
    gamma = cfg([0.0])
    with pytest.raises(ValueError):
        simulate_paths(gamma, 0.05, 0.1, seed=0)
    with pytest.raises(ValueError):
        simulate_paths(gamma, 1.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        simulate_paths(gamma, 1.05, 0.1, seed=0)
    with pytest.raises(CapacityError):
        simulate_paths(gamma, 2.0e8, 1.0, seed=0)


def test_simulate_paths_terminal_variance():
    gamma = Configuration(1, np.zeros((1, 1)), np.array([4000]), 1.0)
    bundle = simulate_paths(gamma, 1.0, 0.05, seed=9)
    terminal = bundle.paths[:, -1, 0]
    var = terminal.var(ddof=1)
    se_var = var * math.sqrt(2.0 / (len(terminal) - 1))
    assert abs(var - 2.0) <= 4 * se_var


def test_simulate_paths_particle_independence():
    gamma = cfg([0.0, 0.0001], radius=1.0)
    disp = []
    for r in range(4000):
        b = simulate_paths(gamma, 0.2, 0.2, seed=77, replica=r)
        disp.append(b.paths[:, -1, 0] - b.paths[:, 0, 0])
    disp = np.array(disp)
    corr = np.corrcoef(disp[:, 0], disp[:, 1])[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(len(disp))


def test_marginal_matches_one_heat_step():
    d_stat, p = marginal_ks(1, 0.2, 0.2, replicas=10000, seed=5)
    assert p > 0.001
    d_stat2, p2 = marginal_ks(2, 0.5, 0.05, replicas=10000, seed=6)
    assert p2 > 0.001


def _kolmogorov_series(lam):
    """2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2), the Kolmogorov tail, at the working precision."""
    lam = mpmath.mpf(lam)
    return 2 * mpmath.fsum((-1) ** (k - 1) * mpmath.exp(-2 * k * k * lam * lam) for k in range(1, 400))


@mpmath.workdps(40)
def test_marginal_ks_p_value_against_kolmogorov_series(monkeypatch):
    seen = []

    def recording_tail_mass(params, r):
        seen.append(np.array(r))
        return tail_mass(params, r)

    monkeypatch.setattr(confheat.process, "tail_mass", recording_tail_mass)
    for dim, t, dt, n, seed in [(1, 0.2, 0.02, 50, 1), (2, 0.5, 0.1, 200, 2), (3, 0.3, 0.1, 1000, 3),
                                (1, 1.0, 0.25, 5000, 4), (2, 0.2, 0.2, 10000, 5)]:
        d, p = marginal_ks(dim, t, dt, replicas=n, seed=seed)
        radii = seen.pop()
        # the time-t slice: n radii, statistic = sup |ECDF - exact CDF| over both one-sided limits
        assert radii.shape == (n,)
        cdf = 1.0 - tail_mass(HeatKernelParams(dim, t), radii)
        above = np.searchsorted(radii, radii, side="right") / n - cdf
        below = cdf - np.searchsorted(radii, radii, side="left") / n
        assert d == pytest.approx(max(above.max(), below.max()), abs=1e-15)
        lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
        assert p == pytest.approx(float(_kolmogorov_series(lam)), rel=1e-12)


def test_marginal_ks_detects_ten_percent_variance_error(monkeypatch):
    # the exact CDF of a heat step with 10% too much variance (2.2 t per coordinate); at this effect
    # size the d = 1 p-value lies near 1e-6 across seeds (median 3e-6 over seeds 0-39), d = 2 far below
    monkeypatch.setattr(confheat.process, "tail_mass",
                        lambda params, r: tail_mass(HeatKernelParams(params.dim, 1.1 * params.t), r))
    _, p = marginal_ks(1, 0.2, 0.2, replicas=10000, seed=5)
    assert p < 1e-6
    _, p2 = marginal_ks(2, 0.5, 0.05, replicas=10000, seed=6)
    assert p2 < 1e-6


def test_process_marginal_stream_disjoint_from_bn_replicas(monkeypatch):
    # at 102 replicas the B_n level-0 keys reach replica 101; the marginal check must not draw from any of them
    keys, stage = {}, [None]

    def recording_substream(seed, *path):
        keys.setdefault(stage[0], []).append((seed, *path))
        return substream(seed, *path)

    def in_stage(name, fn):
        def staged(*args):
            stage[0] = name
            return fn(*args)

        return staged

    monkeypatch.setattr(confheat.process, "substream", recording_substream)
    for name in ("marginal_ks", "bn_refinement_medians"):
        monkeypatch.setattr(confheat.experiments, name, in_stage(name, getattr(confheat.experiments, name)))
    p = {"dim": 1, "t": 0.02, "dt": 0.001, "dt_coarse": 0.01, "n": 1, "bn_replicas": 102, "gamma": None}
    confheat.experiments.EXPERIMENTS["process"].run(p, 112, 100, 1)
    marginal, bn = keys["marginal_ks"], keys["bn_refinement_medians"]
    assert len(marginal) == 1 and len(set(bn)) == len(bn) == 2 * 102
    assert set(marginal).isdisjoint(bn)


def test_bn_frozen_paths_have_zero_increments():
    times = np.arange(5) * 0.1
    paths = np.tile(np.array([[1.0], [2.0]])[:, None, :], (1, 5, 1))
    bundle = PathBundle(1, 0.1, 0.4, times, paths, seed=0)
    rep = bn_continuity_report(bundle, 2)
    assert rep.max_increment == 0.0 and rep.lipschitz_bound_ok


def test_bn_lipschitz_bound_single_particle():
    gamma = cfg([0.0])
    bundle = simulate_paths(gamma, 1.0, 0.01, seed=13)
    rep = bn_continuity_report(bundle, 1)
    moves = np.abs(np.diff(bundle.paths[0, :, 0]))
    increments = np.abs(np.diff(bn_values(bundle, 1)))
    assert np.all(increments <= moves + 1e-12)
    assert rep.lipschitz_bound_ok


def test_bn_refinement_medians_decrease():
    gamma = cfg([0.0, 0.5], radius=1.0)
    med = bn_refinement_medians(gamma, 1.0, (1e-2, 1e-3), n=1, replicas=100, seed=14)
    assert med[1] < med[0]


def test_oscillation_far_tail_trivial():
    rep = oscillation_check([0.0], 0.0, 0.01, r=20.0 * math.sqrt(2 * 0.01), replicas=500, seed=15, dim=1)
    assert rep.empirical == 0.0 and rep.passed


def test_oscillation_stated_example():
    # delta = 0.01, r = 1: bound = 2 tau(0.01, 0.25) = 4 Phi-bar(0.25/sqrt(0.02))
    bound = 2.0 * tau(1, 0.01, 0.25)
    assert bound == pytest.approx(4.0 * ndtr(-0.25 / math.sqrt(0.02)), rel=1e-12)
    assert bound == pytest.approx(0.1542, abs=2e-4)
    rep = oscillation_check([0.0], 0.0, 0.01, r=1.0, replicas=4000, seed=16, dim=1)
    assert rep.bound == pytest.approx(bound, rel=1e-12)
    assert rep.passed and rep.empirical < 0.06


def test_oscillation_monotone_in_r():
    reps = [
        oscillation_check([0.0, 0.0], 0.0, 0.02, r=r, replicas=3000, seed=17, dim=2)
        for r in (0.5, 0.8, 1.2)
    ]
    assert all(a.bound > b.bound for a, b in zip(reps, reps[1:]))
    assert all(a.empirical >= b.empirical for a, b in zip(reps, reps[1:]))
    assert all(r.passed for r in reps)


def test_oscillation_validation():
    with pytest.raises(ValueError):
        oscillation_check([0.0], 0.0, 0.01, r=1.0, replicas=10, seed=0, dim=1, substeps=32)


def _no_draws(*args, **kwargs):
    raise AssertionError("a refused call must draw nothing")


def test_oscillation_substeps_capped_before_drawing(monkeypatch):
    # past the cap one replica's substeps^2 pairwise differences alone pass PAIR_POINTS
    assert OSCILLATION_MAX_SUBSTEPS**2 <= PAIR_POINTS < (OSCILLATION_MAX_SUBSTEPS + 1) ** 2
    monkeypatch.setattr(confheat.process, "_brownian_paths", _no_draws)
    with pytest.raises(CapacityError, match="substeps"):
        oscillation_check([0.0], 0.0, 0.01, r=1.0, replicas=10, seed=0, dim=1,
                          substeps=OSCILLATION_MAX_SUBSTEPS + 1)


def test_bn_refinement_replicas_capped_before_drawing(monkeypatch):
    # level k keys its replicas k * BN_REPLICA_CAPACITY + r, so one more would reuse level k + 1's first stream
    monkeypatch.setattr(confheat.process, "simulate_paths", _no_draws)
    with pytest.raises(CapacityError, match="replicas"):
        bn_refinement_medians(cfg([0.0]), 1.0, (1e-2, 1e-3), n=1, replicas=BN_REPLICA_CAPACITY + 1, seed=0)


def test_collision_far_particles_never_close():
    gamma = cfg([[0.0, 0.0], [100.0, 0.0]], dim=2, radius=101.0)
    rep = collision_report(gamma, 0.1, 0.01, replicas=2000, seed=18, epsilon_list=(1.0, 0.1))
    assert rep.fractions == (0.0, 0.0)
    assert rep.crossing_fraction is None


def test_collision_d2_fractions_decrease():
    gamma = cfg([[0.0, 0.0], [0.5, 0.0]], dim=2, radius=1.0)
    rep = collision_report(gamma, 1.0, 0.01, replicas=8000, seed=19, epsilon_list=(0.1, 0.01, 0.001))
    assert rep.fractions[0] > rep.fractions[1] > rep.fractions[2]
    assert rep.fractions[2] < 0.01


def test_collision_d1_crossing_matches_reflection_principle():
    gamma = cfg([0.0, 0.1], radius=1.0)
    rep = collision_report(gamma, 1.0, 1e-3, replicas=10000, seed=20, epsilon_list=(0.05,))
    expected = 2.0 * ndtr(-0.1 / math.sqrt(4.0))
    assert rep.crossing_reference == pytest.approx(expected, rel=1e-12)
    se = math.sqrt(expected * (1 - expected) / rep.replicas)
    assert abs(rep.crossing_fraction - expected) <= 4 * se
    assert rep.crossing_fraction > 0.5


def test_collision_validation():
    gamma = cfg([0.0])
    with pytest.raises(ValueError):
        collision_report(gamma, 1.0, 0.1, 100, 0, (0.1,))
    two = cfg([0.0, 1.0])
    with pytest.raises(ValueError):
        collision_report(two, 1.0, 0.1, 100, 0, (0.1, 0.2))

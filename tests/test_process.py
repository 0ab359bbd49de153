import ast
import inspect
import json
import math
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp

import confheat.experiments
import confheat.process
import confheat.rng
from confheat.errors import CapacityError
from confheat.kernel import HeatKernelParams, tail_mass, tau
from confheat.points import Configuration
from confheat.process import (
    OSCILLATION_MAX_SUBSTEPS,
    PAIR_POINTS,
    bn_refinement_medians,
    collision_report,
    marginal_ks,
    oscillation_check,
)
from confheat.rng import TAG_COLLISION, TAG_MARGINAL, TAG_OSCILLATION, TAG_PATHS, substream
from confheat.special import binomial_se


def cfg(points, dim=1, radius=None):
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    return Configuration.from_points(dim, pts, None, radius)


def test_path_blocks_shapes_and_determinism():
    start = np.array([[0.0], [1.0]])
    [(offset, one)] = [(o, p.copy()) for o, p in confheat.process._path_blocks(substream(3, 1), start, 10, 0.1, 4)]
    [(_, two)] = confheat.process._path_blocks(substream(3, 1), start, 10, 0.1, 4)
    assert offset == 0 and one.shape == (4, 2, 11, 1)
    assert np.array_equal(one, two)
    assert np.array_equal(one[:, :, 0], np.broadcast_to(start, (4, 2, 1)))
    [(_, empty)] = confheat.process._path_blocks(substream(0, 1), np.zeros((0, 2)), 5, 0.1, 3)
    assert empty.shape == (3, 0, 6, 2)


def test_time_grids_are_refused_before_drawing(monkeypatch):
    # _steps_for's refusals, through the B_n refinement that builds its grid from them
    monkeypatch.setattr(confheat.process, "_increment_blocks", _no_draws)
    gamma = cfg([0.0])

    def medians(horizon, dt):
        return bn_refinement_medians(gamma, horizon, (dt,), n=1, replicas=2, seed=0)

    with pytest.raises(ValueError, match="at least dt"):
        medians(0.05, 0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        medians(1.0, 0.0)
    with pytest.raises(ValueError, match="integer multiple"):
        medians(1.05, 0.1)
    with pytest.raises(CapacityError, match="step count"):
        medians(2.0e8, 1.0)
    # an infinite step count is refused before int(round(horizon / dt)) could overflow
    for horizon, dt in ((math.inf, 0.01), (1.0, 1e-320), (math.inf, math.inf)):
        with pytest.raises(CapacityError, match="step count inf|step count nan"):
            medians(horizon, dt)
    with pytest.raises(ValueError, match="at least dt"):
        medians(math.nan, 0.1)


def test_path_capacity_is_checked_before_drawing(monkeypatch):
    # one replica's path points against PATH_CAPACITY, for every route that builds paths
    monkeypatch.setattr(confheat.process, "_increment_blocks", _no_draws)
    monkeypatch.setattr(confheat.process, "PATH_CAPACITY", 3 * 11 - 1)
    gamma = cfg([0.0, 0.5, 1.0])
    with pytest.raises(CapacityError, match="path array"):
        bn_refinement_medians(gamma, 1.0, (0.1,), n=1, replicas=10, seed=0)


def test_path_blocks_terminal_variance():
    [(_, paths)] = confheat.process._path_blocks(substream(9, TAG_PATHS), np.zeros((4000, 1)), 20, 0.05, 1)
    terminal = paths[0, :, -1, 0]
    var = terminal.var(ddof=1)
    se_var = var * math.sqrt(2.0 / (len(terminal) - 1))
    assert abs(var - 2.0) <= 4 * se_var


def test_path_blocks_particle_independence():
    start = np.array([[0.0], [0.0001]])
    disp = np.concatenate([paths[:, :, -1, 0] - paths[:, :, 0, 0] for _, paths in
                           confheat.process._path_blocks(substream(77, TAG_PATHS), start, 1, 0.2, 4000)])
    assert disp.shape == (4000, 2)
    corr = np.corrcoef(disp[:, 0], disp[:, 1])[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(len(disp))


def test_marginal_matches_one_heat_step():
    d_stat, p = marginal_ks(1, 0.2, replicas=10000, seed=5)
    assert p > 0.001
    d_stat2, p2 = marginal_ks(2, 0.5, replicas=10000, seed=6)
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
    for dim, t, n, seed in [(1, 0.2, 50, 1), (2, 0.5, 200, 2), (3, 0.3, 1000, 3), (1, 1.0, 5000, 4),
                            (2, 0.2, 10000, 5)]:
        d, p = marginal_ks(dim, t, replicas=n, seed=seed)
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
    # the exact CDF of a heat step with 10% too much variance (2.2 t per coordinate).  At 10^4 replicas
    # the d = 1 p-value lies near 1e-6 across seeds (median 2e-6 over seeds 0-39, under 1e-6 for 45%);
    # at 10^5 replicas it is below 1e-39 for every one of them.  d = 2 at 10^4 replicas stays below 1e-6
    # over seeds 0-39.
    monkeypatch.setattr(confheat.process, "tail_mass",
                        lambda params, r: tail_mass(HeatKernelParams(params.dim, 1.1 * params.t), r))
    _, p = marginal_ks(1, 0.2, replicas=100_000, seed=5)
    assert p < 1e-6
    _, p2 = marginal_ks(2, 0.5, replicas=10000, seed=6)
    assert p2 < 1e-6


def test_process_marginal_stream_disjoint_from_bn_replicas(monkeypatch):
    # B_n level k draws all its replicas from the key (seed, TAG_PATHS, k); the marginal check must not draw from it
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
    assert len(marginal) == 1 and bn == [(112, TAG_PATHS, 0), (112, TAG_PATHS, 1)]
    assert set(marginal).isdisjoint(bn)


def test_bn_refinement_medians_decrease():
    gamma = cfg([0.0, 0.5], radius=1.0)
    med = bn_refinement_medians(gamma, 1.0, (1e-2, 1e-3), n=1, replicas=100, seed=14)
    assert med[1] < med[0]


def test_oscillation_far_tail_trivial():
    rep = oscillation_check(1, 0.01, r=20.0 * math.sqrt(2 * 0.01), replicas=500, seed=15)
    assert rep.empirical == 0.0 and rep.passed


def test_oscillation_stated_example():
    # delta = 0.01, r = 1: bound = 2 tau(0.01, 0.25) = 4 Phi-bar(0.25/sqrt(0.02))
    bound = 2.0 * tau(1, 0.01, 0.25)
    assert bound == pytest.approx(4.0 * ndtr(-0.25 / math.sqrt(0.02)), rel=1e-12)
    assert bound == pytest.approx(0.1542, abs=2e-4)
    rep = oscillation_check(1, 0.01, r=1.0, replicas=4000, seed=16)
    assert rep.bound == pytest.approx(bound, rel=1e-12)
    assert rep.passed and rep.empirical < 0.06


def test_oscillation_monotone_in_r():
    reps = [
        oscillation_check(2, 0.02, r=r, replicas=3000, seed=17)
        for r in (0.5, 0.8, 1.2)
    ]
    assert all(a.bound > b.bound for a, b in zip(reps, reps[1:]))
    assert all(a.empirical >= b.empirical for a, b in zip(reps, reps[1:]))
    assert all(r.passed for r in reps)


def test_oscillation_validation():
    with pytest.raises(ValueError):
        oscillation_check(1, 0.01, r=1.0, replicas=10, seed=0, substeps=32)


def _no_draws(*args, **kwargs):
    raise AssertionError("a refused call must draw nothing")


def test_oscillation_substeps_capped_before_drawing(monkeypatch):
    # past the cap one replica's substeps^2 pairwise differences alone pass PAIR_POINTS
    assert OSCILLATION_MAX_SUBSTEPS**2 <= PAIR_POINTS < (OSCILLATION_MAX_SUBSTEPS + 1) ** 2
    monkeypatch.setattr(confheat.process, "_path_blocks", _no_draws)
    with pytest.raises(CapacityError, match="substeps"):
        oscillation_check(1, 0.01, r=1.0, replicas=10, seed=0, substeps=OSCILLATION_MAX_SUBSTEPS + 1)


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


def test_collision_validation(monkeypatch):
    # collisions are a pair diagnostic: any other count, like a bad epsilon list, is refused before a single
    # normal is drawn
    monkeypatch.setattr(confheat.process, "_increment_blocks", _no_draws)
    for dim in (1, 2, 3):
        points = np.arange(4 * dim, dtype=float).reshape(4, dim) / 10.0
        for n in (1, 3, 4):
            with pytest.raises(ValueError, match=f"exactly 2 particles, got {n}"):
                collision_report(cfg(points[:n], dim=dim), 0.2, 0.01, 100, 0, (0.1,))
    two = cfg([0.0, 1.0])
    with pytest.raises(ValueError):
        collision_report(two, 1.0, 0.1, 100, 0, (0.1, 0.2))


# ---------------------------------------------------------------------------
# the block sampler against whole-batch oracles


def _brownian_steps(rng, n, dim, steps, dt, m):
    """Oracle: the steps of m replicas of n paths from one draw, shape (m, n, steps, dim)."""
    inc = rng.standard_normal((m, n, steps, dim))
    inc *= math.sqrt(2.0 * dt)
    return inc


def _brownian_paths(rng, start, steps, dt, m):
    """Oracle: m replicas of paths from one draw, shape (m, n, steps + 1, dim), as running sums of the steps."""
    n, dim = start.shape
    paths = np.empty((m, n, steps + 1, dim))
    paths[:, :, 0, :] = start
    np.cumsum(_brownian_steps(rng, n, dim, steps, dt, m), axis=2, out=paths[:, :, 1:, :])
    paths[:, :, 1:, :] += start[:, None, :]
    return paths


def _collision_oracle(gamma, horizon, dt, replicas, seed, eps):
    """In-law oracle: fractions and crossing fraction from one replica-major whole-batch draw of the pair's
    scaled difference W = (X_1 - X_2) / sqrt(2), a standard path of step variance 2 dt, so D = sqrt(2) W plus
    the start gap.  On the line one bridge uniform per replica decides: D came below e iff it did on the grid
    or u >= prod_k (1 - q_k) over the step dips q of ``_bridge_dips``; e = 0 gives the crossing, so both are
    exact in law for the continuous path."""
    start = gamma.expand()
    steps = round(horizon / dt)
    w = _brownian_paths(substream(seed, TAG_COLLISION), np.zeros((1, gamma.dim)), steps, dt, replicas)
    diff = math.sqrt(2.0) * w[:, 0] + (start[0] - start[1])
    fractions = tuple(float(np.mean(np.sqrt(np.sum(diff * diff, axis=-1).min(axis=1)) < e)) for e in eps)
    if gamma.dim != 1:
        return fractions, None
    u = substream(seed, TAG_COLLISION, 1).random(replicas)

    def below(e):
        grid, q = _bridge_dips(diff[..., 0], e, dt)
        return float(np.mean(grid | (u >= np.prod(1.0 - q, axis=1))))

    return tuple(below(e) for e in eps), below(0.0)


def _bridge_dips(line, e, dt):
    """For replicas of the difference D of two particles on the line (rows of grid values, steps dt apart):
    whether |D| < e on the grid, and per step the probability exp(-a_k a_(k+1) / (2 dt)), a = |D| - e, that
    its bridge comes below e between the two grid times (1 for a step that changes D's sign)."""
    a = np.abs(line) - e
    above = np.maximum(a, 0.0)
    same_sign = line[:, :-1] * line[:, 1:] > 0.0
    return np.any(a < 0.0, axis=1), np.where(same_sign, np.exp(above[:, :-1] * above[:, 1:] / (-2.0 * dt)), 1.0)


def _full_coordinate_collisions(gamma, horizon, dt, replicas, rng, eps):
    """Fractions and crossing fraction from both particles' paths in every replica: the route that simulates
    the particles themselves.  The fractions are grid minima, except on the line, where one bridge uniform per
    grid step decides whether D came below e between grid times (e = 0 for the crossing), which makes both
    exact in law for the continuous path."""
    steps = round(horizon / dt)
    pos = _brownian_paths(rng, gamma.expand(), steps, dt, replicas)
    diff = pos[:, 0] - pos[:, 1]
    if gamma.dim != 1:
        min_dist = np.sqrt(np.sum(diff * diff, axis=-1).min(axis=1))
        return [float(np.mean(min_dist < e)) for e in eps], None
    r = rng.random((replicas, steps))

    def below(e):
        grid, q = _bridge_dips(diff[..., 0], e, dt)
        return float(np.mean(grid | np.any(r < q, axis=1)))

    return [below(e) for e in eps], below(0.0)


def _exceedance_oracle(dim, delta, r, replicas, seed, substeps):
    """Replicas whose largest pairwise grid distance passes r, over batches of 100."""
    rng = substream(seed, TAG_OSCILLATION)
    count = 0
    for done in range(0, replicas, 100):
        pos = _brownian_paths(rng, np.zeros((1, dim)), substeps, delta / substeps, min(100, replicas - done))[:, 0]
        diff = pos[:, :, None, :] - pos[:, None, :, :]
        count += int(np.sum(np.sqrt(np.max(np.sum(diff * diff, axis=-1), axis=(1, 2))) > r))
    return count


def _few_rows(monkeypatch, rows, points_per_row):
    monkeypatch.setattr(confheat.rng, "BLOCK_POINTS", rows * points_per_row + 1)


def test_increment_blocks_survive_an_overwriting_consumer(monkeypatch):
    # the consumer may overwrite each block in place: the next draw refills the buffer
    n, dim, steps, dt, replicas = 2, 3, 7, 0.02, 23
    want = _brownian_steps(substream(5, 2), n, dim, steps, dt, replicas)
    for rows in (1, 4, 5):
        _few_rows(monkeypatch, rows, n * (steps + 1))
        blocks = []
        for offset, inc in confheat.process._increment_blocks(substream(5, 2), n, dim, steps, dt, replicas):
            blocks.append(inc.copy())
            np.cumsum(inc, axis=2, out=inc)
            inc *= -7.0
        assert [len(inc) for inc in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), want)


def test_path_blocks_reproduce_one_draw(monkeypatch):
    start = np.array([[0.0, 1.0], [-0.5, 0.2], [2.0, 2.0]])
    steps, dt, replicas = 5, 0.03, 17
    want = _brownian_paths(substream(4, 1), start, steps, dt, replicas)
    for rows in (1, 4, 17, 100):
        _few_rows(monkeypatch, rows, 3 * (steps + 1))
        blocks = [(offset, paths.copy())
                  for offset, paths in confheat.process._path_blocks(substream(4, 1), start, steps, dt, replicas)]
        assert [offset for offset, _ in blocks] == list(range(0, replicas, min(rows, replicas)))
        assert all(len(paths) <= rows for _, paths in blocks)
        assert np.array_equal(np.concatenate([paths for _, paths in blocks]), want)
    # one replica of 50 steps from the TAG_PATHS stream, whose first block is the whole draw
    start = cfg([0.0, 0.3, -1.0]).expand()
    [(_, paths)] = confheat.process._path_blocks(substream(8, TAG_PATHS, 5), start, 50, 0.01, 1)
    assert np.array_equal(paths, _brownian_paths(substream(8, TAG_PATHS, 5), start, 50, 0.01, 1))


@pytest.mark.parametrize("rows", [1, 5, None])
@pytest.mark.parametrize("steps", [1, 64, 65, 100, 127, 1000])
def test_increment_blocks_equal_the_plain_one_draw(monkeypatch, steps, rows):
    # every path length is drawn and scaled: the steps are one draw's bit for bit, whatever the block size
    n, dim, dt, replicas = 2, 3, 0.5 / steps, 13
    if rows:
        _few_rows(monkeypatch, rows, n * (steps + 1))
    blocks = [(offset, inc.copy()) for offset, inc in
              confheat.process._increment_blocks(substream(7, steps), n, dim, steps, dt, replicas)]
    assert [offset for offset, _ in blocks] == list(range(0, replicas, rows or replicas))
    want = _brownian_steps(substream(7, steps), n, dim, steps, dt, replicas)
    assert np.array_equal(np.concatenate([inc for _, inc in blocks]), want)


def test_oscillation_reports_are_pinned():
    # the shipped config (seed 113) and two nearer radii: a change of the path sampler or of the pairwise
    # spread shows here
    doc = json.loads((CONFIG_DIR / "oscillation.json").read_text())
    p = doc["params"]
    rep = oscillation_check(p["dim"], p["delta"], p["r"], doc["replicas"], doc["seed"])
    assert (rep.empirical, rep.std_error, rep.bound) == (0.0001, 0.0001, 0.5776887326929698)
    assert oscillation_check(1, 0.01, 0.3, 10_000, 113).empirical == 0.0962
    assert oscillation_check(2, 0.01, 0.4, 10_000, 113).empirical == 0.0468


#: pairs of particles: the three on the line take the closed form, the others read the grid
COLLISION_CASES = {
    "d1-two": (cfg([0.0, 0.1]), 3001),
    "d1-far": (cfg([0.0, 2.0]), 1201),  # few replicas come within epsilon
    "d1-mixed": (cfg([0.35, 0.2]), 1201),  # the second start on the left; epsilon above and below the gap
    "d2": (cfg([[0.0, 0.0], [0.3, -0.4]], dim=2), 1201),
    "d2-two": (cfg([[0.0, 0.0], [0.1, 0.05]], dim=2), 1201),
    "d3": (cfg([[0.0, 0.0, 0.0], [0.03, 0.03, 0.0]], dim=3), 1201),
}


def _grid_collisions(gamma, horizon, dt, replicas, seed):
    """Oracle: per replica the minimum distance of the pair over the grid, from one replica-major draw of the
    whole horizon for all replicas: their difference D, from the start gap with step variance 4 dt."""
    start = gamma.expand()
    gap = start[0] - start[1]
    inc = substream(seed, TAG_COLLISION).standard_normal((replicas, round(horizon / dt), gamma.dim))
    inc *= math.sqrt(4.0 * dt)
    inc[:, 0] += gap
    path = np.cumsum(inc, axis=1)
    return np.sqrt(np.minimum(np.sum(path * path, axis=-1).min(axis=1), np.sum(gap * gap)))


def _line_minimum_oracle(gap, horizon, replicas, seed):
    """The closed-form minimum of D from one whole-batch draw of each stream: D_T - gap = sqrt(4 horizon) z,
    and M = (gap + D_T - sqrt((D_T - gap)^2 - 8 horizon log U)) / 2 with U = 1 - u."""
    step = substream(seed, TAG_COLLISION).standard_normal(replicas) * math.sqrt(4.0 * horizon)
    log_u = np.log1p(-substream(seed, TAG_COLLISION, 1).random(replicas))
    return (gap + (gap + step) - np.sqrt(step * step - 8.0 * horizon * log_u)) / 2.0


@pytest.mark.parametrize("small", [False, True], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("case", sorted(COLLISION_CASES))
def test_collision_report_equals_whole_batch_oracle(monkeypatch, case, small):
    gamma, replicas = COLLISION_CASES[case]
    horizon, dt, eps = 0.2, 0.001, (0.3, 0.1, 0.02)  # 200 grid steps
    start = gamma.expand()
    if small:
        # the grid in blocks of 3 replicas (the last of 1); the line in blocks of 302 replicas of one step
        _few_rows(monkeypatch, 3, 201)
    rep = collision_report(gamma, horizon, dt, replicas, seed=21, epsilon_list=eps)
    if gamma.dim == 1:  # no grid: the closed form, bit for bit, whatever the block size
        minimum = _line_minimum_oracle(abs(start[0, 0] - start[1, 0]), horizon, replicas, 21)
        assert rep.fractions == tuple(float(np.mean(minimum < e)) for e in eps)
        assert rep.crossing_fraction == float(np.mean(minimum <= 0.0))
        assert 0.0 < rep.fractions[-1] < 1.0 and 0.0 < rep.crossing_fraction < 1.0
        return
    min_dist = _grid_collisions(gamma, horizon, dt, replicas, 21)
    assert rep.fractions == tuple(float(np.mean(min_dist < e)) for e in eps)
    assert rep.crossing_fraction is None
    assert 0.0 < rep.fractions[-1] < 1.0


@pytest.mark.parametrize("case", sorted(COLLISION_CASES))
def test_collision_report_agrees_in_law_with_replica_major_oracle(case):
    # the report (the closed form on the line) against one replica-major whole-batch draw of the pair's
    # scaled difference
    gamma, replicas = COLLISION_CASES[case]
    horizon, dt, eps = 0.2, 0.001, (0.3, 0.1, 0.02)
    rep = collision_report(gamma, horizon, dt, replicas, seed=27, epsilon_list=eps)
    fractions, crossing = _collision_oracle(gamma, horizon, dt, replicas, 27, eps)
    pairs = list(zip(rep.fractions, fractions))
    if crossing is not None:
        pairs.append((rep.crossing_fraction, crossing))
    for got, want in pairs:
        assert abs(got - want) <= 4.0 * math.hypot(binomial_se(got, replicas), binomial_se(want, replicas))


class _CountingStream:
    """A generator that counts the normals drawn through it."""

    def __init__(self, rng):
        self.rng, self.normals = rng, 0

    def standard_normal(self, *args, **kwargs):
        z = self.rng.standard_normal(*args, **kwargs)
        self.normals += z.size
        return z

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize("case", sorted(COLLISION_CASES))
def test_collision_draws_only_through_the_increment_sampler(monkeypatch, case):
    # every normal comes from _increment_blocks, one call over the whole horizon for all replicas
    gamma, replicas = COLLISION_CASES[case]
    horizon, dt, eps = 0.2, 0.001, (0.3, 0.1, 0.02)
    dim = gamma.dim
    streams, calls, yielded = [], [], []
    increment_blocks = confheat.process._increment_blocks

    def counting_substream(*key):
        streams.append(_CountingStream(substream(*key)))
        return streams[-1]

    def recording_increment_blocks(rng, *args):
        calls.append(args)
        for offset, inc in increment_blocks(rng, *args):
            yielded.append(inc.size)
            yield offset, inc

    monkeypatch.setattr(confheat.process, "substream", counting_substream)
    monkeypatch.setattr(confheat.process, "_increment_blocks", recording_increment_blocks)
    collision_report(gamma, horizon, dt, replicas, seed=21, epsilon_list=eps)
    if dim == 1:  # one step of variance 4 horizon per replica, the difference's endpoint
        assert calls == [(1, 1, 1, 2.0 * horizon, replicas)]
        assert sum(yielded) == sum(stream.normals for stream in streams) == replicas
        return
    assert calls == [(1, dim, 200, 2.0 * dt, replicas)]  # the difference alone, with step variance 4 dt
    want = replicas * 200 * dim
    assert sum(yielded) == sum(stream.normals for stream in streams) == want


CONFIG_DIR = pathlib.Path(__file__).parent.parent / "scripts" / "configs"


@pytest.mark.parametrize("name, fractions, crossing", [
    ("collision", (0.2304, 0.0037, 0.0), None),
    ("collision_1d", (0.9797,), 0.9592),
])
def test_collision_reports_of_shipped_configs_are_pinned(name, fractions, crossing):
    # the exact reports at the shipped seeds: a refactor that moves one replica's decision shows here.
    # collision_1d takes the closed-form minimum; its grid route read 0.9637 and 0.9621, the first about
    # 9 of its SE below the continuous path's 0.98005
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    p = doc["params"]
    rep = collision_report(Configuration.from_points(p["dim"], p["starts"]), p["horizon"], p["dt"],
                           doc["replicas"], doc["seed"], p["epsilon_list"])
    assert rep.epsilons == tuple(p["epsilon_list"]) and rep.replicas == doc["replicas"]
    assert rep.fractions == fractions
    assert rep.crossing_fraction == crossing
    assert rep.crossing_reference == (None if crossing is None else 2.0 * float(ndtr(-0.1 / 2.0)))


def test_process_draws_normals_in_one_place():
    # one sampler: a second standard_normal call site in the process layer must not come back unnoticed
    tree = ast.parse(pathlib.Path(confheat.process.__file__).read_text())
    sites = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "standard_normal"]
    assert sites == ["_increment_blocks"]


def test_collision_report_signature_is_pinned():
    assert list(inspect.signature(collision_report).parameters) == [
        "gamma", "horizon", "dt", "replicas", "seed", "epsilon_list"]


@pytest.mark.parametrize("case", ["d1-two", "d2-two"])
def test_collision_report_agrees_in_law_with_full_coordinates(case):
    # the report (the closed-form minimum on the line) against both particles' paths from another generator,
    # with one bridge uniform per step on the line.  Epsilon stays below the gap 0.1 on the line, where the
    # fraction below 0.1 would be 1 on both sides and compare nothing
    if case == "d1-two":
        gamma, eps = cfg([0.0, 0.1]), (0.09, 0.05, 0.01)
    else:
        gamma, eps = cfg([[0.0, 0.0], [0.3, 0.0]], dim=2), (0.3, 0.1, 0.02)
    horizon, dt, replicas = 0.2, 0.01, 20_000
    rep = collision_report(gamma, horizon, dt, replicas, seed=22, epsilon_list=eps)
    fractions, crossing = _full_coordinate_collisions(gamma, horizon, dt, replicas, np.random.default_rng(22), eps)
    pairs = list(zip(rep.fractions, fractions))
    if case == "d1-two":
        pairs.append((rep.crossing_fraction, crossing))
    else:
        assert rep.crossing_fraction is None
    for got, want in pairs:
        assert 0.0 < want < 1.0
        assert abs(got - want) <= 4.0 * math.hypot(binomial_se(got, replicas), binomial_se(want, replicas))


#: two particles on the line: starts, horizon, epsilons; start gaps of both signs, epsilon at and above the gap
LINE_CASES = [
    ((0.0, 0.1), 1.0, (0.05,)),
    ((0.7, 0.2), 0.25, (0.6, 0.5, 0.3, 0.1)),
    ((-0.4, 0.6), 2.0, (1.5, 0.2, 0.01)),
    ((1.3, -0.45), 0.05, (1.2, 1.0)),
]


@pytest.mark.parametrize("starts, horizon, eps", LINE_CASES)
def test_line_collisions_match_closed_forms(starts, horizon, eps):
    # 10^5 replicas: each fraction within 4 SE of P(M < e) = 2 Phi((e - g) / (2 sqrt(T))) for the gap g, and
    # exactly 1 once e >= g; the crossing fraction within 4 SE of the reflection value 2 Phi(-g / (2 sqrt(T)))
    replicas, gap, sd = 100_000, abs(starts[0] - starts[1]), 2.0 * math.sqrt(horizon)
    rep = collision_report(cfg(list(starts)), horizon, horizon / 10, replicas, seed=28, epsilon_list=eps)
    exact = [min(1.0, 2.0 * float(ndtr((e - gap) / sd))) for e in eps]
    crossing = 2.0 * float(ndtr(-gap / sd))
    assert rep.crossing_reference == pytest.approx(crossing, rel=1e-12)
    # the bounds the report rows carry: the same closed form, and sqrt(4T) = 2 sqrt(T) bit for bit
    assert rep.bounds == tuple(exact)
    assert "no grid is read" in rep.note
    for got, want in [*zip(rep.fractions, exact), (rep.crossing_fraction, crossing)]:
        assert abs(got - want) <= 4.0 * binomial_se(want, replicas), (got, want)


@pytest.mark.parametrize("gap, horizon", [(0.1, 0.5), (0.8, 2.0)])
def test_line_minimum_has_the_reflection_joint_law(gap, horizon):
    # P(M <= m, D_T >= b) = Phi((2m - b - g) / (2 sqrt(T))) for m <= min(g, b), at 4 SE over 10^5 replicas;
    # m = g gives the endpoint's own law
    replicas, sd = 100_000, 2.0 * math.sqrt(horizon)
    minimum, end = confheat.process._line_minimum(gap, horizon, replicas, seed=29)
    checked = 0
    for m in (gap, 0.5 * gap, 0.0, -0.5 * sd):
        for b in (gap + 0.5 * sd, gap, 0.5 * gap, m, -sd):
            if m <= min(gap, b):
                want = float(ndtr((2.0 * m - b - gap) / sd))
                got = float(np.mean((minimum <= m) & (end >= b)))
                assert abs(got - want) <= 4.0 * binomial_se(want, replicas), (m, b, got, want)
                checked += 1
    assert checked == 15


class _FixedStream:
    """A stream whose normals repeat fixed values and whose uniforms are all 0, so U = 1 - u = 1."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, size=None, out=None):
        out[...] = np.resize(self.normals, out.shape)
        return out

    def random(self, size):
        return np.zeros(size)


def test_line_minimum_counts_strictly_below_epsilon_and_a_touch_of_zero_as_a_crossing(monkeypatch):
    # with U = 1 no path dips below its ends, so M = min(g, D_T): exact here, with D_T = 0.5 + z after one step
    # of standard deviation sqrt(4 * 0.25) = 1 and dyadic z
    z = np.array([0.25, 0.0, -0.25, -0.5, -0.75])  # M = 0.5, 0.5, 0.25, 0.0, -0.25
    monkeypatch.setattr(confheat.process, "substream", lambda *key: _FixedStream(z))
    rep = collision_report(cfg([0.0, 0.5]), 0.25, 0.05, len(z), seed=0, epsilon_list=(0.5, 0.25))
    # a minimum equal to epsilon is not below it, as on the grid; a minimum of 0 has crossed
    assert rep.fractions == (3 / 5, 2 / 5)
    assert rep.crossing_fraction == 2 / 5


def test_process_report_names_the_time_its_marginal_is_tested_at(monkeypatch):
    # the marginal is tested at t itself, whatever the B_n grid's dt
    seen = []
    monkeypatch.setattr(confheat.process, "tail_mass", lambda params, r: seen.append(params.t) or tail_mass(params, r))
    for t, s in ((0.02, "0.02"), (1.0, "1")):
        p = {"dim": 1, "t": t, "dt": 0.001, "dt_coarse": 0.01, "n": 1, "bn_replicas": 20, "gamma": None}
        rows = confheat.experiments.EXPERIMENTS["process"].run(p, 112, 200, 1).rows
        assert seen.pop() == t
        assert rows[0]["measurement"] == "marginal_ks_p" and rows[0]["note"].endswith(f" at s = {s}")


def test_process_report_of_shipped_config_is_pinned():
    # the B_n medians are those of running sums of plain steps; the marginal tests one step of variance 2 t
    doc = json.loads((CONFIG_DIR / "process.json").read_text())
    p = dict(doc["params"], gamma=None)
    rows = {row["measurement"]: row for row in
            confheat.experiments.EXPERIMENTS["process"].run(p, doc["seed"], doc["replicas"], 1).rows}
    assert rows["bn_median_coarse"]["value"] == 0.24877552117813329
    assert rows["bn_median_fine"]["value"] == 0.11121686472798081
    assert rows["marginal_ks_p"]["value"] == 0.28112418163020453
    assert rows["marginal_ks_p"]["note"] == "KS statistic 0.009886 at s = 1"


@pytest.mark.parametrize("rows", [None, 3])
def test_marginal_radii_equal_one_draw(monkeypatch, rows):
    # the marginal draws one step of variance 2 t per replica: its steps are one draw's bit for bit, and so
    # are the radii
    seen, blocks = [], []
    increment_blocks = confheat.process._increment_blocks

    def recording_tail_mass(params, r):
        seen.append(np.array(r))
        return tail_mass(params, r)

    def recording_increment_blocks(*args):
        for offset, inc in increment_blocks(*args):
            blocks.append((offset, inc.copy()))
            yield offset, inc

    monkeypatch.setattr(confheat.process, "tail_mass", recording_tail_mass)
    monkeypatch.setattr(confheat.process, "_increment_blocks", recording_increment_blocks)
    for dim, t, n, seed in [(1, 0.3, 2003, 1), (2, 0.2, 1001, 2), (3, 0.1, 50, 3)]:
        if rows:
            _few_rows(monkeypatch, rows, 2)
        blocks.clear()
        marginal_ks(dim, t, replicas=n, seed=seed)
        assert [offset for offset, _ in blocks] == list(range(0, n, rows or n))
        want_steps = _brownian_steps(substream(seed, TAG_MARGINAL), 1, dim, 1, t, n)
        assert np.array_equal(np.concatenate([inc for _, inc in blocks]), want_steps)
        end = want_steps[:, 0, 0]
        assert np.array_equal(seen.pop(), np.sort(np.sqrt(np.sum(end * end, axis=-1))))


@pytest.mark.parametrize("rows", [None, 5])
def test_oscillation_exceedances_equal_pairwise_oracle(monkeypatch, rows):
    # d = 1 takes max - min per replica, d = 2 the pairwise route; both must count what the pairwise maximum counts
    draw = np.random.default_rng(160)
    for k in range(6):
        dim = 1 if k < 4 else 2
        substeps = int(draw.choice([64, 65, 100]))
        delta = float(np.exp(draw.uniform(np.log(1e-3), np.log(1.0))))
        u = float(draw.uniform())
        replicas = int(draw.integers(400, 1600))
        seed = int(draw.integers(1 << 30))
        if rows:
            _few_rows(monkeypatch, rows, substeps + 1)
        replicas += replicas % confheat.rng.block_rows(substeps + 1) == 0  # the last block is ragged
        # a path whose endpoint is past r exceeds r, so replicas * tau(delta, r) bounds the expected count
        # from below; r lies between 1.5 sqrt(2 delta) and the radius where that bound is 10
        radii = np.linspace(1.5, 6.0, 4501) * math.sqrt(2.0 * delta)
        r_max = radii[np.flatnonzero(replicas * tau(dim, delta, radii) >= 10.0)[-1]]
        r = radii[0] + u * (r_max - radii[0])
        rep = oscillation_check(dim, delta, r, replicas, seed, substeps=substeps)
        want = _exceedance_oracle(dim, delta, r, replicas, seed, substeps)
        assert 0 < want < replicas
        assert rep.empirical == want / replicas


def _bn_level_maxima(paths, n):
    """Per replica of a whole level (replicas, particles, steps + 1, dim), the largest B_n step increment."""
    b = np.exp(-np.sqrt(np.sum(paths * paths, axis=-1)) / n).sum(axis=1)
    return np.abs(np.diff(b, axis=1)).max(axis=1)


def _keyed_bn_maxima(gamma, horizon, dt, n, replicas, seed, level):
    """The per-replica keyed route: replica r of level k draws its own stream (seed, TAG_PATHS, k 2^20 + r)."""
    start, steps = gamma.expand(), round(horizon / dt)
    maxima = np.empty(replicas)
    for r in range(replicas):
        paths = _brownian_paths(substream(seed, TAG_PATHS, (level << 20) + r), start, steps, dt, 1)[0]
        b = np.exp(-np.sqrt(np.sum(paths * paths, axis=-1)) / n).sum(axis=0)
        maxima[r] = np.abs(np.diff(b)).max()
    return maxima


BN_CASES = {
    "d1": (cfg([0.0, 0.5, 0.5]), 2),
    "d2": (cfg([[0.0, 0.0], [0.3, -0.4]], dim=2), 1),
}


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("case", sorted(BN_CASES))
def test_bn_refinement_medians_equal_whole_level_oracle(monkeypatch, case, rows):
    gamma, n = BN_CASES[case]
    horizon, dt_list, replicas, seed = 0.2, (0.02, 0.005), 301, 24
    start = gamma.expand()
    if rows:
        # the coarse level in blocks of 3 replicas (the last of 1), the fine one in blocks of 1
        _few_rows(monkeypatch, rows, len(start) * 11)
    med = bn_refinement_medians(gamma, horizon, dt_list, n, replicas, seed)
    want = [float(np.median(_bn_level_maxima(
        _brownian_paths(substream(seed, TAG_PATHS, k), start, round(horizon / dt), dt, replicas), n)))
        for k, dt in enumerate(dt_list)]
    assert med == want
    assert med[1] < med[0]


@pytest.mark.parametrize("case", sorted(BN_CASES))
def test_bn_maxima_agree_in_law_with_keyed_replicas(case):
    # one stream per level against the former route of one stream per replica (disjoint keys: level 1 of each)
    gamma, n = BN_CASES[case]
    horizon, dt, replicas, seed = 0.2, 0.01, 2000, 25
    got = confheat.process._bn_max_increments(substream(seed, TAG_PATHS, 1), gamma.expand(), 20, dt, n, replicas)
    want = _keyed_bn_maxima(gamma, horizon, dt, n, replicas, seed, level=1)
    assert ks_2samp(got, want).pvalue > 1e-3


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_collision_memory_is_bounded_by_blocks():
    # the collision_1d battery config: 10 000 replicas of 2 paths of 1001 points (a whole batch held 79 MB)
    peak = _traced_peak(lambda: collision_report(cfg([0.0, 0.1]), 1.0, 1e-3, 10_000, 115, (0.05,)))
    assert peak < 16e6


def test_marginal_memory_is_bounded_by_blocks():
    # the process battery config: 10 000 replicas of 1001 points (a whole batch held 61 MB)
    peak = _traced_peak(lambda: marginal_ks(1, 1.0, 10_000, 112))
    assert peak < 8e6

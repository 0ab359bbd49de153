"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Every tolerance is pinned here; statistical checks use 4 standard errors and
fixed seeds, so the suite is deterministic end to end.
"""
import contextlib
import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from confheat.cli import main as cli_main
from confheat.harmonic import (
    correlation_function,
    correlation_product_bound,
    inverse_k_transform,
    k_transform,
    k_transform_finite,
    permanent_bruteforce,
    permanent_kernel,
    product_kernel,
    star_kernel,
)
from confheat.kernel import (
    HeatKernelParams,
    chapman_kolmogorov_residual,
    density,
    fit_condition_certificate,
    tail_mass,
    tau,
)
from confheat.metrics import d1, flat_metric, rho, rho_bruteforce
from confheat.points import Configuration, Window, sample_poisson
from confheat.process import collision_report, marginal_ks, oscillation_check
from confheat.profiles import BoxIndicator, GaussianBump, SmoothedIndicator
from confheat.rng import substream
from confheat.semigroup import (
    CylinderFunction,
    ExpFunctional,
    KPolynomialFunctional,
    SmoothBump,
    WindowedConstant,
    WindowedCount,
    WindowedExponential,
    apply_exact_exponential,
    apply_mc,
    feller_probe,
    generator_residual,
    invariance_test,
    lift_kernel,
    outer_exp_neg_sum,
    outer_linear,
    outer_square,
)
from confheat.harmonic import verify_d_class


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def cfg(points, dim=1, radius=None):
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    return Configuration.from_points(dim, pts, None, radius)


def test_c01_heat_kernel_identities():
    with criterion(1, "heat-kernel identities (normalization, symmetry, Chapman-Kolmogorov)"):
        for d in (1, 2, 3):
            for t in (0.1, 1.0, 10.0):
                assert tail_mass(HeatKernelParams(d, t), 0.0) == 1.0
        rng = substream(1001, 0)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            t, s = rng.uniform(0.05, 4.0, size=2)
            x = rng.standard_normal(d) * 2
            y = rng.standard_normal(d) * 2
            p_t = HeatKernelParams(d, float(t))
            assert density(p_t, x, y) == density(p_t, y, x)
            resid = chapman_kolmogorov_residual(p_t, HeatKernelParams(d, float(s)), x, y)
            direct = density(HeatKernelParams(d, float(t + s)), x, y)
            assert resid <= 1e-10 * direct + 1e-30


def test_c02_tail_function_vs_mc_and_c3_certificate():
    with criterion(2, "tail masses vs Monte Carlo + (C3) exponential-tail certificate"):
        combos = [
            (1, 0.1, 0.3), (1, 0.5, 1.0), (1, 1.0, 2.5),
            (2, 0.1, 0.5), (2, 1.0, 2.0), (2, 2.0, 1.0),
            (3, 0.25, 1.0), (3, 0.5, 2.0), (3, 1.0, 0.5), (3, 2.0, 4.0),
        ]
        n = 100_000
        for k, (d, t, r) in enumerate(combos):
            rng = substream(1002, k)
            norms = np.linalg.norm(math.sqrt(2 * t) * rng.standard_normal((n, d)), axis=1)
            emp = float(np.mean(norms > r))
            exact = tail_mass(HeatKernelParams(d, t), r)
            se = math.sqrt(max(exact * (1 - exact), 1.0 / n) / n)
            assert abs(emp - exact) <= 4 * se, (d, t, r, emp, exact)
        for d in (1, 2, 3):
            cert = fit_condition_certificate(HeatKernelParams(d, 1.0), tail_delta=0.25)
            for r in np.linspace(0.0, 20.0, 401):
                assert tau(d, 0.25, float(r)) <= cert.tail_c * math.exp(-float(r))


def test_c03_rho_metric_and_flat_metric_oracles():
    with criterion(3, "rho assignment vs brute force; flat-metric LP vs closed forms"):
        rng = substream(1003, 0)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(0, 8))
            rad = 4.0 * math.sqrt(d) + 1.0
            g1 = cfg(rng.uniform(-4, 4, size=(n, d)), dim=d, radius=rad)
            g2 = cfg(rng.uniform(-4, 4, size=(n, d)), dim=d, radius=rad)
            assert abs(rho(g1, g2) - rho_bruteforce(g1, g2)) <= 1e-9
        # closed-form LP oracles: two-point and one-point cases
        for x, y, i in [(0.0, 1.0, 5), (0.0, 4.0, 3), (-2.0, 2.5, 4), (1.0, 6.5, 7)]:
            expected = min(abs(x - y), max(0.0, i - abs(x)) + max(0.0, i - abs(y)))
            assert abs(flat_metric(cfg([x]), cfg([y]), i) - expected) <= 1e-7
        for x, i in [(0.0, 5), (2.0, 5), (4.5, 3), (1.0, 1)]:
            expected = max(0.0, i - abs(x))
            assert abs(flat_metric(cfg([x]), Configuration.empty(1), i) - expected) <= 1e-7


def _random_product_kernel(rng, max_order=2):
    center = (float(rng.uniform(-0.5, 0.5)),)
    bump = GaussianBump(float(rng.uniform(0.3, 1.0)), center, float(rng.uniform(0.6, 1.4)))
    coeffs = {n: float(rng.uniform(-1.0, 1.0)) for n in range(1, max_order + 1)}
    return product_kernel(1, coeffs, bump, value_at_empty=float(rng.uniform(-0.5, 0.5)))


def test_c04_k_transform_algebra():
    with criterion(4, "K-transform round trip and star-convolution product rule"):
        rng = substream(1004, 0)
        for trial in range(100):
            G = _random_product_kernel(rng)
            n = int(rng.integers(0, 7))
            pts = rng.uniform(-2, 2, size=(n, 1))
            F = lambda sub: k_transform_finite(G, sub)
            got = inverse_k_transform(F, pts)
            want = G.value_at_empty if n == 0 else G.value(pts)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        for trial in range(100):
            G1 = _random_product_kernel(rng)
            G2 = _random_product_kernel(rng)
            n = int(rng.integers(0, 9))
            gamma = cfg(rng.uniform(-2, 2, size=(n, 1)), radius=3.0)
            lhs = k_transform(star_kernel(G1, G2), gamma)
            rhs = k_transform(G1, gamma) * k_transform(G2, gamma)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_c05_correlation_functions_and_permanents():
    with criterion(5, "correlation subset DP vs enumeration vs inclusion-exclusion, product bound, "
                      "subset-DP vs naive permanent"):
        rng = substream(1005, 0)
        for n in (1, 2, 3, 4, 5):
            for _ in range(8):
                m = int(rng.integers(n, 11))
                gamma = cfg(rng.uniform(-2, 2, size=(m, 1)), radius=3.0)
                theta = rng.uniform(-2, 2, size=(n, 1))
                t = float(rng.uniform(0.1, 1.5))
                a = correlation_function(gamma, theta, t, method="enumerate")
                b = correlation_function(gamma, theta, t, method="inclusion_exclusion")
                assert abs(a - b) <= 1e-9 * max(abs(a), 1e-300)
                assert abs(correlation_function(gamma, theta, t) - a) <= 1e-10 * max(abs(a), 1e-300)
                assert a <= correlation_product_bound(gamma, theta, t) * (1 + 1e-12)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(5):
                eta = rng.uniform(-1.5, 1.5, size=(n, 2))
                theta = rng.uniform(-1.5, 1.5, size=(n, 2))
                t = float(rng.uniform(0.2, 1.0))
                val = permanent_kernel(eta, theta, t)
                p = HeatKernelParams(2, t)
                mat = np.array([[density(p, a, b) for b in theta] for a in eta])
                oracle = permanent_bruteforce(mat)
                assert abs(val - oracle) <= 1e-10 * max(abs(oracle), 1e-300)


def test_c06_exponential_functional_identity():
    with criterion(6, "exponential-functional closed form vs Monte Carlo (incl. 50 points)"):
        rng = substream(1006, 0)
        fifty = cfg(rng.uniform(-3, 3, size=(50, 1)), radius=4.0)
        cases = [
            (ExpFunctional(GaussianBump(-0.5, (0.0,), 1.0)), cfg([0.0]), 0.5),
            (ExpFunctional(GaussianBump(-0.8, (0.3,), 0.7)), cfg([-1.0, -0.2, 0.4, 1.1, 2.0], radius=3.0), 0.2),
            (
                ExpFunctional(GaussianBump(-0.3, (0.0, 0.0), 1.2)),
                cfg(rng.uniform(-2, 2, size=(12, 2)), dim=2, radius=4.0),
                1.0,
            ),
            (ExpFunctional(SmoothedIndicator(-0.6, 1.0, 0.3, 1)), cfg([-1.5, -0.5, 0.0, 0.3, 0.9, 1.8], radius=3.0), 0.5),
            (ExpFunctional(GaussianBump(-0.4, (0.0,), 1.0)), fifty, 0.5),
        ]
        for k, (ef, gamma, t) in enumerate(cases):
            exact = apply_exact_exponential(ef, gamma, t)
            est = apply_mc(ef.functional(), gamma, t, replicas=100_000, seed=1006 + k)
            assert abs(est.mean - exact) <= 4 * est.std_error, (k, est.mean, exact, est.std_error)


def test_c07_poisson_invariance():
    with criterion(7, "Poisson invariance: paired MC within 4 SE for 3 functionals in d = 1-3"):
        for dim, seed in ((1, 1107), (2, 1007), (3, 1307)):
            functionals = [
                WindowedConstant(1.0),
                WindowedCount(1.0),
                WindowedExponential(GaussianBump(-0.5, (0.0,) * dim, 0.7), 1.0),
            ]
            for t in (0.1, 0.5):
                for k, F in enumerate(functionals):
                    rep = invariance_test(
                        F, dim=dim, intensity=1.0, t=t, inner_radius=1.0, replicas=100_000, seed=seed + k,
                    )
                    assert rep.passed, (dim, t, type(F).__name__, rep.mean_diff, rep.std_error)


def test_c08_markov_semigroup_of_kernels():
    with criterion(8, "semigroup property: exact two-step residual + MC two-step vs one-step"):
        ef = ExpFunctional(GaussianBump(-0.6, (0.0,), 1.1))
        gamma = cfg([0.0, 0.7, -0.4, 1.6], radius=3.0)
        t, s = 0.3, 0.5
        once = apply_exact_exponential(ef, gamma, t + s)
        two_profile = ef.phi.heat_convolve(t).heat_convolve(s)
        twice = float(np.prod(1.0 + two_profile(gamma.expand())))
        assert abs(once - twice) <= 1e-10 * abs(once)
        # Monte Carlo route: composing two heat steps vs one step of t+s
        base = gamma.expand()
        n = 100_000
        rng_two = substream(1008, 1)
        z1 = rng_two.standard_normal((n,) + base.shape)
        z2 = rng_two.standard_normal((n,) + base.shape)
        pos_two = base[None] + math.sqrt(2 * t) * z1 + math.sqrt(2 * s) * z2
        vals_two = np.prod(1.0 + ef.phi(pos_two), axis=1)
        est_one = apply_mc(ef.functional(), gamma, t + s, replicas=n, seed=1008)
        mean_two = float(vals_two.mean())
        se_two = float(vals_two.std(ddof=1) / math.sqrt(n))
        se = math.hypot(se_two, est_one.std_error)
        assert abs(mean_two - est_one.mean) <= 4 * se
        # Markov property: the constant functional is fixed with zero variance
        est = apply_mc(WindowedConstant(1.0), gamma, t, replicas=1000, seed=1)
        assert est.mean == 1.0 and est.std_error == 0.0


def test_c09_generator_residual_battery():
    with criterion(9, "generator formula: residual ratios in [1.5, 3] for 3 cylinder functions"):
        battery = [
            (
                CylinderFunction(outer_linear(1.0), (SmoothBump(1.0, (0.0,), 1 / math.sqrt(2)),)),
                cfg([0.0]),
            ),
            (
                CylinderFunction(outer_square(), (SmoothBump(1.0, (0.0,), 1 / math.sqrt(2)),)),
                cfg([0.3, -0.5], radius=1.0),
            ),
            (
                CylinderFunction(
                    outer_exp_neg_sum(2),
                    (SmoothBump(2.0, (0.0,), 0.6), SmoothBump(1.5, (0.3,), 0.5)),
                ),
                cfg([0.0, -0.3], radius=1.0),
            ),
        ]
        for k, (F, gamma) in enumerate(battery):
            report = generator_residual(F, gamma, (0.1, 0.05, 0.025), replicas=1_000_000, seed=1009 + k)
            if report.verdict == "inconclusive":
                report = generator_residual(F, gamma, (0.1, 0.05, 0.025), replicas=4_000_000, seed=1009 + k)
                assert report.verdict != "inconclusive", "inconclusive must vanish at 4x replicas"
            assert report.verdict == "pass", (k, report.ratios, report.note)


def test_c10_kernel_lift_identity_and_d_class_stability():
    with criterion(10, "kernel-lift identity within 4 SE + degraded decay certificates"):
        rng = substream(1010, 0)
        gamma = sample_poisson(Window(2.5, 1.0), 1, rng)
        t = 0.5
        battery = [
            product_kernel(1, {1: 1.0}, GaussianBump(0.6, (0.0,), 1.0), d_class="auto"),
            product_kernel(1, {1: 0.8, 2: 0.25}, GaussianBump(0.5, (0.3,), 0.9),
                           value_at_empty=0.2, d_class="auto"),
            product_kernel(1, {1: 1.0}, BoxIndicator(0.7, (-1.0,), (1.0,)), d_class="auto"),
        ]
        for k, G in enumerate(battery):
            lifted = lift_kernel(G, t)
            exact = k_transform(lifted, gamma)
            est = apply_mc(KPolynomialFunctional(G), gamma, t, replicas=100_000, seed=1010 + k)
            assert abs(est.mean - exact) <= 4 * est.std_error, (k, est.mean, exact, est.std_error)
            assert lifted.d_class is not None
            assert lifted.d_class.eps == pytest.approx(G.d_class.eps / 2.0)
            ok, worst = verify_d_class(lifted, lifted.d_class, seed=1010 + k)
            assert ok, (k, worst)


def test_c11_feller_probes():
    with criterion(11, "Feller probes: 3 schedules, value gaps decrease below 1e-3 of initial"):
        base = cfg([0.0, 1.5, -2.0], radius=10.0)
        shift_schedule = [cfg([2.0**-j, 1.5, -2.0], radius=10.0) for j in range(1, 11)]
        G = product_kernel(1, {1: 1.0}, GaussianBump(0.6, (0.0,), 1.0), d_class="auto")
        reports = [
            feller_probe(G, base, shift_schedule, rho, t=0.5, ratio_tol=1e-3),
            feller_probe(
                ExpFunctional(GaussianBump(-0.7, (0.0,), 1.0)), base, shift_schedule, rho,
                t=0.5, ratio_tol=1e-3,
            ),
        ]
        far_schedule = []
        for j in range(1, 11):
            pts = np.vstack([base.positions, [[j * math.log(2.0)]]])
            far_schedule.append(Configuration.from_points(1, pts, None, 11.0))
        reports.append(feller_probe(G, base, far_schedule, d1, t=0.5, ratio_tol=1e-3))
        for k, rep in enumerate(reports):
            assert rep.route in ("kernel-lift closed form", "exact exponential")
            assert all(a > b for a, b in zip(rep.metric_gaps, rep.metric_gaps[1:])), k
            assert all(a > b for a, b in zip(rep.value_gaps, rep.value_gaps[1:])), k
            assert rep.value_gaps[-1] < 1e-3 * rep.value_gaps[0], (k, rep.value_gaps)
            assert rep.passed


def test_c12_process_diagnostics():
    with criterion(12, "process: marginal KS, oscillation battery, collision fractions, crossing"):
        _, p = marginal_ks(1, 0.2, replicas=10_000, seed=1012)
        assert p > 0.001
        _, p2 = marginal_ks(2, 0.5, replicas=10_000, seed=1013)
        assert p2 > 0.001
        battery = [
            (1, 0.01, 0.42), (1, 0.01, 0.57), (1, 0.02, 0.8),
            (2, 0.01, 0.5), (2, 0.02, 0.9), (3, 0.01, 0.9),
        ]
        for k, (d, delta, r) in enumerate(battery):
            rep = oscillation_check(d, delta, r, replicas=4000, seed=1014 + k)
            assert rep.empirical <= rep.bound + 4 * rep.std_error, (d, delta, r, rep)
        two_d = cfg([[0.0, 0.0], [0.5, 0.0]], dim=2, radius=1.0)
        col = collision_report(two_d, 1.0, 0.01, replicas=10_000, seed=1015, epsilon_list=(0.1, 0.01, 0.001))
        assert col.fractions[0] > col.fractions[1] > col.fractions[2]
        assert col.fractions[2] < 0.01
        one_d = cfg([0.0, 0.1], radius=1.0)
        cr = collision_report(one_d, 1.0, 1e-3, replicas=10_000, seed=1016, epsilon_list=(0.05,))
        expected = 2.0 * ndtr(-0.1 / math.sqrt(4.0))
        se = math.sqrt(expected * (1 - expected) / cr.replicas)
        assert abs(cr.crossing_fraction - expected) <= 4 * se, (cr.crossing_fraction, expected, se)


def _run_battery(tmp_path, sub, threads):
    workdir = tmp_path / sub
    workdir.mkdir()
    configs = {
        "exp.json": {
            "experiment": "semigroup-exp",
            "seed": 21,
            "replicas": 4000,
            "output": "exp_report",
            "params": {
                "dim": 1,
                "t": 0.4,
                "phi": {"family": "gaussian_bump", "amp": -0.4, "width": 1.0},
                "gamma": {"dim": 1, "window_radius": 2.0, "points": [[[0.0], 1], [[0.8], 1]]},
            },
        },
        "tail.json": {
            "experiment": "tail-tau",
            "seed": 22,
            "replicas": 20000,
            "output": "tail_report",
            "params": {"dim": 2, "t": 0.5, "r_list": [0.5, 1.5], "check_certificate": False},
        },
    }
    outputs = {}
    import os

    old = os.getcwd()
    os.chdir(workdir)
    try:
        for name, doc in configs.items():
            path = workdir / name
            path.write_text(json.dumps(doc))
            code = cli_main(["run", str(path), "--threads", str(threads)])
            assert code == 0
            prefix = doc["output"]
            outputs[name] = (
                (workdir / f"{prefix}.csv").read_bytes(),
                (workdir / f"{prefix}.json").read_bytes(),
            )
    finally:
        os.chdir(old)
    return outputs


def test_c13_determinism_byte_identical(tmp_path):
    with criterion(13, "determinism: byte-identical CSV/JSON across runs and thread counts"):
        a = _run_battery(tmp_path, "run_a", threads=1)
        b = _run_battery(tmp_path, "run_b", threads=1)
        c = _run_battery(tmp_path, "run_c", threads=4)
        assert a == b, "same seed, same thread count: outputs must be byte-identical"
        assert a == c, "same seed, different thread count: outputs must be byte-identical"

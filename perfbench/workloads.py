"""The benchmark's three workloads: inputs made from the seed, the timed calls
into confheat, and the output check of every call.

A workload is built in set-up (inputs, config validation), warmed up with one
small call per layer, and then yields its cases.  A case is one timed call
into the program; its check runs after the timed phase and returns None or the
reason the result is wrong.  Oracles come from ``oracles.py`` and share no
code with the program's routes.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles
from confheat import cli, harmonic, metrics
from confheat.points import Configuration
from confheat.profiles import GaussianBump, SmoothedIndicator
from confheat.semigroup import (
    CylinderFunction,
    ExpFunctional,
    KPolynomialFunctional,
    SmoothBump,
    WindowedCount,
    WindowedExponential,
    apply_exact_exponential,
    apply_mc,
    generator_residual,
    invariance_test,
    outer_exp_neg_sum,
)

#: seed used when none is given; battery configs then keep their own seeds
DEFAULT_SEED = 0


@dataclass
class Case:
    """One timed call into the program and the check of its result."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    counts: dict = field(default_factory=dict)
    collect: Callable[[Any], Any] = lambda raw: raw


def _close(label: str, value: float, ref: float, tol: float, relative: bool = False) -> str | None:
    scale = max(abs(ref), 1e-300) if relative else max(1.0, abs(ref))
    if math.isfinite(value) and abs(value - ref) <= tol * scale:
        return None
    return f"{label}: {value!r} vs oracle {ref!r} (tolerance {tol:g}{' relative' if relative else ''})"


def _within_se(label: str, mean: float, se: float, exact: float, se_ceiling: float = math.inf) -> str | None:
    if not (math.isfinite(mean) and math.isfinite(se)):
        return f"{label}: non-finite estimate {mean!r} +- {se!r}"
    if se > se_ceiling:
        return f"{label}: SE {se:.4g} above its ceiling {se_ceiling:.4g}"
    if abs(mean - exact) > 4.0 * se:
        return f"{label}: {mean!r} is {abs(mean - exact) / se:.2f} SE from the exact {exact!r}"
    return None


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _uniform_ball(rng, n: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((n, dim))
    return g / np.linalg.norm(g, axis=1)[:, None] * (radius * rng.random(n) ** (1.0 / dim))[:, None]


# ---------------------------------------------------------------------------
# battery: the shipped configs through the CLI


class Battery:
    """Every config in scripts/configs through ``confheat.cli.main`` at one thread.

    Reports of pass k go to ``<out_dir>/pass<k>``; the CLI runs with that
    directory as working directory and a bare file stem as ``--out``, so the
    report bytes of every pass can be compared exactly.
    """

    name = "battery"
    threads = 1

    def __init__(self, root: pathlib.Path, seed: int | None, out_dir: pathlib.Path):
        self.seed = seed
        self.out_dir = out_dir
        self.configs = sorted((root / "scripts" / "configs").glob("*.json"))
        if not self.configs:
            raise FileNotFoundError(f"no configs under {root / 'scripts' / 'configs'}")
        self.path_steps = {}
        for path in self.configs:
            config, errors = cli.validate_config(path.read_text())
            if errors:
                raise ValueError(f"{path.name}: {errors}")
            self.path_steps[path.stem] = _path_steps(config)
        self._passes = 0

    def _argv(self, path: pathlib.Path) -> list[str]:
        argv = ["run", str(path), "--threads", "1", "--out", path.stem]
        return argv + (["--seed", str(self.seed)] if self.seed is not None else [])

    def warm_up(self):
        cheap = next((p for p in self.configs if p.stem == "rho"), self.configs[0])
        with _in_dir(self.out_dir / "warm-up"):
            cli.main(self._argv(cheap))

    def begin_pass(self):
        self._passes += 1
        return _in_dir(self.out_dir / f"pass{self._passes}")

    def cases(self, threads: int | None = None) -> list[Case]:
        return [self._case(path) for path in self.configs]

    def _case(self, path: pathlib.Path) -> Case:
        stem = path.stem

        def collect(code):
            return code, pathlib.Path(f"{stem}.csv").read_bytes(), pathlib.Path(f"{stem}.json").read_bytes()

        def check(result):
            code, csv_bytes, json_bytes = result
            if code != 0:
                return f"{stem}: exit code {code}"
            verdict = json.loads(json_bytes).get("verdict")
            return None if verdict == "pass" else f"{stem}: verdict {verdict!r}"

        counts = {"path_steps": self.path_steps[stem]} if self.path_steps[stem] else {}
        return Case(f"battery.{stem}", lambda: cli.main(self._argv(path)), check, counts, collect)


def _path_steps(config: dict) -> int:
    """Particle-steps of the discretized paths a process-layer config simulates."""
    p, n = config["params"], config["replicas"]
    if config["experiment"] == "collision":
        return n * len(p["starts"]) * round(p["horizon"] / p["dt"])
    if config["experiment"] == "oscillation":
        return n * p["substeps"]
    if config["experiment"] == "process":
        bn_steps = round(p["t"] / p["dt_coarse"]) + round(p["t"] / p["dt"])
        return n * round(p["t"] / p["dt"]) + p["bn_replicas"] * bn_steps
    return 0


def _in_dir(path: pathlib.Path):
    path.mkdir(parents=True, exist_ok=True)
    return contextlib.chdir(path)


# ---------------------------------------------------------------------------
# mc-semigroup: the Monte Carlo semigroup layer at scale

#: SE ceilings: 1.25x the SE the current code reaches (seeds 0-3; generator:
#: the largest quotient SE, at t=0.1).  The inputs that set the variance are
#: fixed, so the SE moves by under 1% between seeds.
SE_CEILING = {
    "semigroup.invariance_test.d3_exp": 1.25 * 1.89e-3,
    "semigroup.invariance_test.d2_count": 1.25 * 6.52e-3,
    "semigroup.apply_mc.exp_d2": 1.25 * 9.95e-5,
    "semigroup.apply_mc.kpoly_d1": 1.25 * 2.28e-3,
    "semigroup.generator_residual.exp_neg_sum": 1.25 * 3.78e-4,
}


class MCSemigroup:
    """Monte Carlo cases of ``confheat.semigroup`` at two threads."""

    name = "mc-semigroup"
    threads = 2
    T = 0.5

    def __init__(self, root: pathlib.Path, seed: int | None, out_dir: pathlib.Path):
        seed = DEFAULT_SEED if seed is None else seed
        self.mc_seed = [seed * 1000 + k for k in range(5)]
        self.inv_d3 = WindowedExponential(GaussianBump(-0.5, (0.0, 0.0, 0.0), 0.7), 1.0)
        self.inv_d2 = WindowedCount(1.0)
        self.exp_phi = GaussianBump(-0.3, (0.0, 0.0), 1.2)
        # the SE depends on the point geometry, so the points are fixed and the
        # seed rotates them about the bump's centre, which keeps value and SE
        angle = 2.0 * math.pi * _rng(seed, 1).random()
        rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        self.exp_points = _uniform_ball(_rng(0x5E, 110), 110, 2, 6.0) @ rotation.T
        self.exp_gamma = Configuration.from_points(2, self.exp_points, window_radius=6.0)
        self.kpoly_G = harmonic.product_kernel(
            1, {1: 0.8, 2: 0.25}, GaussianBump(0.5, (0.3,), 0.9), value_at_empty=0.2
        )
        self.kpoly_points = np.sort(_rng(0x5E, 20).uniform(-3.0, 3.0, 20))[:, None]
        self.kpoly_gamma = Configuration.from_points(1, self.kpoly_points, window_radius=4.0)
        self.gen_bumps = ((2.0, (0.0,), 0.6), (1.5, (0.3,), 0.5))
        self.gen_F = CylinderFunction(outer_exp_neg_sum(2), tuple(SmoothBump(*b) for b in self.gen_bumps))
        self.gen_points = np.array([[0.0], [-0.3]])
        self.gen_gamma = Configuration.from_points(1, self.gen_points, window_radius=1.0)
        self.gen_t = (0.1, 0.05, 0.025)

    def begin_pass(self):
        return contextlib.nullcontext()

    def warm_up(self):
        apply_mc(ExpFunctional(self.exp_phi).functional(), self.exp_gamma, self.T, 8192, 1, threads=self.threads)

    def _invariance(self, name, F, dim, outer, replicas, seed, threads):
        kw = dict(dim=dim, intensity=1.0, t=self.T, inner_radius=1.0, outer_radius=outer)

        def call():
            return invariance_test(F, **kw, replicas=replicas, seed=seed, leakage_tol=1e-3, threads=threads)

        sensitivity = abs(F.phi.amp) if isinstance(F, WindowedExponential) else 1.0
        leakage = oracles.invariance_leakage(sensitivity, dim, 1.0, self.T, 1.0, outer)

        def check(rep):
            if not rep.passed:
                return f"{name}: program verdict fail"
            if rep.std_error > SE_CEILING[name]:
                return f"{name}: SE {rep.std_error:.4g} above its ceiling {SE_CEILING[name]:.4g}"
            if abs(rep.mean_diff) > 4.0 * rep.std_error + leakage:
                return f"{name}: paired difference {rep.mean_diff!r} beyond 4 SE + leakage {leakage:.3g}"
            return None

        particles = replicas * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * outer**dim
        return Case(name, call, check, {"replicas": replicas, "expected_particles": particles})

    def cases(self, threads: int | None = None) -> list[Case]:
        threads = self.threads if threads is None else threads
        s = self.mc_seed
        cases = [
            self._invariance("semigroup.invariance_test.d3_exp", self.inv_d3, 3, 7.0, 20_000, s[0], threads),
            self._invariance("semigroup.invariance_test.d2_count", self.inv_d2, 2, 6.0, 100_000, s[1], threads),
        ]

        ef = ExpFunctional(self.exp_phi)
        exp_exact = functools.cache(lambda: float(np.prod(
            1.0 + oracles.gaussian_bump_heat(-0.3, (0.0, 0.0), 1.2, self.T, self.exp_points))))

        def check_exp(est):
            exact = exp_exact()
            route = apply_exact_exponential(ef, self.exp_gamma, self.T)
            return _close("apply_exact_exponential", route, exact, 1e-10, relative=True) or _within_se(
                "semigroup.apply_mc.exp_d2", est.mean, est.std_error, exact, SE_CEILING["semigroup.apply_mc.exp_d2"])

        cases.append(Case(
            "semigroup.apply_mc.exp_d2",
            lambda: apply_mc(ef.functional(), self.exp_gamma, self.T, 200_000, s[2], threads=threads),
            check_exp,
            {"replicas": 200_000, "particle_steps": 200_000 * len(self.exp_points)},
        ))

        def kpoly_exact():
            values = oracles.gaussian_bump_heat(0.5, (0.3,), 0.9, self.T, self.kpoly_points)
            return oracles.k_transform_product({1: 0.8, 2: 0.25}, {1: values, 2: values}, 0.2)

        kpoly_exact = functools.cache(kpoly_exact)
        cases.append(Case(
            "semigroup.apply_mc.kpoly_d1",
            lambda: apply_mc(KPolynomialFunctional(self.kpoly_G), self.kpoly_gamma, self.T, 200_000, s[3],
                             threads=threads),
            lambda est: _within_se("semigroup.apply_mc.kpoly_d1", est.mean, est.std_error, kpoly_exact(),
                                   SE_CEILING["semigroup.apply_mc.kpoly_d1"]),
            {"replicas": 200_000, "particle_steps": 200_000 * len(self.kpoly_points)},
        ))

        cases.append(Case(
            "semigroup.generator_residual.exp_neg_sum",
            lambda: generator_residual(self.gen_F, self.gen_gamma, self.gen_t, 1_000_000, s[4], threads=threads),
            self._check_generator,
            {"replicas": 1_000_000, "particle_steps": 1_000_000 * len(self.gen_points) * len(self.gen_t)},
        ))
        return cases

    def _psi(self, x):
        return sum(oracles.gaussian_bump(a, c, w, x) for a, c, w in self.gen_bumps)

    @functools.cached_property
    def _generator_exact(self):
        """(F(gamma), H F(gamma), [P_t F(gamma) for t]) for F = exp(-sum psi(x))."""
        x = self.gen_points
        psi = self._psi(x)
        grad = sum(a * np.exp(-((x - c[0]) ** 2) / (2 * w * w)) * (-(x - c[0]) / (w * w))
                   for a, c, w in self.gen_bumps)[:, 0]
        lap = sum(a * np.exp(-((x - c[0]) ** 2) / (2 * w * w)) * (((x - c[0]) / (w * w)) ** 2 - 1.0 / (w * w))
                  for a, c, w in self.gen_bumps)[:, 0]
        f0 = float(np.exp(-psi.sum()))
        hf = -f0 * float(np.sum(grad**2 - lap))
        pt = [float(np.prod(oracles.gauss_legendre_heat(lambda y: np.exp(-self._psi(y)), x, t, 6.0, 0.25)))
              for t in self.gen_t]
        return f0, hf, pt

    def _check_generator(self, rep):
        name = "semigroup.generator_residual.exp_neg_sum"
        if rep.verdict != "pass":
            return f"{name}: program verdict {rep.verdict}"
        f0, hf, pt = self._generator_exact
        reason = _close(f"{name}.generator_value", rep.generator_value, hf, 1e-10, relative=True)
        for entry, exact in zip(rep.entries, pt):
            if entry.std_error > SE_CEILING[name]:
                return f"{name}: quotient SE {entry.std_error:.4g} at t={entry.t:g} above its ceiling"
            # quotient = (F(gamma) - mean) / t, so mean = F(gamma) - t * quotient
            reason = reason or _within_se(f"{name}(t={entry.t:g})", f0 - entry.t * entry.quotient,
                                          entry.t * entry.std_error, exact)
        return reason


# ---------------------------------------------------------------------------
# exact-routes: deterministic exact routes, no Monte Carlo

def _flat_metric_instance(k: int):
    """Signed point measure with k support points in the d=2 ball of radius 6.

    The instance is the same at every seed: the dense simplex's pivot count,
    and with it the time, differs about 2x between random instances of one
    support size (2.8-5.3 s over four at k = 60), and permuting the support
    alone moves it by 10%.
    """
    rng = _rng(0xF1A7, k)
    p1, p2 = _uniform_ball(rng, k // 2, 2, 6.0), _uniform_ball(rng, k - k // 2, 2, 6.0)
    return p1, rng.integers(1, 3, k // 2), p2, rng.integers(1, 3, k - k // 2)


class ExactRoutes:
    """Exact routes of metrics, harmonic and profiles at pinned sizes, one thread."""

    name = "exact-routes"
    threads = 1
    FLAT_I = 5
    D_K_IMAX = 20
    KT_COEFFS = {1: 1.0, 2: 0.5, 3: 0.25}
    KT_PROFILE = (0.8, (0.0, 0.0), 1.5)

    def __init__(self, root: pathlib.Path, seed: int | None, out_dir: pathlib.Path):
        seed = DEFAULT_SEED if seed is None else seed
        self.flat = {k: _flat_metric_instance(k) for k in (20, 40, 60)}
        rng = _rng(seed, 3)
        self.kt_points = {n: _uniform_ball(rng, n, 2, 3.0) for n in (20, 40, 80)}
        self.kt_G = harmonic.product_kernel(2, self.KT_COEFFS, GaussianBump(*self.KT_PROFILE))
        base = np.arange(14.0) - 6.5
        self.perm_eta = (base + rng.uniform(-0.2, 0.2, 14))[:, None]
        self.perm_theta = (base + rng.uniform(-0.2, 0.2, 14))[:, None]
        self.perm_t = 0.1
        self.corr_gamma = np.sort(rng.uniform(-3.0, 3.0, 10))[:, None]
        self.corr_theta = rng.uniform(-2.0, 2.0, 5)[:, None]
        self.corr_t = 0.5
        self.rho_x = _uniform_ball(rng, 1000, 2, 10.0)
        self.rho_y = _uniform_ball(rng, 1000, 2, 10.0)
        self.heat = {d: (SmoothedIndicator(0.8, 1.5, 0.5, d), _uniform_ball(rng, 200, d, 4.0)) for d in (1, 2)}
        self.heat_t = 0.5

    @staticmethod
    def _configs(instance):
        p1, m1, p2, m2 = instance
        return Configuration(2, p1, m1, 7.0), Configuration(2, p2, m2, 7.0)

    def begin_pass(self):
        return contextlib.nullcontext()

    def warm_up(self):
        metrics.flat_metric(*self._configs(self.flat[20]), self.FLAT_I)
        harmonic.k_transform(self.kt_G, Configuration.from_points(2, self.kt_points[20]))
        prof, pts = self.heat[1]
        prof.heat_convolve(self.heat_t)(pts[:5])

    def cases(self, threads: int | None = None) -> list[Case]:
        cases = [self._flat_case(k) for k in (20, 40, 60)]

        g1, g2 = self._configs(self.flat[20])
        dk_exact = functools.cache(lambda: oracles.d_k_lp(*self.flat[20], self.D_K_IMAX))
        norms = np.linalg.norm(np.vstack([self.flat[20][0], self.flat[20][2]]), axis=1)
        cases.append(Case(
            "metrics.d_k.k20",
            lambda: metrics.d_k(g1, g2, self.D_K_IMAX),
            lambda mv: _close("metrics.d_k.k20", mv.value, dk_exact(), 1e-7),
            # flat_metric builds no LP at scales i where every point has |x| >= i
            {"lp_rows": 400 * sum(1 for i in range(1, self.D_K_IMAX + 1) if norms.min() < i)},
        ))

        for n in (20, 40, 80):
            cases.append(self._k_transform_case(n))

        eta, theta, t = self.perm_eta, self.perm_theta, self.perm_t
        perm_exact = functools.cache(lambda: oracles.glynn_permanent(oracles.heat_matrix(eta, theta, t)))
        cases.append(Case(
            "harmonic.permanent_kernel.n14",
            lambda: harmonic.permanent_kernel(eta, theta, t),
            lambda v: _close("harmonic.permanent_kernel.n14", v, perm_exact(), 1e-10, relative=True),
            {"ryser_terms": 2**14 - 1},
        ))

        corr_gamma = Configuration.from_points(1, self.corr_gamma)
        cases.append(Case(
            "harmonic.correlation_function.m10n5",
            lambda: harmonic.correlation_function(corr_gamma, self.corr_theta, self.corr_t),
            functools.partial(self._check_correlation, corr_gamma),
            {"injective_tuples": math.perm(10, 5)},
        ))

        gx = Configuration.from_points(2, self.rho_x, window_radius=11.0)
        gy = Configuration.from_points(2, self.rho_y, window_radius=11.0)
        rho_exact = functools.cache(lambda: oracles.rho_matching(self.rho_x, self.rho_y))
        cases.append(Case(
            "metrics.rho.n1000",
            lambda: metrics.rho(gx, gy),
            lambda v: _close("metrics.rho.n1000", v, rho_exact(), 1e-9),
            {"cost_entries": 1000 * 1000},
        ))

        for d in (1, 2):
            cases.append(self._heat_case(d))
        return cases

    def _flat_case(self, k: int) -> Case:
        name = f"metrics.flat_metric.k{k}"
        g1, g2 = self._configs(self.flat[k])
        exact = functools.cache(lambda: oracles.flat_metric_lp(*self.flat[k], self.FLAT_I))
        return Case(
            name,
            lambda: metrics.flat_metric(g1, g2, self.FLAT_I),
            lambda v: _close(name, v, exact(), 1e-7),
            {"lp_rows": k * k},
        )

    def _k_transform_case(self, n: int) -> Case:
        name = f"harmonic.k_transform.n{n}"
        pts = self.kt_points[n]
        gamma = Configuration.from_points(2, pts)
        values = oracles.gaussian_bump(*self.KT_PROFILE, pts)
        exact = functools.cache(lambda: oracles.k_transform_product(
            self.KT_COEFFS, {order: values for order in self.KT_COEFFS}))
        return Case(
            name,
            lambda: harmonic.k_transform(self.kt_G, gamma),
            lambda v: _close(name, v, exact(), 1e-10, relative=True),
            {"subsets": sum(math.comb(n, r) for r in self.KT_COEFFS)},
        )

    def _check_correlation(self, gamma, value):
        name = "harmonic.correlation_function.m10n5"
        other = harmonic.correlation_function(gamma, self.corr_theta, self.corr_t, method="inclusion_exclusion")
        bound = oracles.correlation_product_bound(self.corr_gamma, self.corr_theta, self.corr_t)
        if not (0.0 < value <= bound * (1.0 + 1e-12)):
            return f"{name}: {value!r} outside (0, product bound {bound!r}]"
        return _close(name, value, other, 1e-9, relative=True)

    def _heat_case(self, d: int) -> Case:
        name = f"profiles.heat_convolve.smoothed_d{d}_n200"
        prof, pts = self.heat[d]
        exact = functools.cache(lambda: oracles.gauss_legendre_heat(
            lambda y: oracles.smoothed_indicator(prof.amp, prof.radius, prof.width, y), pts, self.heat_t, 14.0))

        def check(values):
            gap = float(np.max(np.abs(np.asarray(values) - exact())))
            return None if gap <= 1e-8 else f"{name}: max gap {gap:.3g} to Gauss-Legendre above 1e-08"

        return Case(name, lambda: prof.heat_convolve(self.heat_t)(pts), check, {"points": len(pts)})


WORKLOADS = {w.name: w for w in (Battery, MCSemigroup, ExactRoutes)}

"""Experiment runners behind the CLI: strict param validation and dispatch.

Every experiment consumes a validated config (experiment name, seed, replicas,
params) and produces measurement rows plus a ternary verdict: pass, fail, or
inconclusive (statistically underpowered, never masquerading as failure).  All
randomness flows from counter-based substreams of the config seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import metrics
from .harmonic import (
    correlation_function,
    correlation_product_bound,
    inverse_k_transform,
    k_transform,
    k_transform_finite,
    permanent_bruteforce,
    permanent_kernel,
    product_kernel,
)
from .kernel import HeatKernelParams, fit_condition_certificate, tail_mass, tau
from .points import Configuration, Window, diffuse, sample_poisson
from .process import bn_refinement_medians, collision_report, marginal_ks, oscillation_check
from .profiles import BoxIndicator, ConstantProfile, GaussianBump, SmoothedIndicator
from .rng import TAG_EXPERIMENT, substream
from .semigroup import (
    CylinderFunction,
    ExpFunctional,
    WindowedConstant,
    WindowedCount,
    WindowedExponential,
    apply_exact_exponential,
    apply_mc,
    feller_probe,
    generator_residual,
    invariance_test,
    outer_exp_neg_sum,
    outer_linear,
    outer_square,
)
from .special import ball_volume, binomial_se

_REQUIRED = object()

#: series-truncation defaults the validator fills when absent
GLOBAL_DEFAULTS = {"i_max": 20, "n_max": 20}


@dataclass(frozen=True)
class Field:
    kind: str
    default: Any = _REQUIRED
    check: Callable[[Any], str | None] | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def _positive(x):
    return None if x > 0 else "must be positive"


def _unit_interval(x):
    return None if 0.0 <= x < 1.0 else "must lie in [0, 1)"


def _dim_ok(x):
    return None if 1 <= x <= 3 else "dimension must be 1, 2, or 3"


def _parses(parse, what):
    """Field check that reports the error ``parse(value)`` raises."""

    def check(value):
        try:
            parse(value)
        except (KeyError, TypeError, ValueError) as exc:
            return f"bad {what} ({type(exc).__name__}: {exc})"
        return None

    return check


def _one_of(*values):
    return lambda x: None if x in values else f"unknown value {x!r}; valid: {', '.join(values)}"


def _coerce(kind: str, value):
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError("expected an integer")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError("expected a number")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise TypeError("expected a string")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise TypeError("expected a boolean")
        return value
    if kind == "list":
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return value
    if kind == "dict":
        if not isinstance(value, dict):
            raise TypeError("expected an object")
        return value
    raise AssertionError(f"unknown field kind {kind}")


def validate_params(schema: dict[str, Field], params: dict, errors: list[str]) -> dict:
    out = {}
    for key, value in params.items():
        if key not in schema:
            errors.append(f"params.{key}: unknown key")
    for key, fld in schema.items():
        if key not in params:
            if fld.required:
                errors.append(f"params.{key}: required")
            else:
                out[key] = fld.default
            continue
        try:
            val = _coerce(fld.kind, params[key])
        except TypeError as exc:
            errors.append(f"params.{key}: {exc}")
            continue
        if fld.check is not None:
            msg = fld.check(val)
            if msg:
                errors.append(f"params.{key}: {msg}")
                continue
        out[key] = val
    _check_dimensions(out, errors)
    return out


def parse_profile(doc: dict, dim: int):
    """The profile a ``phi``/``profile`` param describes; ValueError if it is malformed."""
    family = doc.get("family")
    try:
        if family == "gaussian_bump":
            center = tuple(doc.get("center", [0.0] * dim))
            return GaussianBump(float(doc["amp"]), center, float(doc["width"]))
        if family == "box":
            return BoxIndicator(float(doc["amp"]), tuple(doc["lo"]), tuple(doc["hi"]))
        if family == "smoothed_indicator":
            return SmoothedIndicator(float(doc["amp"]), float(doc["radius"]), float(doc["width"]), dim)
        if family == "constant":
            return ConstantProfile(float(doc["value"]), dim)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
    raise ValueError(f"unknown profile family {family!r}")


def parse_bumps(docs: list) -> tuple[GaussianBump, ...]:
    """The Gaussian bumps of a generator ``bumps`` param (at least one)."""
    if not docs:
        raise ValueError("at least one bump required")
    return tuple(GaussianBump(float(b["amp"]), tuple(b["center"]), float(b["width"])) for b in docs)


def _point_rows(value) -> np.ndarray:
    """The points of a ``starts``/``eta``/``theta`` param, one row of coordinates each."""
    pos = np.asarray(value, dtype=float)
    if pos.ndim != 2 or pos.shape[0] == 0:
        raise ValueError("expected a nonempty list of points, each a list of coordinates")
    return pos


def _check_dimensions(p: dict, errors: list[str]) -> None:
    """Cross-field pass over the params that passed their own checks: ``phi``,
    ``profile``, ``gamma``, the ``bumps`` centres and the point lists share one
    dimension (``dim``, else that of ``gamma``, else that of ``eta``), and the
    permanent's ``eta`` and ``theta`` hold equally many points."""
    dims = {}
    if p.get("gamma") is not None:
        dims["gamma"] = Configuration.from_dict(p["gamma"]).dim
    dims.update((key, _point_rows(p[key]).shape[1]) for key in ("eta", "theta", "starts") if key in p)
    want = p.get("dim", dims.get("gamma", dims.get("eta")))
    if want is None:
        return
    dims.update((key, parse_profile(p[key], want).dim) for key in ("phi", "profile") if key in p)
    if "bumps" in p:
        dims.update((f"bumps[{k}]", bump.dim) for k, bump in enumerate(parse_bumps(p["bumps"])))
    errors.extend(f"params.{key}: dimension {d} does not match the experiment's dimension {want}"
                  for key, d in dims.items() if d != want)
    if "eta" in p and "theta" in p and len(p["eta"]) != len(p["theta"]):
        errors.append(f"params.theta: {len(p['theta'])} points, but eta has {len(p['eta'])}")


_configuration_ok = _parses(Configuration.from_dict, "configuration")
# the dimension only fills defaults (center, ndim), so any dimension finds the same errors
_profile_ok = _parses(lambda doc: parse_profile(doc, 1), "profile")
_bumps_ok = _parses(parse_bumps, "bumps")
_points_ok = _parses(_point_rows, "point list")


@dataclass
class ExperimentResult:
    rows: list[dict]
    summary: dict = field(default_factory=dict)
    verdict: str = "pass"


def _se_row(name, value, se, bound=None, note=None):
    return {"measurement": name, "value": value, "std_error": se, "bound": bound, "note": note}


def _row(name, value, bound=None, note=None):
    return {"measurement": name, "value": value, "std_error": None, "bound": bound, "note": note}


def _verdict_all(checks: list[bool]) -> str:
    return "pass" if all(checks) else "fail"


# ---------------------------------------------------------------------------
# runners


def run_sample_poisson(p, seed, replicas, threads):
    win = Window(p["radius"], p["intensity"])
    dim = p["dim"]
    lam = win.intensity * ball_volume(dim, win.radius)
    rng = substream(seed, TAG_EXPERIMENT, 1)
    counts = rng.poisson(lam, size=replicas).astype(float)
    mean, var = counts.mean(), counts.var(ddof=1)
    se_mean = counts.std(ddof=1) / math.sqrt(replicas)
    se_var = math.sqrt((lam + 2 * lam * lam) / replicas)
    n_pos = min(replicas, 2000)
    radii = []
    for _ in range(n_pos):
        cfg = sample_poisson(win, dim, rng)
        if cfg.n_sites:
            radii.extend(np.linalg.norm(cfg.positions, axis=1))
    radii = np.array(radii) if radii else np.array([0.0])
    mean_radius = float(radii.mean())
    expected_radius = win.radius * dim / (dim + 1.0)
    se_radius = float(radii.std(ddof=1) / math.sqrt(len(radii))) if len(radii) > 1 else math.inf
    checks = [
        abs(mean - lam) <= 4 * se_mean,
        abs(var - lam) <= 4 * se_var,
        abs(mean_radius - expected_radius) <= 4 * se_radius,
    ]
    rows = [
        _se_row("mean_count", mean, se_mean, bound=lam, note="expected z*vol"),
        _se_row("count_variance", var, se_var, bound=lam, note="Poisson variance"),
        _se_row("mean_radius", mean_radius, se_radius, bound=expected_radius, note="uniform-in-ball E|x|"),
    ]
    return ExperimentResult(rows, {"lambda": lam}, _verdict_all(checks))


def run_diffuse(p, seed, replicas, threads):
    dim, t = p["dim"], p["t"]
    rng = substream(seed, TAG_EXPERIMENT, 2)
    base = sample_poisson(Window(p["radius"], p["intensity"]), dim, rng)
    if base.total_count == 0:
        base = Configuration.from_points(dim, np.zeros((1, dim)), window_radius=p["radius"])
    n_draws = min(replicas, 20000)
    disp = []
    preserved = True
    for _ in range(n_draws):
        out = diffuse(base, t, rng)
        preserved &= out.total_count == base.total_count
        disp.append(out.expand() - base.expand())
    disp = np.concatenate(disp, axis=0).ravel()
    var = float(disp.var(ddof=1))
    se_var = var * math.sqrt(2.0 / (disp.size - 1))
    checks = [preserved, abs(var - 2 * t) <= 4 * se_var]
    rows = [
        _row("count_preserved", 1.0 if preserved else 0.0, note=f"base count {base.total_count}"),
        _se_row("displacement_variance", var, se_var, bound=2 * t, note="target 2t"),
    ]
    return ExperimentResult(rows, {"draws": n_draws}, _verdict_all(checks))


def _gamma_from_params(p, dim, seed):
    if p.get("gamma") is not None:
        return Configuration.from_dict(p["gamma"])
    rng = substream(seed, TAG_EXPERIMENT, 3)
    return sample_poisson(Window(p.get("gamma_radius", 2.0), p.get("gamma_intensity", 1.0)), dim, rng)


def run_semigroup_exp(p, seed, replicas, threads):
    dim = p["dim"]
    ef = ExpFunctional(parse_profile(p["phi"], dim))
    gamma = _gamma_from_params(p, dim, seed)
    exact = apply_exact_exponential(ef, gamma, p["t"])
    est = apply_mc(ef.functional(), gamma, p["t"], replicas, seed, threads=threads)
    gap = abs(est.mean - exact)
    ok = gap <= 4 * est.std_error
    rows = [
        _se_row("mc_estimate", est.mean, est.std_error, note=est.truncation_note),
        _row("exact_value", exact, note="closed-form / quadrature convolution route"),
        _se_row("difference", gap, est.std_error, bound=4 * est.std_error, note="|mc - exact| vs 4 SE"),
    ]
    return ExperimentResult(rows, {"particles": gamma.total_count}, "pass" if ok else "fail")


_INVARIANCE_FUNCTIONALS = {
    "constant": lambda p: WindowedConstant(1.0),
    "count": lambda p: WindowedCount(p["inner_radius"]),
    "exponential": lambda p: WindowedExponential(
        GaussianBump(-abs(p["a"]), tuple([0.0] * p["dim"]), p["width"]), p["inner_radius"]
    ),
}


def run_invariance(p, seed, replicas, threads):
    dim = p["dim"]
    kind = p["functional"]
    F = _INVARIANCE_FUNCTIONALS[kind](p)
    rep = invariance_test(
        F,
        dim=dim,
        intensity=p["intensity"],
        t=p["t"],
        inner_radius=p["inner_radius"],
        replicas=replicas,
        seed=seed,
        threads=threads,
    )
    rows = [_se_row("paired_difference", rep.mean_diff, rep.std_error, bound=4 * rep.std_error, note=rep.note)]
    return ExperimentResult(rows, {"functional": kind}, "pass" if rep.passed else "fail")


_OUTERS = {"linear": outer_linear, "exp_neg_sum": outer_exp_neg_sum, "square": outer_square}
_METRICS = {"rho": metrics.rho, "d1": metrics.d1}


def run_generator(p, seed, replicas, threads):
    bumps = parse_bumps(p["bumps"])
    outer_name = p["outer"]
    outer = _OUTERS[outer_name](len(bumps)) if outer_name == "exp_neg_sum" else _OUTERS[outer_name]()
    F = CylinderFunction(outer, bumps)
    gamma = Configuration.from_dict(p["gamma"])
    report = generator_residual(F, gamma, tuple(p["t_list"]), replicas, seed, threads=threads)
    rows = [_row("generator_value", report.generator_value)]
    for e in report.entries:
        rows.append(_se_row(f"residual_t={e.t:g}", e.residual, e.std_error,
                            note="inconclusive" if e.inconclusive else None))
    for k, r in enumerate(report.ratios):
        rows.append(_row(f"ratio_{k}", r, bound="[1.5, 3]", note=report.note))
    return ExperimentResult(rows, {"outer": outer_name}, report.verdict)


def _shift(gamma, j):
    pts = gamma.positions.copy()
    pts[0, 0] += 2.0**-j
    return Configuration.from_points(gamma.dim, pts, None, gamma.window_radius + 1.0)


def _far_point(gamma, j):
    r = j * math.log(2.0)
    extra = np.zeros((1, gamma.dim))
    extra[0, 0] = r
    pts = np.vstack([gamma.positions, extra])
    return Configuration.from_points(gamma.dim, pts, None, max(gamma.window_radius, r) + 1.0)


_FELLER_FUNCTIONALS = {
    "kernel": lambda dim, phi: product_kernel(dim, {1: 1.0}, phi, d_class="auto"),
    "exponential": lambda dim, phi: ExpFunctional(phi),
}
_SCHEDULES = {"shift": _shift, "far-point": _far_point}


def run_feller(p, seed, replicas, threads):
    dim = p["dim"]
    gamma = Configuration.from_dict(p["gamma"])
    F_spec = _FELLER_FUNCTIONALS[p["functional"]](dim, parse_profile(p["phi"], dim))
    level = _SCHEDULES[p["schedule"]]
    schedule = [level(gamma, j) for j in range(1, p["levels"] + 1)]
    metric = _METRICS[p["metric"]]
    rep = feller_probe(F_spec, gamma, schedule, metric, t=p["t"], ratio_tol=p["ratio_tol"],
                       replicas=replicas, seed=seed)
    rows = [
        _row(f"gap_{k}", v, bound=m, note=f"metric gap {m:.6g}")
        for k, (m, v) in enumerate(zip(rep.metric_gaps, rep.value_gaps))
    ]
    rows.append(_row("route", 0.0, note=rep.route))
    return ExperimentResult(rows, {"route": rep.route, "note": rep.note}, "pass" if rep.passed else "fail")


def run_rho(p, seed, replicas, threads):
    g1 = Configuration.from_dict(p["g1"])
    g2 = Configuration.from_dict(p["g2"])
    val = metrics.rho(g1, g2)
    rows = [_row("rho", val)]
    verdict = "pass"
    if math.isfinite(val) and g1.total_count <= 7:
        oracle = metrics.rho_bruteforce(g1, g2)
        rows.append(_row("bruteforce_oracle", oracle, note="exhaustive permutation minimum"))
        verdict = "pass" if abs(val - oracle) <= 1e-9 else "fail"
    return ExperimentResult(rows, {}, verdict)


def run_flat_metric(p, seed, replicas, threads):
    g1 = Configuration.from_dict(p["g1"])
    g2 = Configuration.from_dict(p["g2"])
    i = p["i"]
    val = metrics.flat_metric(g1, g2, i)
    rows = [_row(f"d_K_{i}", val)]
    verdict = "pass"
    if g1.total_count <= 1 and g2.total_count <= 1:
        a = g1.positions[0] if g1.n_sites else None
        b = g2.positions[0] if g2.n_sites else None
        cap = lambda x: max(0.0, i - float(np.linalg.norm(x)))
        if a is None and b is None:
            oracle = 0.0
        elif a is None or b is None:
            oracle = cap(b if a is None else a)
        else:
            oracle = min(float(np.linalg.norm(a - b)), cap(a) + cap(b))
        rows.append(_row("closed_form_oracle", oracle))
        verdict = "pass" if abs(val - oracle) <= 1e-7 else "fail"
    if p["sum_scales"]:
        mv = metrics.d_k(g1, g2, p["i_max"])
        rows.append(_row("d_K_summed", mv.value, note=f"truncation error {mv.truncation_error:g}"))
    return ExperimentResult(rows, {}, verdict)


def run_ktransform(p, seed, replicas, threads):
    dim = p["dim"]
    profile = parse_profile(p["profile"], dim)
    coeffs = {int(k): float(v) for k, v in p["coeffs"].items()}
    G = product_kernel(dim, coeffs, profile)
    gamma = Configuration.from_dict(p["gamma"])
    val = k_transform(G, gamma)
    rows = [_row("k_transform", val)]
    verdict = "pass"
    if gamma.total_count <= 6:
        worst = 0.0
        F = lambda pts: k_transform_finite(G, pts)
        for n_sub in range(gamma.n_sites + 1):
            sub = gamma.positions[:n_sub]
            direct = G.value_at_empty if n_sub == 0 else G.value(sub)
            worst = max(worst, abs(inverse_k_transform(F, sub) - direct))
        rows.append(_row("round_trip_error", worst, bound=1e-9, note="inverse K of K vs direct levels"))
        verdict = "pass" if worst <= 1e-9 else "fail"
    return ExperimentResult(rows, {}, verdict)


def run_correlation(p, seed, replicas, threads):
    gamma = Configuration.from_dict(p["gamma"])
    theta = np.asarray(p["theta"], dtype=float)
    t = p["t"]
    val = correlation_function(gamma, theta, t)
    bound = correlation_product_bound(gamma, theta, t)
    rows = [_row("correlation", val, bound=bound, note="product bound")]
    verdict = "pass" if val <= bound * (1 + 1e-12) else "fail"
    if math.perm(gamma.total_count, theta.shape[0]) <= 200_000:
        a = correlation_function(gamma, theta, t, method="enumerate")
        b = correlation_function(gamma, theta, t, method="inclusion_exclusion")
        rel = abs(a - b) / max(abs(a), 1e-300)
        rows.append(_row("dual_route_rel_gap", rel, bound=1e-9))
        if rel > 1e-9:
            verdict = "fail"
    return ExperimentResult(rows, {}, verdict)


def run_permanent(p, seed, replicas, threads):
    eta = np.asarray(p["eta"], dtype=float)
    theta = np.asarray(p["theta"], dtype=float)
    t = p["t"]
    val = permanent_kernel(eta, theta, t)
    rows = [_row("permanent", val)]
    verdict = "pass"
    if eta.shape == theta.shape and 0 < eta.shape[0] <= 6:
        params = HeatKernelParams(eta.shape[1], t)
        from .kernel import density

        m = np.array([[density(params, a, b) for b in theta] for a in eta])
        oracle = permanent_bruteforce(m)
        rel = abs(val - oracle) / max(abs(oracle), 1e-300)
        rows.append(_row("bruteforce_rel_gap", rel, bound=1e-10))
        verdict = "pass" if rel <= 1e-10 else "fail"
    return ExperimentResult(rows, {}, verdict)


def run_process(p, seed, replicas, threads):
    dim = p["dim"]
    d_stat, ks_p = marginal_ks(dim, p["t"], p["dt"], replicas, seed)
    gamma = Configuration.from_dict(p["gamma"]) if p.get("gamma") else Configuration.from_points(
        dim, np.zeros((1, dim)), window_radius=1.0
    )
    med = bn_refinement_medians(gamma, p["t"], (p["dt_coarse"], p["dt"]), p["n"], p["bn_replicas"], seed)
    checks = [ks_p > 0.001, med[1] < med[0]]
    rows = [
        _row("marginal_ks_p", ks_p, bound=0.001, note=f"KS statistic {d_stat:.4g}"),
        _row("bn_median_coarse", med[0], note=f"dt {p['dt_coarse']:g}"),
        _row("bn_median_fine", med[1], note=f"dt {p['dt']:g}"),
    ]
    return ExperimentResult(rows, {}, _verdict_all(checks))


def run_oscillation(p, seed, replicas, threads):
    rep = oscillation_check(
        [0.0] * p["dim"], 0.0, p["delta"], p["r"], replicas, seed, p["dim"], substeps=p["substeps"]
    )
    rows = [
        _se_row("exceedance_probability", rep.empirical, rep.std_error, bound=rep.bound,
                note="one-sided vs 2 tau(delta, r/4)"),
    ]
    return ExperimentResult(rows, {}, "pass" if rep.passed else "fail")


def run_collision(p, seed, replicas, threads):
    dim = p["dim"]
    starts = _point_rows(p["starts"])
    radius = float(np.linalg.norm(starts, axis=1).max()) + 1.0
    gamma = Configuration.from_points(dim, starts, None, radius)
    rep = collision_report(gamma, p["horizon"], p["dt"], replicas, seed, tuple(p["epsilon_list"]))
    rows = [
        _row(f"fraction_below_{e:g}", f, note=rep.note) for e, f in zip(rep.epsilons, rep.fractions)
    ]
    if dim >= 2:
        decreasing = all(a > b for a, b in zip(rep.fractions, rep.fractions[1:]))
        verdict = "pass" if decreasing and rep.fractions[-1] < 0.01 else "fail"
    else:
        rows.append(_row("crossing_fraction", rep.crossing_fraction, bound=rep.crossing_reference,
                         note="reflection-principle reference"))
        if rep.crossing_reference is not None:
            se = binomial_se(rep.crossing_reference, replicas)
            verdict = "pass" if abs(rep.crossing_fraction - rep.crossing_reference) <= 4 * se else "fail"
        else:
            verdict = "pass"
    return ExperimentResult(rows, {}, verdict)


def run_tail_tau(p, seed, replicas, threads):
    dim, t = p["dim"], p["t"]
    params = HeatKernelParams(dim, t)
    rng = substream(seed, TAG_EXPERIMENT, 4)
    norms = np.linalg.norm(math.sqrt(2 * t) * rng.standard_normal((replicas, dim)), axis=1)
    rows = []
    checks = []
    for r in p["r_list"]:
        exact = tail_mass(params, float(r))
        emp = float(np.mean(norms > r))
        se = binomial_se(exact, replicas)
        checks.append(abs(emp - exact) <= 4 * se)
        rows.append(_se_row(f"tail_r={r:g}", emp, se, bound=exact, note="closed form Q(d/2, r^2/4t)"))
    if p["check_certificate"]:
        cert = fit_condition_certificate(HeatKernelParams(dim, max(t, 0.5)))
        radii = np.linspace(0.0, 20.0, 201)
        worst = float(np.max(tau(dim, cert.tail_delta, radii) / (cert.tail_c * np.exp(-radii))))
        rows.append(_row("c3_worst_ratio", worst, bound=1.0,
                         note=f"tau({cert.tail_delta:g}, r) vs {cert.tail_c:.4g} e^-r"))
        checks.append(worst <= 1.0)
    return ExperimentResult(rows, {}, _verdict_all(checks))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Experiment:
    name: str
    schema: dict[str, Field]
    run: Callable
    default_replicas: int


EXPERIMENTS: dict[str, Experiment] = {}


def _register(name, schema, run, default_replicas):
    EXPERIMENTS[name] = Experiment(name, schema, run, default_replicas)


_register(
    "sample-poisson",
    {
        "dim": Field("int", check=_dim_ok),
        "radius": Field("float", check=_positive),
        "intensity": Field("float", check=_positive),
    },
    run_sample_poisson,
    20000,
)
_register(
    "diffuse",
    {
        "dim": Field("int", check=_dim_ok),
        "t": Field("float", check=_positive),
        "radius": Field("float", 2.0, check=_positive),
        "intensity": Field("float", 1.0, check=_positive),
    },
    run_diffuse,
    20000,
)
_register(
    "semigroup-exp",
    {
        "dim": Field("int", check=_dim_ok),
        "t": Field("float", check=_positive),
        "phi": Field("dict", check=_profile_ok),
        "gamma": Field("dict", None, check=_configuration_ok),
        "gamma_radius": Field("float", 2.0, check=_positive),
        "gamma_intensity": Field("float", 1.0, check=_positive),
    },
    run_semigroup_exp,
    100000,
)
_register(
    "invariance",
    {
        "dim": Field("int", check=_dim_ok),
        "functional": Field("str", check=_one_of(*_INVARIANCE_FUNCTIONALS)),
        "intensity": Field("float", 1.0, check=_positive),
        "t": Field("float", check=_positive),
        "inner_radius": Field("float", 1.0, check=_positive),
        "a": Field("float", 0.5, check=_unit_interval),
        "width": Field("float", 0.7, check=_positive),
    },
    run_invariance,
    100000,
)
_register(
    "generator",
    {
        "outer": Field("str", check=_one_of(*_OUTERS)),
        "bumps": Field("list", check=_bumps_ok),
        "gamma": Field("dict", check=_configuration_ok),
        "t_list": Field("list", [0.1, 0.05, 0.025]),
    },
    run_generator,
    1000000,
)
_register(
    "feller",
    {
        "dim": Field("int", check=_dim_ok),
        "functional": Field("str", check=_one_of(*_FELLER_FUNCTIONALS)),
        "phi": Field("dict", check=_profile_ok),
        "gamma": Field("dict", check=_configuration_ok),
        "schedule": Field("str", "shift", check=_one_of(*_SCHEDULES)),
        "metric": Field("str", "rho", check=_one_of(*_METRICS)),
        "levels": Field("int", 10, check=_positive),
        "t": Field("float", 0.5, check=_positive),
        "ratio_tol": Field("float", 1e-3, check=_positive),
    },
    run_feller,
    20000,
)
_register(
    "rho",
    {"g1": Field("dict", check=_configuration_ok), "g2": Field("dict", check=_configuration_ok)},
    run_rho,
    2,
)
_register(
    "flat-metric",
    {
        "g1": Field("dict", check=_configuration_ok),
        "g2": Field("dict", check=_configuration_ok),
        "i": Field("int", 5, check=_positive),
        "sum_scales": Field("bool", False),
        "i_max": Field("int", GLOBAL_DEFAULTS["i_max"], check=_positive),
    },
    run_flat_metric,
    2,
)
_register(
    "ktransform",
    {
        "dim": Field("int", check=_dim_ok),
        "coeffs": Field("dict"),
        "profile": Field("dict", check=_profile_ok),
        "gamma": Field("dict", check=_configuration_ok),
    },
    run_ktransform,
    2,
)
_register(
    "correlation",
    {
        "gamma": Field("dict", check=_configuration_ok),
        "theta": Field("list", check=_points_ok),
        "t": Field("float", check=_positive),
    },
    run_correlation,
    2,
)
_register(
    "permanent",
    {
        "eta": Field("list", check=_points_ok),
        "theta": Field("list", check=_points_ok),
        "t": Field("float", check=_positive),
    },
    run_permanent,
    2,
)
_register(
    "process",
    {
        "dim": Field("int", check=_dim_ok),
        "t": Field("float", 1.0, check=_positive),
        "dt": Field("float", 0.001, check=_positive),
        "dt_coarse": Field("float", 0.01, check=_positive),
        "n": Field("int", 1, check=_positive),
        "gamma": Field("dict", None, check=_configuration_ok),
        "bn_replicas": Field("int", 100, check=_positive),
    },
    run_process,
    10000,
)
_register(
    "oscillation",
    {
        "dim": Field("int", check=_dim_ok),
        "delta": Field("float", check=_positive),
        "r": Field("float", check=_positive),
        "substeps": Field("int", 64, check=lambda x: None if x >= 64 else "must be >= 64"),
    },
    run_oscillation,
    10000,
)
_register(
    "collision",
    {
        "dim": Field("int", check=_dim_ok),
        "starts": Field("list", check=_points_ok),
        "horizon": Field("float", 1.0, check=_positive),
        "dt": Field("float", 0.01, check=_positive),
        "epsilon_list": Field("list", [0.1, 0.01, 0.001]),
    },
    run_collision,
    10000,
)
_register(
    "tail-tau",
    {
        "dim": Field("int", check=_dim_ok),
        "t": Field("float", check=_positive),
        "r_list": Field("list", [0.5, 1.0, 2.0]),
        "check_certificate": Field("bool", True),
    },
    run_tail_tau,
    100000,
)

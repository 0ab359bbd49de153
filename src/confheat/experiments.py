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
from .errors import CapabilityError, CapacityError
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
from .kernel import HeatKernelParams, density, fit_condition_certificate, tail_mass, tau
from .points import Configuration, Window, diffuse, sample_poisson
from .process import _steps_for, bn_refinement_medians, collision_report, marginal_ks, oscillation_check
from .profiles import BoxIndicator, ConstantProfile, GaussianBump, SmoothedIndicator
from .rng import TAG_EXPERIMENT, substream
from .semigroup import (
    GENERATOR_RATIO_RANGE,
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

#: what a parse raises on a bad value; ``validate_params`` reports each as a param error
_BAD_INPUT = (CapabilityError, KeyError, TypeError, ValueError)


@dataclass(frozen=True)
class Field:
    """One param: its JSON kind, its default, and the parse that turns the
    coerced value into the object the runner uses.  ``parse(value, parsed)``
    sees the objects of the fields before it in schema order and raises one
    of ``_BAD_INPUT`` on a bad value; without a parse the value is the object."""

    kind: str
    default: Any = _REQUIRED
    parse: Callable[[Any, dict], Any] | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def _require(ok: Callable[[Any], bool], msg: str):
    """Parse that returns the value unchanged if ``ok(value)``, else raises ValueError(msg.format(value))."""

    def parse(value, parsed):
        if not ok(value):
            raise ValueError(msg.format(value))
        return value

    return parse


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


_positive = _require(lambda x: x > 0, "must be positive")
_unit_interval = _require(lambda x: 0.0 <= x < 1.0, "must lie in [0, 1)")
_dim = _require(lambda x: 1 <= x <= 3, "dimension must be 1, 2, or 3")
_nonnegatives = _require(lambda xs: all(_is_number(x) and x >= 0 for x in xs),
                         "must hold finite nonnegative numbers")


def _decreasing_positives(at_least: int):
    return _require(lambda xs: len(xs) >= at_least and all(_is_number(x) and x > 0 for x in xs)
                    and all(a > b for a, b in zip(xs, xs[1:])),
                    f"must be at least {at_least} positive numbers, strictly decreasing")


def _one_of(*values):
    return _require(lambda x: x in values, "unknown value {!r}; valid: " + ", ".join(values))


def _coeffs(doc, parsed) -> dict[int, float]:
    # plain digits with no leading zero, so no two keys name the same order
    if not all(k.isascii() and k.isdecimal() and k[0] != "0" and _is_number(v) for k, v in doc.items()):
        raise ValueError("keys must be integers >= 1 (no leading zeros) and values numbers")
    return {int(k): float(v) for k, v in doc.items()}


#: JSON kind -> (accepted Python types, what the error says was expected)
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"), "str": (str, "a string"),
          "bool": (bool, "a boolean"), "list": (list, "a list"), "dict": (dict, "an object")}


def _coerce(kind: str, value):
    types, expected = _KINDS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise TypeError(f"expected {expected}")
    return float(value) if kind == "float" else value


def validate_params(schema: dict[str, Field], params: dict, errors: list[str]) -> tuple[dict, dict]:
    """(values, parsed) for ``params``: ``values`` is the coerced JSON with
    defaults filled in (what reports echo), ``parsed`` the object each field's
    parse builds from it.  Every problem is appended to ``errors``."""
    for key in params:
        if key not in schema:
            errors.append(f"params.{key}: unknown key")
    values, parsed = {}, {}
    for key, fld in schema.items():
        if key not in params and fld.required:
            errors.append(f"params.{key}: required")
            continue
        value, obj = params.get(key, fld.default), None
        try:
            # null stands for an optional object left out, where that is the default
            if value is not None or fld.default is not None:
                value = _coerce(fld.kind, value)
                obj = value if fld.parse is None else fld.parse(value, parsed)
        except _BAD_INPUT as exc:
            errors.append(f"params.{key}: {'missing key ' if isinstance(exc, KeyError) else ''}{exc}")
            continue
        values[key], parsed[key] = value, obj
    _cross_check(parsed, errors)
    return values, parsed


def _coords(values) -> tuple[float, ...]:
    """The coordinates of one point; TypeError unless each is a finite number."""
    if not all(_is_number(v) for v in values):
        raise TypeError(f"coordinates must be finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _profile(doc, parsed):
    """The profile a ``phi``/``profile`` param describes."""
    family = doc.get("family")
    # before ``dim`` parses (or when it is bad) the dimension fills defaults only
    dim = parsed.get("dim", 1)
    if family == "gaussian_bump":
        return GaussianBump(float(doc["amp"]), _coords(doc.get("center", [0.0] * dim)), float(doc["width"]))
    if family == "box":
        return BoxIndicator(float(doc["amp"]), _coords(doc["lo"]), _coords(doc["hi"]))
    if family == "smoothed_indicator":
        return SmoothedIndicator(float(doc["amp"]), float(doc["radius"]), float(doc["width"]), dim)
    if family == "constant":
        return ConstantProfile(float(doc["value"]), dim)
    raise ValueError(f"unknown profile family {family!r}")


def _bumps(docs, parsed) -> tuple[GaussianBump, ...]:
    """The Gaussian bumps of a generator ``bumps`` param (at least one, not all of amplitude 0)."""
    if not docs:
        raise ValueError("at least one bump required")
    bumps = tuple(GaussianBump(float(b["amp"]), _coords(b["center"]), float(b["width"])) for b in docs)
    if all(b.amp == 0.0 for b in bumps):
        raise ValueError("every bump has amp 0, so the cylinder function is constant and every residual 0")
    return bumps


def _exp_phi(doc, parsed):
    return ExpFunctional(_profile(doc, parsed))


def _feller_phi(doc, parsed):
    """The feller probe's functional of ``phi``: the profile alone while ``functional`` is bad.
    An identically zero ``phi`` is refused: every value gap would be 0, which never decreases."""
    profile = _profile(doc, parsed)
    if getattr(profile, "amp", getattr(profile, "value", None)) == 0.0:
        raise ValueError("phi is identically zero, so the functional is constant and every value gap 0")
    build = _FELLER_FUNCTIONALS.get(parsed.get("functional"))
    return profile if build is None else build(profile.dim, profile)


def _configuration(doc, parsed) -> Configuration:
    return Configuration.from_dict(doc)


def _configuration_where(ok: Callable[[Configuration], bool], msg: str):
    return lambda doc, parsed: _require(ok, msg)(_configuration(doc, parsed), parsed)


_simple_configuration = _configuration_where(lambda g: g.is_simple,
                                             "must be a simple configuration (every multiplicity 1)")
_occupied_configuration = _configuration_where(lambda g: g.total_count > 0, "needs at least one particle")


def _point_rows(at_least: int):
    """Parse of a ``starts``/``eta``/``theta`` param: one row of coordinates per point."""
    check = _require(lambda pos: pos.ndim == 2 and pos.shape[0] >= at_least,
                     f"expected a list of at least {at_least} points, each a list of coordinates")
    return lambda value, parsed: check(np.asarray(value, dtype=float), parsed)


#: (horizon, step) params whose time grid must be whole steps
_TIME_GRIDS = (("t", "dt"), ("t", "dt_coarse"), ("horizon", "dt"))


def _cross_check(p: dict, errors: list[str]) -> None:
    """Cross-field pass over the parsed params: ``phi``, ``profile``, the
    configurations, the ``bumps`` centres and the point lists share one
    dimension (``dim``, else that of the first configuration or point list),
    the permanent's ``eta`` and ``theta`` hold equally many points, a d = 1
    collision has the 2 starts its crossing reference needs, time
    grids are whole steps with the fine step below the coarse one, and the
    feller schedule suits its ``gamma`` and ``metric``."""
    if p.get("schedule") == "shift" and p.get("gamma") is not None and not p["gamma"].total_count:
        errors.append("params.gamma: the shift schedule needs at least one particle")
    if p.get("schedule") == "far-point" and p.get("metric") == "rho":
        errors.append("params.metric: rho is infinite once far-point adds a particle; use d1")
    for horizon, step in _TIME_GRIDS:
        if horizon in p and step in p:
            try:
                _steps_for(p[horizon], p[step])
            except (CapacityError, ValueError) as exc:
                errors.append(f"params.{step}: {exc} ({horizon} = {p[horizon]:g}, {step} = {p[step]:g})")
    if "dt" in p and "dt_coarse" in p and not p["dt"] < p["dt_coarse"]:
        errors.append("params.dt_coarse: must exceed dt, the step it is refined to")
    dims = {key: p[key].dim for key in ("gamma", "g1", "g2") if p.get(key) is not None}
    dims.update((key, p[key].shape[1]) for key in ("eta", "theta", "starts") if key in p)
    want = p.get("dim", next(iter(dims.values()), None))
    if want is None:
        return
    dims.update((key, p[key].dim) for key in ("phi", "profile") if key in p)
    dims.update((f"bumps[{k}]", bump.dim) for k, bump in enumerate(p.get("bumps", ())))
    errors.extend(f"params.{key}: dimension {d} does not match the experiment's dimension {want}"
                  for key, d in dims.items() if d != want)
    if "eta" in p and "theta" in p and len(p["eta"]) != len(p["theta"]):
        errors.append(f"params.theta: {len(p['theta'])} points, but eta has {len(p['eta'])}")
    if "starts" in p and want == 1 and len(p["starts"]) != 2:
        errors.append("params.starts: in d = 1 the crossing check has a reference only for 2 starts")


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
    # all replicas step as one configuration: one (n_draws * n, dim) normal draw
    # is the same stream as n_draws draws of shape (n, dim)
    start = np.tile(base.expand(), (n_draws, 1))
    moved = diffuse(Configuration.from_points(dim, start, None, base.window_radius), t, rng)
    preserved = moved.total_count == start.shape[0]
    disp = (moved.expand() - start).ravel()
    var = float(disp.var(ddof=1))
    se_var = var * math.sqrt(2.0 / (disp.size - 1))
    checks = [preserved, abs(var - 2 * t) <= 4 * se_var]
    rows = [
        _row("count_preserved", 1.0 if preserved else 0.0, note=f"base count {base.total_count}"),
        _se_row("displacement_variance", var, se_var, bound=2 * t, note="target 2t"),
    ]
    return ExperimentResult(rows, {"draws": n_draws}, _verdict_all(checks))


def run_semigroup_exp(p, seed, replicas, threads):
    ef, gamma = p["phi"], p["gamma"]
    if gamma is None:
        window = Window(p["gamma_radius"], p["gamma_intensity"])
        gamma = sample_poisson(window, p["dim"], substream(seed, TAG_EXPERIMENT, 3))
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
    bumps = p["bumps"]
    outer_name = p["outer"]
    outer = _OUTERS[outer_name](len(bumps)) if outer_name == "exp_neg_sum" else _OUTERS[outer_name]()
    F = CylinderFunction(outer, bumps)
    report = generator_residual(F, p["gamma"], p["t_list"], replicas, seed, threads=threads)
    rows = [_row("generator_value", report.generator_value)]
    ratio_band = "[{:g}, {:g}]".format(*GENERATOR_RATIO_RANGE)
    for e in report.entries:
        rows.append(_se_row(f"residual_t={e.t:g}", e.residual, e.std_error,
                            note="inconclusive" if e.inconclusive else None))
    for k, r in enumerate(report.ratios):
        rows.append(_row(f"ratio_{k}", r, bound=ratio_band, note=report.note))
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
    gamma = p["gamma"]
    level = _SCHEDULES[p["schedule"]]
    schedule = [level(gamma, j) for j in range(1, p["levels"] + 1)]
    metric = _METRICS[p["metric"]]
    rep = feller_probe(p["phi"], gamma, schedule, metric, t=p["t"], ratio_tol=p["ratio_tol"],
                       replicas=replicas, seed=seed)
    rows = [
        _row(f"gap_{k}", v, bound=m, note=f"metric gap {m:.6g}")
        for k, (m, v) in enumerate(zip(rep.metric_gaps, rep.value_gaps))
    ]
    rows.append(_row("route", 0.0, note=rep.route))
    return ExperimentResult(rows, {"route": rep.route, "note": rep.note}, "pass" if rep.passed else "fail")


def run_rho(p, seed, replicas, threads):
    g1, g2 = p["g1"], p["g2"]
    val = metrics.rho(g1, g2)
    rows = [_row("rho", val)]
    verdict = "pass"
    if math.isfinite(val) and g1.total_count <= 7:
        oracle = metrics.rho_bruteforce(g1, g2)
        rows.append(_row("bruteforce_oracle", oracle, note="exhaustive permutation minimum"))
        verdict = "pass" if abs(val - oracle) <= 1e-9 else "fail"
    return ExperimentResult(rows, {}, verdict)


def run_flat_metric(p, seed, replicas, threads):
    g1, g2 = p["g1"], p["g2"]
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
    G = product_kernel(p["dim"], p["coeffs"], p["profile"])
    gamma = p["gamma"]
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
    gamma, theta, t = p["gamma"], p["theta"], p["t"]
    val = correlation_function(gamma, theta, t)
    bound = correlation_product_bound(gamma, theta, t)
    rows = [_row("correlation", val, bound=bound, note="product bound")]
    verdict = "pass" if val <= bound * (1 + 1e-12) else "fail"
    if math.perm(gamma.total_count, theta.shape[0]) <= 200_000:
        oracle = correlation_function(gamma, theta, t, method="enumerate")
        rel = abs(val - oracle) / max(abs(oracle), 1e-300)
        rows.append(_row("dual_route_rel_gap", rel, bound=1e-9, note="subset DP vs injective enumeration"))
        if rel > 1e-9:
            verdict = "fail"
    return ExperimentResult(rows, {}, verdict)


def run_permanent(p, seed, replicas, threads):
    eta, theta, t = p["eta"], p["theta"], p["t"]
    val = permanent_kernel(eta, theta, t)
    rows = [_row("permanent", val)]
    verdict = "pass"
    if eta.shape == theta.shape and 0 < eta.shape[0] <= 6:
        params = HeatKernelParams(eta.shape[1], t)
        m = np.array([[density(params, a, b) for b in theta] for a in eta])
        oracle = permanent_bruteforce(m)
        rel = abs(val - oracle) / max(abs(oracle), 1e-300)
        rows.append(_row("bruteforce_rel_gap", rel, bound=1e-10))
        verdict = "pass" if rel <= 1e-10 else "fail"
    return ExperimentResult(rows, {}, verdict)


def run_process(p, seed, replicas, threads):
    dim = p["dim"]
    d_stat, ks_p = marginal_ks(dim, p["t"], p["dt"], replicas, seed)
    gamma = p["gamma"] if p["gamma"] is not None else Configuration.from_points(
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
    starts = p["starts"]
    radius = float(np.linalg.norm(starts, axis=1).max()) + 1.0
    gamma = Configuration.from_points(dim, starts, None, radius)
    rep = collision_report(gamma, p["horizon"], p["dt"], replicas, seed, p["epsilon_list"])
    rows = [
        _row(f"fraction_below_{e:g}", f, note=rep.note) for e, f in zip(rep.epsilons, rep.fractions)
    ]
    if dim >= 2:
        decreasing = all(a > b for a, b in zip(rep.fractions, rep.fractions[1:]))
        verdict = "pass" if decreasing and rep.fractions[-1] < 0.01 else "fail"
    else:
        rows.append(_row("crossing_fraction", rep.crossing_fraction, bound=rep.crossing_reference,
                         note="reflection-principle reference"))
        se = binomial_se(rep.crossing_reference, replicas)
        verdict = "pass" if abs(rep.crossing_fraction - rep.crossing_reference) <= 4 * se else "fail"
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
        "dim": Field("int", parse=_dim),
        "radius": Field("float", parse=_positive),
        "intensity": Field("float", parse=_positive),
    },
    run_sample_poisson,
    20000,
)
_register(
    "diffuse",
    {
        "dim": Field("int", parse=_dim),
        "t": Field("float", parse=_positive),
        "radius": Field("float", 2.0, parse=_positive),
        "intensity": Field("float", 1.0, parse=_positive),
    },
    run_diffuse,
    20000,
)
_register(
    "semigroup-exp",
    {
        "dim": Field("int", parse=_dim),
        "t": Field("float", parse=_positive),
        "phi": Field("dict", parse=_exp_phi),
        "gamma": Field("dict", None, parse=_configuration),
        "gamma_radius": Field("float", 2.0, parse=_positive),
        "gamma_intensity": Field("float", 1.0, parse=_positive),
    },
    run_semigroup_exp,
    100000,
)
_register(
    "invariance",
    {
        "dim": Field("int", parse=_dim),
        "functional": Field("str", parse=_one_of(*_INVARIANCE_FUNCTIONALS)),
        "intensity": Field("float", 1.0, parse=_positive),
        "t": Field("float", parse=_positive),
        "inner_radius": Field("float", 1.0, parse=_positive),
        "a": Field("float", 0.5, parse=_unit_interval),
        "width": Field("float", 0.7, parse=_positive),
    },
    run_invariance,
    100000,
)
_register(
    "generator",
    {
        "outer": Field("str", parse=_one_of(*_OUTERS)),
        "bumps": Field("list", parse=_bumps),
        "gamma": Field("dict", parse=_occupied_configuration),
        "t_list": Field("list", [0.1, 0.05, 0.025], parse=_decreasing_positives(2)),
    },
    run_generator,
    1000000,
)
_register(
    "feller",
    {
        "dim": Field("int", parse=_dim),
        "functional": Field("str", parse=_one_of(*_FELLER_FUNCTIONALS)),
        "phi": Field("dict", parse=_feller_phi),
        "gamma": Field("dict", parse=_configuration),
        "schedule": Field("str", "shift", parse=_one_of(*_SCHEDULES)),
        "metric": Field("str", "rho", parse=_one_of(*_METRICS)),
        "levels": Field("int", 10, parse=_positive),
        "t": Field("float", 0.5, parse=_positive),
        "ratio_tol": Field("float", 1e-3, parse=_positive),
    },
    run_feller,
    20000,
)
_register(
    "rho",
    {"g1": Field("dict", parse=_configuration), "g2": Field("dict", parse=_configuration)},
    run_rho,
    2,
)
_register(
    "flat-metric",
    {
        "g1": Field("dict", parse=_configuration),
        "g2": Field("dict", parse=_configuration),
        "i": Field("int", 5, parse=_positive),
        "sum_scales": Field("bool", False),
        "i_max": Field("int", 20, parse=_positive),
    },
    run_flat_metric,
    2,
)
_register(
    "ktransform",
    {
        "dim": Field("int", parse=_dim),
        "coeffs": Field("dict", parse=_coeffs),
        "profile": Field("dict", parse=_profile),
        "gamma": Field("dict", parse=_simple_configuration),
    },
    run_ktransform,
    2,
)
_register(
    "correlation",
    {
        "gamma": Field("dict", parse=_simple_configuration),
        "theta": Field("list", parse=_point_rows(1)),
        "t": Field("float", parse=_positive),
    },
    run_correlation,
    2,
)
_register(
    "permanent",
    {
        "eta": Field("list", parse=_point_rows(1)),
        "theta": Field("list", parse=_point_rows(1)),
        "t": Field("float", parse=_positive),
    },
    run_permanent,
    2,
)
_register(
    "process",
    {
        "dim": Field("int", parse=_dim),
        "t": Field("float", 1.0, parse=_positive),
        "dt": Field("float", 0.001, parse=_positive),
        "dt_coarse": Field("float", 0.01, parse=_positive),
        "n": Field("int", 1, parse=_positive),
        "gamma": Field("dict", None, parse=_configuration),
        "bn_replicas": Field("int", 100, parse=_positive),
    },
    run_process,
    10000,
)
_register(
    "oscillation",
    {
        "dim": Field("int", parse=_dim),
        "delta": Field("float", parse=_positive),
        "r": Field("float", parse=_positive),
        "substeps": Field("int", 64, parse=_require(lambda x: x >= 64, "must be >= 64")),
    },
    run_oscillation,
    10000,
)
_register(
    "collision",
    {
        "dim": Field("int", parse=_dim),
        "starts": Field("list", parse=_point_rows(2)),
        "horizon": Field("float", 1.0, parse=_positive),
        "dt": Field("float", 0.01, parse=_positive),
        "epsilon_list": Field("list", [0.1, 0.01, 0.001], parse=_decreasing_positives(1)),
    },
    run_collision,
    10000,
)
_register(
    "tail-tau",
    {
        "dim": Field("int", parse=_dim),
        "t": Field("float", parse=_positive),
        "r_list": Field("list", [0.5, 1.0, 2.0], parse=_nonnegatives),
        "check_certificate": Field("bool", True),
    },
    run_tail_tau,
    100000,
)

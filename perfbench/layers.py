"""Per-layer figures of the traced run.

``patches`` opens spans at the boundaries between confheat's layers while a
traced pass runs; ``PER_LAYER`` turns the spans into the per-layer metrics
named in BENCHMARK.json.  Each entry is (name, unit, better, getter).
"""
from __future__ import annotations

import contextlib
import dataclasses

import confheat.cli
import confheat.experiments
import confheat.metrics
import confheat.semigroup

BATTERY, MC, MC_1T, EXACT = "battery@1t", "mc-semigroup@2t", "mc-semigroup@1t", "exact-routes@1t"

#: battery configs that take over 20 ms each get a metric of their own
NAMED_CONFIGS = ("invariance", "collision_1d", "collision", "diffuse", "process", "oscillation",
                 "sample_poisson", "generator")
PROCESS_CALLS = ("marginal_ks", "bn_refinement_medians", "oscillation_check", "collision_report")
SEMIGROUP_CALLS = ("invariance_test", "apply_mc", "apply_exact_exponential", "generator_residual",
                   "feller_probe")
MC_CASES = ("semigroup.invariance_test.d3_exp", "semigroup.invariance_test.d2_count",
            "semigroup.apply_mc.exp_d2", "semigroup.apply_mc.kpoly_d1",
            "semigroup.generator_residual.exp_neg_sum")
EXACT_CASES = ("metrics.flat_metric.k20", "metrics.flat_metric.k40", "metrics.flat_metric.k60",
               "metrics.d_k.k20", "metrics.rho.n1000", "harmonic.k_transform.n20",
               "harmonic.k_transform.n40", "harmonic.k_transform.n80", "harmonic.permanent_kernel.n14",
               "harmonic.correlation_function.m10n5", "profiles.heat_convolve.smoothed_d1_n200",
               "profiles.heat_convolve.smoothed_d2_n200")


@contextlib.contextmanager
def patches(tracer, workload: str):
    """Spans around the calls one layer makes into the next, for one workload."""
    with contextlib.ExitStack() as stack:
        if workload == "battery":
            registry = confheat.experiments.EXPERIMENTS
            saved = dict(registry)
            # battery cases are named battery.<config stem>
            config_span = lambda: "experiments." + tracer.root_name().split(".", 1)[1]  # noqa: E731
            for key, exp in saved.items():
                registry[key] = dataclasses.replace(exp, run=tracer.traced(exp.run, config_span))
            stack.callback(registry.update, saved)
            stack.enter_context(tracer.patch(confheat.cli, "validate_config", "cli.validate_config"))
            stack.enter_context(tracer.patch(confheat.cli, "write_report", "reporting.write_report"))
            for fn in PROCESS_CALLS:
                stack.enter_context(tracer.patch(confheat.experiments, fn, f"process.{fn}"))
            for fn in SEMIGROUP_CALLS:
                stack.enter_context(tracer.patch(confheat.experiments, fn, f"semigroup.{fn}"))
        if workload in ("battery", "mc-semigroup"):
            stack.enter_context(tracer.patch(confheat.semigroup, "map_chunks", "rng.map_chunks"))
        if workload == "exact-routes":
            stack.enter_context(tracer.patch(confheat.metrics, "solve_lp", "simplex.solve_lp"))
        yield


def self_time_table(tracer) -> list[tuple[str, float, int]]:
    """(span name, summed self time, calls), largest self time first."""
    table: dict[str, list] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        entry = table.setdefault(span["name"], [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return sorted(((n, s, c) for n, (s, c) in table.items()), key=lambda row: -row[1])


def _seconds(run, name):
    return lambda ctx: ctx.tracer.total(run, name)


def _count(run, name, key):
    return lambda ctx: ctx.tracer.find(run, name)[0]["computed_counts"][key]


def _rate(run, name, key):
    return lambda ctx: _count(run, name, key)(ctx) / ctx.tracer.total(run, name)


def _se(name):
    return lambda ctx: next(r.result.std_error for r in ctx.runs[MC] if r.case.name == name)


def _other_configs(ctx):
    spans = [s for s in ctx.tracer.spans if s["run"] == BATTERY and s["name"].startswith("experiments.")]
    named = {f"experiments.{c}" for c in NAMED_CONFIGS}
    return sum(ctx.tracer.duration(s) for s in spans if s["name"] not in named)


def _path_steps(ctx):
    return sum(s["computed_counts"].get("path_steps", 0) for s in ctx.tracer.spans if s["run"] == BATTERY)


def _path_step_rate(ctx):
    busy = sum(ctx.tracer.total(BATTERY, f"process.{fn}") for fn in PROCESS_CALLS)
    return _path_steps(ctx) / busy


def _coverage(run):
    return lambda ctx: ctx.tracer.top_level(run) / sum(r.wall for r in ctx.runs[run])


PER_LAYER = [
    *[(f"{name}.s", "s", "lower", _seconds(MC, name)) for name in MC_CASES],
    ("semigroup.apply_mc.exp_d2.particle_steps", "count", "lower",
     _count(MC, "semigroup.apply_mc.exp_d2", "particle_steps")),
    ("semigroup.apply_mc.exp_d2.particle_steps_per_s", "1/s", "higher",
     _rate(MC, "semigroup.apply_mc.exp_d2", "particle_steps")),
    ("semigroup.invariance_test.d3_exp.particles", "count", "lower",
     _count(MC, "semigroup.invariance_test.d3_exp", "expected_particles")),
    ("semigroup.invariance_test.d3_exp.particles_per_s", "1/s", "higher",
     _rate(MC, "semigroup.invariance_test.d3_exp", "expected_particles")),
    ("semigroup.invariance_test.d3_exp.se", "1", "lower", _se("semigroup.invariance_test.d3_exp")),
    ("semigroup.apply_mc.exp_d2.se", "1", "lower", _se("semigroup.apply_mc.exp_d2")),
    ("rng.map_chunks.speedup_2t", "ratio", "higher",
     lambda ctx: ctx.tracer.total(MC_1T, MC_CASES[0]) / ctx.tracer.total(MC, MC_CASES[0])),
    *[(f"{name}.s", "s", "lower", _seconds(EXACT, name)) for name in EXACT_CASES],
    ("metrics.flat_metric.k60.lp_rows", "count", "lower", _count(EXACT, "metrics.flat_metric.k60", "lp_rows")),
    ("harmonic.k_transform.n80.subsets", "count", "lower", _count(EXACT, "harmonic.k_transform.n80", "subsets")),
    ("harmonic.permanent_kernel.n14.terms", "count", "lower",
     _count(EXACT, "harmonic.permanent_kernel.n14", "ryser_terms")),
    *[(f"experiments.{c}.s", "s", "lower", _seconds(BATTERY, f"experiments.{c}")) for c in NAMED_CONFIGS],
    ("experiments.other.s", "s", "lower", _other_configs),
    ("process.path_steps", "count", "lower", _path_steps),
    ("process.path_steps_per_s", "1/s", "higher", _path_step_rate),
    ("cli.validate_config.s", "s", "lower", _seconds(BATTERY, "cli.validate_config")),
    ("reporting.write_report.s", "s", "lower", _seconds(BATTERY, "reporting.write_report")),
    ("trace.overhead_s", "s", "lower", lambda ctx: ctx.overhead),
    *[(f"trace.coverage.{w}", "ratio", "higher", _coverage(run))
      for w, run in (("battery", BATTERY), ("mc-semigroup", MC), ("exact-routes", EXACT))],
]


@dataclasses.dataclass
class _Context:
    tracer: object
    runs: dict
    overhead: float


def per_layer(tracer, runs: dict, overhead: float) -> dict:
    """{metric name: (value, unit)} for every entry of PER_LAYER."""
    ctx = _Context(tracer, runs, overhead)
    return {name: (float(get(ctx)), unit) for name, unit, _, get in PER_LAYER}

"""Reach ratchet: the confheat functions that no shipped config calls.

A fresh interpreter sets a profiler on every thread before ``import confheat``
(so the schema factories that run at import count as reached), then runs
``validate`` and ``run`` of every config in scripts/configs through
``cli.main``.  The functions of src/confheat it never enters must equal
``NEVER_CALLED``.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "confheat"

TRACER = """
import contextlib, io, json, pathlib, sys, threading

package, configs, out = (pathlib.Path(a).resolve() for a in sys.argv[1:])
codes = set()

def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(profile)
threading.setprofile(profile)
from confheat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for config in sorted(configs.glob("*.json")):
        assert main(["validate", str(config)]) == 0, config
        assert main(["run", str(config), "--out", str(out / config.stem)]) == 0, config
sys.setprofile(None)
paths = {code: pathlib.Path(code.co_filename) for code in codes}
reached = {(path.stem, code.co_qualname) for code, path in paths.items() if path.parent == package}
(out / "reached.json").write_text(json.dumps(sorted(reached)))
"""

# (module, qualified name) of every function in src/confheat that the shipped configs never call.
# Entries may only be removed: a function a change leaves unreached must get a config row or go.
NEVER_CALLED = [
    ("cli", "_apply_override"),
    ("cli", "_error"),
    ("cli", "_print_invalid"),
    ("experiments", "_far_point"),
    ("harmonic", "_ball_nodes"),
    ("harmonic", "_rectangular_injective_sum"),
    ("harmonic", "_tensor_quadrature"),
    ("harmonic", "lebesgue_poisson_integral"),
    ("harmonic", "star_convolution"),
    ("harmonic", "star_kernel"),
    ("harmonic", "transfer_expectation"),
    ("harmonic", "verify_d_class"),
    ("kernel", "chapman_kolmogorov_residual"),
    ("kernel", "verify_dominating_bound"),
    ("metrics", "d1"),
    ("metrics", "d_infty"),
    ("metrics", "flat_metric_lp"),
    ("metrics", "solve_lp"),
    ("points", "Configuration.empty"),
    ("points", "Configuration.from_json"),
    ("points", "Configuration.same_as"),
    ("points", "Configuration.to_dict"),
    ("points", "Configuration.to_json"),
    ("points", "truncation_tail_bound"),
    ("process", "PathBundle.__post_init__"),
    ("process", "simulate_paths"),
    ("profiles", "BoxIndicator.__call__"),
    ("profiles", "BoxIndicator.__post_init__"),
    ("profiles", "BoxIndicator.decay_bound"),
    ("profiles", "BoxIndicator.dim"),
    ("profiles", "BoxIndicator.heat_convolve"),
    ("profiles", "BoxIndicator.support_box"),
    ("profiles", "ConstantProfile.__call__"),
    ("profiles", "ConstantProfile.dim"),
    ("profiles", "ConstantProfile.heat_convolve"),
    ("profiles", "ErfBox.__call__"),
    ("profiles", "ErfBox.dim"),
    ("profiles", "ErfBox.heat_convolve"),
    ("profiles", "ErfBox.support_box"),
    ("profiles", "GaussianBump.support_box"),
    ("profiles", "RadialHeatConvolution.__call__"),
    ("profiles", "RadialHeatConvolution._integrate"),
    ("profiles", "RadialHeatConvolution.dim"),
    ("profiles", "SmoothedIndicator.__call__"),
    ("profiles", "SmoothedIndicator.__post_init__"),
    ("profiles", "SmoothedIndicator.dim"),
    ("profiles", "SmoothedIndicator.heat_convolve"),
    ("profiles", "SmoothedIndicator.radial"),
    ("profiles", "SmoothedIndicator.support_box"),
    ("profiles", "_gauss"),
    ("profiles", "_norms"),
    ("semigroup", "ConfigurationFunctional.batch"),
    ("semigroup", "ConfigurationFunctional.segments"),
    ("semigroup", "KPolynomialFunctional.batch"),
    ("semigroup", "WindowedConstant.segments"),
    ("semigroup", "WindowedCount.segments"),
    ("semigroup", "_square_heat"),
    ("semigroup", "generator_residual"),
    ("semigroup", "generator_residual.<locals>.sample"),
    ("semigroup", "outer_exp_neg_sum"),
    ("semigroup", "outer_exp_neg_sum.<locals>.fn"),
    ("semigroup", "outer_square"),
]


def _defined_functions() -> set[tuple[str, str]]:
    """(module stem, qualified name) of every def, async def and class in src/confheat, named as Python names
    their code objects."""

    def walk(node, prefix, found, stem):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((stem, prefix + child.name))
                walk(child, f"{prefix}{child.name}.<locals>.", found, stem)
            elif isinstance(child, ast.ClassDef):  # a class body is a code object too, run where it stands
                found.add((stem, prefix + child.name))
                walk(child, f"{prefix}{child.name}.", found, stem)
            else:
                walk(child, prefix, found, stem)

    found = set()
    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()), "", found, path.stem)
    return found


def test_unreached_functions_only_shrink(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    subprocess.run([sys.executable, "-c", TRACER, str(PACKAGE), str(ROOT / "scripts" / "configs"), str(tmp_path)],
                   env=env, check=True, cwd=tmp_path)
    reached = {tuple(name) for name in json.loads((tmp_path / "reached.json").read_text())}
    defined = _defined_functions()
    # every named function the tracer saw is one the source defines: the two namings agree
    assert {name for name in reached if not name[1].rpartition(".")[2].startswith("<")} <= defined
    assert sorted(defined - reached) == sorted(NEVER_CALLED)

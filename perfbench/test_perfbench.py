"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The checker tests plant a wrong value next to a right one and take a few
seconds; the workload tests run every workload once at three seeds and the
traced run once, about four minutes on two cores.
"""
from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from confheat import harmonic  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def exact_cases():
    w = workloads.ExactRoutes(ROOT, 0, None)
    return {case.name: case for case in w.cases()}


@pytest.fixture(scope="module")
def mc_results():
    w = workloads.MCSemigroup(ROOT, 0, None)
    cheap = ("semigroup.apply_mc.exp_d2", "semigroup.apply_mc.kpoly_d1",
             "semigroup.generator_residual.exp_neg_sum", "semigroup.invariance_test.d2_count")
    return {c.name: (c, c.call()) for c in w.cases() if c.name in cheap}


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_names_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(w["why"] and "\n" not in w["why"] for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {n: (m["unit"], m["better"]) for n, m in e2e.items()} == {
        "setup_s": ("s", "lower"), "wall_s": ("s", "lower"), "cpu_s": ("s", "lower"),
        "peak_rss_mb": ("MB", "lower")}
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in layers.PER_LAYER]


# ---------------------------------------------------------------------------
# checkers: a planted wrong value is flagged, the right one is not


@pytest.mark.parametrize("name", ["metrics.flat_metric.k20", "metrics.flat_metric.k40", "metrics.rho.n1000",
                                  "harmonic.k_transform.n20", "harmonic.k_transform.n40",
                                  "harmonic.correlation_function.m10n5"])
def test_scalar_checkers_flag_a_perturbed_value(exact_cases, name):
    case = exact_cases[name]
    value = case.call()
    assert case.check(value) is None
    assert case.check(value * (1 + 1e-6) + 1e-6) is not None
    assert case.check(math.nan) is not None


def test_d_k_checker_flags_a_perturbed_value(exact_cases):
    case = exact_cases["metrics.d_k.k20"]
    value = case.call()
    assert case.check(value) is None
    assert case.check(dataclasses.replace(value, value=value.value + 1e-6)) is not None


def test_permanent_checker_flags_a_swapped_permanent(exact_cases):
    case = exact_cases["harmonic.permanent_kernel.n14"]
    assert case.check(case.call()) is None
    w = workloads.ExactRoutes(ROOT, 0, None)
    swapped = w.perm_theta.copy()
    swapped[[0, -1]] = swapped[[-1, 0]] + 0.05  # another matrix, not a permutation of this one
    assert case.check(harmonic.permanent_kernel(w.perm_eta, swapped, w.perm_t)) is not None


@pytest.mark.parametrize("d", [1, 2])
def test_heat_convolution_checker_flags_one_wrong_point(exact_cases, d):
    case = exact_cases[f"profiles.heat_convolve.smoothed_d{d}_n200"]
    values = case.call()
    assert case.check(values) is None
    planted = values.copy()
    planted[17] += 1e-7
    assert case.check(planted) is not None


def test_mc_checkers_flag_a_mean_shifted_by_10_se_and_an_se_over_its_ceiling(mc_results):
    for name in ("semigroup.apply_mc.exp_d2", "semigroup.apply_mc.kpoly_d1"):
        case, est = mc_results[name]
        assert case.check(est) is None
        assert case.check(dataclasses.replace(est, mean=est.mean + 10 * est.std_error)) is not None
        assert case.check(dataclasses.replace(est, std_error=2 * est.std_error)) is not None


def test_invariance_checker_flags_a_shifted_difference(mc_results):
    case, rep = mc_results["semigroup.invariance_test.d2_count"]
    assert case.check(rep) is None
    assert case.check(dataclasses.replace(rep, mean_diff=rep.mean_diff + 10 * rep.std_error)) is not None
    assert case.check(dataclasses.replace(rep, passed=False)) is not None


def test_generator_checker_flags_a_shifted_quotient(mc_results):
    case, rep = mc_results["semigroup.generator_residual.exp_neg_sum"]
    assert case.check(rep) is None
    entries = list(rep.entries)
    e = entries[1]
    entries[1] = dataclasses.replace(e, quotient=e.quotient + 10 * e.std_error)
    assert case.check(dataclasses.replace(rep, entries=tuple(entries))) is not None
    assert case.check(dataclasses.replace(rep, generator_value=rep.generator_value * 1.001)) is not None
    assert case.check(dataclasses.replace(rep, verdict="inconclusive")) is not None


def test_battery_checker_flags_exit_code_verdict_and_changed_bytes(tmp_path):
    w = workloads.Battery(ROOT, None, tmp_path)
    case = next(c for c in w.cases() if c.name == "battery.rho")
    records = run.run_pass(w, [case]) + run.run_pass(w, [case])
    assert run.check(records) == []
    code, csv_bytes, json_bytes = records[0].result
    assert case.check((1, csv_bytes, json_bytes)) is not None
    failed = json_bytes.replace(b'"verdict": "pass"', b'"verdict": "fail"')
    assert failed != json_bytes and case.check((0, csv_bytes, failed)) is not None
    records[1].result = (code, csv_bytes + b"\r\n", json_bytes)
    assert len(run.check(records)) == 1


# ---------------------------------------------------------------------------
# whole workloads


@pytest.mark.parametrize("seed", [None, 11, 29])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_has_no_failures(workload, seed):
    args = ["--workload", workload, "--seconds", "0"] + ([] if seed is None else ["--seed", str(seed)])
    result = _result(_bench(*args))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_bench("--workload", "battery", "--seed", "3", "--trace", "1"))
    # the check covers bit-identical mc-semigroup results at 1 and 2 threads
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [entry[0] for entry in layers.PER_LAYER]
    assert all(metrics[f"trace.coverage.{w}"]["value"] >= 0.9 for w in run.WORKLOAD_NAMES)
    assert metrics["metrics.flat_metric.k60.lp_rows"]["value"] == 3600
    assert metrics["harmonic.k_transform.n80.subsets"]["value"] == 85400
    assert metrics["harmonic.permanent_kernel.n14.terms"]["value"] == 16383
    spans = json.loads((ROOT / ".perfbench_out" / "trace-battery-3.json").read_text())["spans"]
    assert {s["run"] for s in spans} == {"battery@1t", "mc-semigroup@2t", "mc-semigroup@1t", "exact-routes@1t"}
    assert all(s["self"] <= s["duration"] for s in spans)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "battery", "--seed", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

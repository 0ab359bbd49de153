"""Every experiment in the registry runs end to end on a small config."""
import json
import math
import tracemalloc

import numpy as np
import pytest

import confheat.rng
from confheat.cli import run_experiment, validate_config
from confheat.experiments import EXPERIMENTS, ExperimentResult
from confheat.rng import TAG_EXPERIMENT, substream

POINT = {"dim": 1, "window_radius": 2.0, "points": [[[0.0], 1]]}
PAIR = {"dim": 1, "window_radius": 2.0, "points": [[[0.0], 1], [[0.8], 1]]}
TRIPLE = {"dim": 1, "window_radius": 3.0, "points": [[[0.0], 1], [[1.5], 1], [[-2.0], 1]]}

SMALL_CONFIGS = {
    "sample-poisson": {"replicas": 4000, "params": {"dim": 2, "radius": 1.0, "intensity": 1.0}},
    "diffuse": {"replicas": 2000, "params": {"dim": 1, "t": 0.4}},
    "semigroup-exp": {
        "replicas": 20000,
        "params": {
            "dim": 1,
            "t": 0.5,
            "phi": {"family": "gaussian_bump", "amp": -0.4, "width": 1.0},
            "gamma": PAIR,
        },
    },
    "invariance": {
        "replicas": 20000,
        "params": {"dim": 2, "functional": "count", "t": 0.1, "inner_radius": 1.0},
    },
    "generator": {
        "replicas": 300000,
        "params": {
            "outer": "linear",
            "bumps": [{"amp": 1.0, "center": [0.0], "width": 0.7071067811865476}],
            "gamma": POINT,
        },
    },
    "feller": {
        "replicas": 2000,
        "params": {
            "dim": 1,
            "functional": "kernel",
            "phi": {"family": "gaussian_bump", "amp": 0.6, "width": 1.0},
            "gamma": TRIPLE,
            "schedule": "shift",
            "metric": "rho",
            "levels": 8,
            "ratio_tol": 0.01,
        },
    },
    "rho": {"params": {"g1": PAIR, "g2": {"dim": 1, "window_radius": 2.0, "points": [[[0.3], 1], [[1.0], 1]]}}},
    "flat-metric": {"params": {"g1": POINT, "g2": {"dim": 1, "window_radius": 2.0, "points": []}, "i": 5}},
    "ktransform": {
        "params": {
            "dim": 1,
            "coeffs": {"1": 1.0, "2": 0.5},
            "profile": {"family": "gaussian_bump", "amp": 0.7, "width": 1.0},
            "gamma": TRIPLE,
        }
    },
    "correlation": {"params": {"gamma": TRIPLE, "theta": [[0.2], [0.9]], "t": 0.5}},
    "permanent": {"params": {"eta": [[0.0], [1.0], [2.0]], "theta": [[0.5], [1.5], [2.5]], "t": 0.5}},
    "process": {
        "replicas": 4000,
        "params": {"dim": 1, "t": 0.5, "dt": 0.005, "dt_coarse": 0.05, "n": 1, "bn_replicas": 40},
    },
    "oscillation": {"replicas": 2000, "params": {"dim": 1, "delta": 0.01, "r": 0.6}},
    "collision": {
        "replicas": 2000,
        "params": {"dim": 2, "starts": [[0.0, 0.0], [0.5, 0.0]], "horizon": 0.5, "dt": 0.01,
                   "epsilon_list": [0.1, 0.001]},
    },
    "tail-tau": {"replicas": 20000, "params": {"dim": 1, "t": 0.5, "r_list": [0.5, 1.5],
                                               "check_certificate": True}},
}


def test_registry_and_small_configs_agree():
    assert set(SMALL_CONFIGS) == set(EXPERIMENTS)


def test_shipped_configs_validate():
    import pathlib

    config_dir = pathlib.Path(__file__).parent.parent / "scripts" / "configs"
    paths = sorted(config_dir.glob("*.json"))
    assert paths, "battery configs must exist"
    for path in paths:
        config, errors = validate_config(path.read_text())
        assert errors == [], (path.name, errors)
        assert config["experiment"] in EXPERIMENTS


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_each_experiment_runs_and_passes(name, tmp_path):
    doc = {"experiment": name, "seed": 7, "output": str(tmp_path / "r"), **SMALL_CONFIGS[name]}
    config, errors = validate_config(json.dumps(doc))
    assert errors == [], errors
    code, summary = run_experiment(config)
    assert summary["verdict"] == "pass", summary
    assert code == 0
    csv_text = (tmp_path / "r.csv").read_text()
    assert csv_text.startswith("experiment,measurement,value,std_error,bound,verdict,note")
    assert ",pass," in csv_text
    parsed = json.loads((tmp_path / "r.json").read_text())
    assert parsed["experiment"] == name
    assert parsed["config"]["seed"] == 7


def _one_config_battery(tmp_path, monkeypatch):
    """scripts/run_battery.py as a module whose battery is the rho config alone, run in tmp_path."""
    import importlib.util
    import pathlib
    import shutil

    script = pathlib.Path(__file__).parent.parent / "scripts" / "run_battery.py"
    spec = importlib.util.spec_from_file_location("run_battery", script)
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    configs = tmp_path / "configs"
    configs.mkdir()
    shutil.copy(battery.CONFIG_DIR / "rho.json", configs)
    monkeypatch.setattr(battery, "CONFIG_DIR", configs)
    monkeypatch.chdir(tmp_path)
    return battery


def test_battery_determinism_check_repeats_in_one_directory(tmp_path, monkeypatch, capsys):
    import sys

    battery = _one_config_battery(tmp_path, monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_battery.py", "--check-determinism"])
    for _ in range(2):
        assert battery.main() == 0
        assert "determinism check: byte-identical" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "reports_first").iterdir()) == ["rho.csv", "rho.json"]


def test_battery_against_reference_names_every_differing_report(tmp_path, monkeypatch, capsys):
    import shutil
    import sys

    battery = _one_config_battery(tmp_path, monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_battery.py"])
    assert battery.main() == 0
    reference = tmp_path / "reference"
    shutil.copytree(tmp_path / "reports", reference)
    monkeypatch.setattr(sys, "argv", ["run_battery.py", "--against", str(reference)])
    capsys.readouterr()
    assert battery.main() == 0
    assert f"comparison against {reference}: byte-identical reports (2 files)" in capsys.readouterr().out
    (reference / "rho.csv").write_bytes((reference / "rho.csv").read_bytes() + b"\r\n")
    (reference / "stale.json").write_text("{}")
    assert battery.main() == 1
    assert "FAILED for: rho.csv, stale.json" in capsys.readouterr().out


def test_battery_comparison_prints_each_changed_row(tmp_path, monkeypatch, capsys):
    import json

    battery = _one_config_battery(tmp_path, monkeypatch)

    def report(directory, rows, **fields):
        directory.mkdir()
        results = [dict(zip(("measurement", "value", "std_error", "note", "bound"), row)) for row in rows]
        (directory / "mc.json").write_text(json.dumps({"experiment": "mc", **fields, "results": results}))
        (directory / "mc.csv").write_text("".join(f"{row[0]},{row[1]}\r\n" for row in rows))
        (directory / "exact.json").write_text(json.dumps({"results": [{"measurement": "x", "value": 1.0}]}))

    report(tmp_path / "a", [("mean", 1.0, 0.3, ""), ("p", 0.5, None, ""), ("same", 2.0, 0.1, ""),
                            ("noted", 3.0, 0.1, "old"), ("gone", 4.0, 0.1, ""), ("near", 0.9, 0.01, ""),
                            ("rebound", 1.0, 0.1, "", 0.5)],
           verdict="pass", details={"outer": "linear", "kept": 1},
           config={"replicas": 2, "params": {"t": [0.1], "dim": 1}})
    report(tmp_path / "b", [("mean", 1.5, 0.4, ""), ("p", 0.25, None, "", 0.001), ("same", 2.0, 0.1, ""),
                            ("noted", 3.0, 0.1, "new"), ("inf", "inf", 0.1, ""), ("near", 0.93, 0.02, "", 0.95),
                            ("rebound", 1.0, 0.2, "", 0.6), ("fresh", 0.5, 0.1, "", 0.3),
                            ("unbounded", 0.5, 0.1, "", "inf")],
           verdict="fail", details={"outer": "square", "kept": 1},
           config={"replicas": 10, "params": {"t": [0.1, 0.05], "dim": 1, "seed": 3}})
    assert battery.compare_reports(tmp_path / "a", tmp_path / "b", "cmp") == 1
    lines = capsys.readouterr().out.splitlines()
    # the fields outside the rows come first, as dotted paths; a row whose value did not change names the
    # fields that did; a current row with an SE and a numeric bound also shows its signed gap to the bound
    assert lines == ["cmp FAILED for: mc.csv, mc.json",
                     "  mc verdict: pass -> fail",
                     "  mc details.outer: linear -> square",
                     "  mc config.replicas: 2 -> 10",
                     "  mc config.params.t: [0.1] -> [0.1, 0.05]",
                     "  mc config.params.seed: absent -> 3",
                     "  mc mean: 1.0 -> 1.5 (1.00 combined SE)",
                     "  mc p: 0.5 -> 0.25",
                     "  mc noted: 3.0 -> 3.0 (note changed; 0.00 combined SE)",
                     "  mc gone: 4.0 -> absent",
                     "  mc near: 0.9 -> 0.93 (1.34 combined SE; -1.00 SE from bound 0.95)",
                     "  mc rebound: 1.0 -> 1.0 (std_error, bound changed; 0.00 combined SE; +2.00 SE from bound 0.6)",
                     "  mc inf: absent -> inf",
                     "  mc fresh: absent -> 0.5 (+2.00 SE from bound 0.3)",
                     "  mc unbounded: absent -> 0.5"]


def test_battery_counts_report_mismatches_apart_from_failures(tmp_path, monkeypatch, capsys):
    import shutil
    import sys

    battery = _one_config_battery(tmp_path, monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_battery.py"])
    assert battery.main() == 0
    reference = tmp_path / "reference"
    shutil.copytree(tmp_path / "reports", reference)
    (reference / "rho.json").write_text("{}")
    monkeypatch.setattr(sys, "argv", ["run_battery.py", "--check-determinism", "--against", str(reference)])
    capsys.readouterr()
    # the one experiment passes, so the differing report is a mismatch, not a failed experiment
    assert battery.main() == 1
    out = capsys.readouterr().out
    assert "determinism check: byte-identical reports (2 files)" in out
    assert "FAILED for: rho.json" in out
    assert "1 report comparison(s) found differences" in out
    assert "experiment(s) failed" not in out
    # a config that errors in both passes is one failed experiment
    (battery.CONFIG_DIR / "broken.json").write_text('{"experiment": "rho", "seed": 1}')
    assert battery.main() == 1
    out = capsys.readouterr().out
    assert out.count("broken           ERROR") == 2
    assert "1 experiment(s) failed" in out and "1 report comparison(s) found differences" in out


def test_collision_rows_carry_binomial_standard_errors():
    from confheat.experiments import run_collision
    from confheat.special import binomial_se

    p = {"dim": 1, "starts": [[0.0], [0.1]], "horizon": 0.2, "dt": 0.01, "epsilon_list": [0.05, 0.02]}
    result = run_collision(p, seed=7, replicas=500, threads=1)
    rows = {row["measurement"]: row for row in result.rows}
    assert set(rows) == {"fraction_below_0.05", "fraction_below_0.02", "crossing_fraction"}
    for row in rows.values():
        assert row["std_error"] == binomial_se(row["value"], 500)


def test_collision_1d_fraction_rows_carry_the_exact_value_as_bound():
    # P(M < e) = 2 Phi((e - g) / (2 sqrt(horizon))) for the start gap g, and 1 once e >= g; no gate reads it
    from scipy.special import ndtr

    from confheat.experiments import run_collision

    p = {"dim": 1, "starts": [[0.3], [0.1]], "horizon": 0.5, "dt": 0.01, "epsilon_list": [0.25, 0.2, 0.05]}
    result = run_collision(p, seed=7, replicas=500, threads=1)
    bounds = [row["bound"] for row in result.rows]
    assert bounds[:2] == [1.0, 1.0]
    assert bounds[2] == pytest.approx(2.0 * ndtr(-0.15 / (2.0 * 0.5**0.5)), rel=1e-12)
    assert result.rows[3]["measurement"] == "crossing_fraction"
    assert bounds[3] == pytest.approx(2.0 * ndtr(-0.2 / (2.0 * 0.5**0.5)), rel=1e-12)
    two_d = dict(p, dim=2, starts=[[0.0, 0.0], [0.3, 0.0]])
    assert all(row["bound"] is None for row in run_collision(two_d, seed=7, replicas=500, threads=1).rows)


def test_battery_verdict_line_carries_cpu_seconds(tmp_path, monkeypatch, capsys):
    import re
    import sys

    battery = _one_config_battery(tmp_path, monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_battery.py"])
    assert battery.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if re.fullmatch(r"rho +pass +\d+\.\d{3} s cpu", line)], lines
    # the timing stays on stdout, out of the reports
    assert "cpu" not in (tmp_path / "reports" / "rho.json").read_text()
    # the last line totals the CPU seconds of every config run, both passes of a determinism check included
    for argv, passes in ((["run_battery.py"], 1), (["run_battery.py", "--check-determinism"], 2)):
        monkeypatch.setattr(sys, "argv", argv)
        assert battery.main() == 0
        lines = capsys.readouterr().out.splitlines()
        seconds = [float(line.split()[2]) for line in lines if re.fullmatch(r"rho +pass +\d+\.\d{3} s cpu", line)]
        assert len(seconds) == passes
        total = re.fullmatch(r"total +(\d+\.\d{3}) s cpu", lines[-1])
        assert total, lines
        assert abs(float(total.group(1)) - sum(seconds)) <= 0.0005 * (passes + 1) + 1e-9


@pytest.mark.parametrize("gates, verdict", [
    ([], "pass"),
    ([True, True], "pass"),
    ([None], "inconclusive"),
    ([True, None], "inconclusive"),
    ([False, None], "fail"),
    ([None, False, True], "fail"),
    ([np.True_, True], "pass"),
    ([np.True_, None], "inconclusive"),
    ([np.False_], "fail"),
    ([np.False_, None], "fail"),
])
def test_verdict_is_derived_from_the_gates(gates, verdict):
    # numpy booleans count as Python ones: a decided gate fails by being falsy, not by being False
    assert ExperimentResult([], {}, gates).verdict == verdict


def test_inconclusive_generator_stays_inconclusive_with_ratios_out_of_band(monkeypatch):
    # an undecided residual outranks the ratios: the report's verdict is the run's one generator gate
    from confheat import experiments
    from confheat.semigroup import GENERATOR_RATIO_RANGE, GeneratorEntry, GeneratorReport

    entries = (GeneratorEntry(0.1, 1.0, 0.5, 1.0, True), GeneratorEntry(0.05, 1.0, 0.01, 0.001, False))
    report = GeneratorReport(0.5, entries, (50.0,), "inconclusive", "standard error dominates a residual")
    assert not GENERATOR_RATIO_RANGE[0] <= report.ratios[0] <= GENERATOR_RATIO_RANGE[1]
    monkeypatch.setattr(experiments, "generator_residual", lambda *args, **kwargs: report)
    params = dict(SMALL_CONFIGS["generator"]["params"], outer="exp_neg_sum", t_list=[0.1, 0.05])
    errors = []
    _, parsed = experiments.validate_params(EXPERIMENTS["generator"].schema, params, errors)
    assert not errors
    result = experiments.run_generator(parsed, 0, 1000, 1)
    assert result.verdict == "inconclusive"
    assert [row["measurement"] for row in result.rows] == ["generator_value", "residual_t=0.1", "residual_t=0.05",
                                                           "ratio_0"]


def _one_draw_tail_fractions(p, seed, replicas):
    """The tail fractions by tail-tau's former route: every replica's displacement in one (replicas, dim) draw."""
    z = substream(seed, TAG_EXPERIMENT, 4).standard_normal((replicas, p["dim"]))
    norms = np.linalg.norm(math.sqrt(2 * p["t"]) * z, axis=-1)
    return [float(np.mean(norms > r)) for r in p["r_list"]]


@pytest.mark.parametrize("block_points", [7, 64, confheat.rng.BLOCK_POINTS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tail_tau_blocks_equal_the_one_draw_route(monkeypatch, block_points, seed):
    # the blocks continue one stream, so the fractions are the one draw's bit for bit whatever the block size
    monkeypatch.setattr(confheat.rng, "BLOCK_POINTS", block_points)
    for dim, t, replicas, r_list in [(1, 0.5, 1001, [0.0, 0.5, 1.5]), (2, 0.25, 3000, [0.5, 1, 2.0]),
                                     (3, 0.1, 777, [0.25, 0.6, 3.0])]:
        p = {"dim": dim, "t": t, "r_list": r_list, "check_certificate": None}
        rows = EXPERIMENTS["tail-tau"].run(p, seed, replicas, 1).rows
        assert [row["measurement"] for row in rows] == [f"tail_r={r:g}" for r in r_list]
        assert [row["value"] for row in rows] == _one_draw_tail_fractions(p, seed, replicas)


def test_tail_tau_holds_one_block_whatever_the_replicas():
    # 2e6 replicas in d = 3: the one-draw route held all 6e6 normals and their norms (61.5 MiB traced)
    p = {"dim": 3, "t": 0.25, "r_list": [0.5, 1.0, 2.0], "check_certificate": None}
    tracemalloc.start()
    try:
        EXPERIMENTS["tail-tau"].run(p, 0, 2_000_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block holds BLOCK_POINTS / 2 replicas (two path points each) of 3 coordinates: 768 KiB
    block = 8 * 3 * (confheat.rng.BLOCK_POINTS // 2)
    assert peak <= 3 * block

"""Every experiment in the registry runs end to end on a small config."""
import json

import pytest

from confheat.cli import run_experiment, validate_config
from confheat.experiments import EXPERIMENTS

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


def test_battery_determinism_check_repeats_in_one_directory(tmp_path, monkeypatch, capsys):
    import importlib.util
    import pathlib
    import shutil
    import sys

    script = pathlib.Path(__file__).parent.parent / "scripts" / "run_battery.py"
    spec = importlib.util.spec_from_file_location("run_battery", script)
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    configs = tmp_path / "configs"
    configs.mkdir()
    shutil.copy(battery.CONFIG_DIR / "rho.json", configs)
    monkeypatch.setattr(battery, "CONFIG_DIR", configs)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["run_battery.py", "--check-determinism"])
    for _ in range(2):
        assert battery.main() == 0
        assert "determinism check: byte-identical" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "reports_first").iterdir()) == ["rho.csv", "rho.json"]

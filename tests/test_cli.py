import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from confheat.cli import main, run_experiment, validate_config

CONFIG_DIR = pathlib.Path(__file__).parent.parent / "scripts" / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_minimal_config_fills_defaults():
    doc = {"experiment": "sample-poisson", "params": {"dim": 2, "radius": 1.0, "intensity": 1.0}}
    config, errors = validate_config(json.dumps(doc))
    assert errors == []
    assert config["seed"] == 0
    assert config["replicas"] == 20000
    assert config["output"] == "report"
    fm = {"experiment": "flat-metric", "params": {"g1": {"dim": 1, "window_radius": 1, "points": []},
                                                  "g2": {"dim": 1, "window_radius": 1, "points": []}}}
    config2, errors2 = validate_config(json.dumps(fm))
    assert errors2 == []
    assert config2["params"]["i_max"] == 20 and config2["params"]["i"] == 5


def test_validate_reports_all_errors():
    doc = {
        "experiment": "semigroup-exp",
        "bogus": 1,
        "params": {"dim": 2, "t": -0.5, "phi": {"family": "gaussian_bump", "amp": -0.3, "width": 1.0},
                   "nonsense": True},
    }
    config, errors = validate_config(json.dumps(doc))
    assert config is None
    assert len(errors) >= 3  # unknown top key, bad t, unknown param
    assert any("bogus" in e for e in errors)
    assert any("params.t" in e for e in errors)
    assert any("params.nonsense" in e for e in errors)


def test_validate_unknown_experiment_and_syntax():
    config, errors = validate_config("{not json")
    assert config is None and "syntax error" in errors[0]
    config, errors = validate_config(json.dumps({"experiment": "warp-drive"}))
    assert config is None and any("unknown experiment" in e for e in errors)


def test_run_semigroup_exp_zero_phi_passes(tmp_path):
    doc = {
        "experiment": "semigroup-exp",
        "seed": 3,
        "replicas": 500,
        "output": str(tmp_path / "zero"),
        "params": {
            "dim": 1,
            "t": 0.5,
            "phi": {"family": "gaussian_bump", "amp": 0.0, "width": 1.0},
            "gamma": {"dim": 1, "window_radius": 2.0, "points": [[[0.5], 1]]},
        },
    }
    config, errors = validate_config(json.dumps(doc))
    assert errors == []
    code, summary = run_experiment(config)
    assert code == 0 and summary["verdict"] == "pass"
    rows = summary["results"]
    assert any(r["measurement"] == "mc_estimate" and r["value"] == 1.0 for r in rows)
    assert (tmp_path / "zero.csv").exists() and (tmp_path / "zero.json").exists()


def test_run_rho_infinite_value_passes(tmp_path):
    doc = {
        "experiment": "rho",
        "output": str(tmp_path / "rho"),
        "params": {
            "g1": {"dim": 1, "window_radius": 2.0, "points": [[[0.0], 1]]},
            "g2": {"dim": 1, "window_radius": 2.0, "points": []},
        },
    }
    config, errors = validate_config(json.dumps(doc))
    assert errors == []
    code, summary = run_experiment(config)
    assert code == 0 and summary["verdict"] == "pass"
    text = (tmp_path / "rho.json").read_text()
    assert '"inf"' in text
    csv_text = (tmp_path / "rho.csv").read_text()
    assert "rho,inf" in csv_text.replace("\r\n", "\n")


def test_run_invariance_pad_too_small_is_error(tmp_path, capsys):
    # the invariance route has no window: window keys are unknown params
    doc = {
        "experiment": "invariance",
        "replicas": 100,
        "output": str(tmp_path / "inv"),
        "params": {"dim": 2, "functional": "count", "t": 0.5, "inner_radius": 1.0,
                   "outer_radius": 1.2, "leakage_tol": 1e-6},
    }
    config, errors = validate_config(json.dumps(doc))
    assert config is None
    assert any("params.outer_radius" in e for e in errors) and any("params.leakage_tol" in e for e in errors)
    cfg = write_config(tmp_path, doc)
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "inv.json").exists()


def test_cli_main_run_and_overrides(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "tail-tau",
            "seed": 9,
            "replicas": 20000,
            "params": {"dim": 2, "t": 1.0, "r_list": [0.5, 2.0], "check_certificate": False},
        },
    )
    out_prefix = str(tmp_path / "tt")
    code = main(["run", cfg, "--out", out_prefix, "--set", "params.t=0.5"])
    assert code == 0
    summary = json.loads((tmp_path / "tt.json").read_text())
    assert summary["config"]["params"]["t"] == 0.5
    assert summary["verdict"] == "pass"


def test_cli_validate_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"experiment": "sample-poisson", "params": {"dim": 1, "radius": 1.0, "intensity": 2.0}}
    )
    assert main(["validate", cfg]) == 0
    bad = write_config(tmp_path, {"experiment": "sample-poisson", "params": {"dim": 1}}, "bad.json")
    assert main(["validate", bad]) == 2


def test_cli_exit_status_contract(tmp_path):
    # deliberately unsatisfiable statistical check -> nonzero exit
    cfg = write_config(
        tmp_path,
        {
            "experiment": "collision",
            "seed": 1,
            "replicas": 400,
            "output": str(tmp_path / "c"),
            "params": {"dim": 2, "starts": [[0.0, 0.0], [0.5, 0.0]], "horizon": 0.5, "dt": 0.01,
                       "epsilon_list": [0.5, 0.4, 0.39]},
        },
    )
    code = main(["run", cfg])
    summary = json.loads((tmp_path / "c.json").read_text())
    assert (code == 0) == (summary["verdict"] == "pass")


def test_cli_byte_identical_reports_and_thread_invariance(tmp_path):
    doc = {
        "experiment": "semigroup-exp",
        "seed": 12,
        "replicas": 4000,
        "params": {
            "dim": 1,
            "t": 0.4,
            "phi": {"family": "gaussian_bump", "amp": -0.4, "width": 1.0},
            "gamma": {"dim": 1, "window_radius": 2.0, "points": [[[0.0], 1], [[1.0], 2]]},
        },
    }
    cfg = write_config(tmp_path, doc)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    code_a = main(["run", cfg, "--out", str(tmp_path / "a" / "r")])
    code_b = main(["run", cfg, "--out", str(tmp_path / "b" / "r"), "--threads", "4"])
    assert code_a == code_b == 0
    csv_a = (tmp_path / "a" / "r.csv").read_bytes()
    csv_b = (tmp_path / "b" / "r.csv").read_bytes()
    json_a = (tmp_path / "a" / "r.json").read_bytes()
    json_b = (tmp_path / "b" / "r.json").read_bytes()
    # outputs identical except for the echoed output prefix inside the JSON
    assert csv_a == csv_b
    assert json_a.replace(b"/a/r", b"/X/r") == json_b.replace(b"/b/r", b"/X/r")


def test_capacity_error_surfaces_as_exit_2(tmp_path):
    # a 25-point permanent exceeds the hard enumeration limit
    pts = [[float(i)] for i in range(25)]
    cfg = write_config(
        tmp_path,
        {"experiment": "permanent", "output": str(tmp_path / "p"),
         "params": {"eta": pts, "theta": pts, "t": 0.5}},
    )
    assert main(["run", cfg]) == 2


def test_flat_metric_config_missing_window_radius_is_exit_2(tmp_path, capsys):
    doc = {
        "experiment": "flat-metric",
        "output": str(tmp_path / "fm"),
        "params": {
            "g1": {"dim": 1, "points": [[[0.0], 1]]},
            "g2": {"dim": 1, "window_radius": 2.0, "points": []},
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "params.g1" in err and "window_radius" in err and "Traceback" not in err
    assert not (tmp_path / "fm.json").exists()
    # a runner that meets the same bad document unvalidated also exits 2
    code, summary = run_experiment({"experiment": "flat-metric", "seed": 0, "replicas": 2,
                                    "output": str(tmp_path / "fm"),
                                    "params": {**doc["params"], "i": 5, "sum_scales": False, "i_max": 20}})
    assert code == 2 and "window_radius" in summary["error"]


def shipped(name, tmp_path):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doc["output"] = str(tmp_path / name)
    return doc


def _drop_phi_width(doc):
    del doc["params"]["phi"]["width"]


def _drop_bump_width(doc):
    del doc["params"]["bumps"][0]["width"]


def _set(key, value):
    def mutate(doc):
        doc["params"][key] = value

    return mutate


def _set_phi_center(doc):
    doc["params"]["phi"]["center"] = [0.0, 0.0]


GAMMA_2D = {"dim": 2, "window_radius": 2.0, "points": [[[0.0, 0.0], 1]]}
G2_2D = {"dim": 2, "window_radius": 3.0, "points": [[[1.0, 0.0], 1]]}
GAMMA_DOUBLE_SITE = {"dim": 1, "window_radius": 3.0, "points": [[[0.0], 2], [[1.5], 1]]}


@pytest.mark.parametrize(
    "name, mutate, field",
    [
        ("semigroup_exp", _drop_phi_width, "params.phi"),
        ("semigroup_exp", _set("phi", {"family": "spline", "amp": -0.3}), "params.phi"),
        ("generator", _drop_bump_width, "params.bumps"),
        ("generator", _set("bumps", []), "params.bumps"),
        ("generator", _set("outer", "cubic"), "params.outer"),
        ("ktransform", _set("profile", {"family": "box", "amp": 0.5, "lo": [0.0]}), "params.profile"),
        ("feller", _set("functional", "count"), "params.functional"),
        ("feller", _set("schedule", "spiral"), "params.schedule"),
        ("feller", _set("metric", "d2"), "params.metric"),
        ("semigroup_exp", _set_phi_center, "params.phi"),
        ("semigroup_exp", _set("gamma", GAMMA_2D), "params.gamma"),
        ("feller", _set("gamma", GAMMA_2D), "params.gamma"),
        ("ktransform", _set("profile", {"family": "box", "amp": 0.5, "lo": [0.0, 0.0], "hi": [1.0, 1.0]}),
         "params.profile"),
        ("process", _set("gamma", GAMMA_2D), "params.gamma"),
        ("generator", _set("gamma", GAMMA_2D), "params.bumps"),
        ("collision", _set("starts", [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]), "params.starts"),
        ("collision", _set("starts", [[0.0, 0.0], [0.5]]), "params.starts"),
        ("collision", _set("starts", []), "params.starts"),
        ("correlation", _set("theta", [[0.2, 0.0], [0.9, 0.0]]), "params.theta"),
        ("permanent", _set("theta", [[0.5, 0.0], [1.5, 0.0], [2.5, 0.0], [3.5, 0.0]]), "params.theta"),
        ("permanent", _set("theta", [[0.5], [1.5], [2.5]]), "params.theta"),
        ("generator", _set("t_list", [0.1, 0.2]), "params.t_list"),
        ("collision", _set("epsilon_list", [0.01, 0.1]), "params.epsilon_list"),
        ("collision", _set("epsilon_list", ["a"]), "params.epsilon_list"),
        ("tail_tau", _set("r_list", [-1.0]), "params.r_list"),
        ("ktransform", _set("coeffs", {"x": 1.0}), "params.coeffs"),
        ("ktransform", _set("coeffs", {"1": 1.0, "01": 0.5}), "params.coeffs"),
        ("feller", _set("gamma", {"dim": 1, "window_radius": 3.0, "points": []}), "params.gamma"),
        ("collision", _set("starts", [[0.0, 0.0]]), "params.starts"),
        ("generator", _set("bumps", [{"amp": 1.0, "center": ["x"], "width": 0.5}]), "params.bumps"),
        ("semigroup_exp", _set("phi", {"family": "gaussian_bump", "amp": -1.5, "width": 1.0}), "params.phi"),
        ("rho", _set("g2", G2_2D), "params.g2"),
        ("flat_metric", _set("g2", G2_2D), "params.g2"),
        ("ktransform", _set("gamma", GAMMA_DOUBLE_SITE), "params.gamma"),
        ("correlation", _set("gamma", GAMMA_DOUBLE_SITE), "params.gamma"),
        ("feller", _set("phi", {"family": "smoothed_indicator", "amp": 0.6, "radius": 1.0, "width": 0.5}),
         "params.phi"),
        ("feller", _set("phi", {"family": "constant", "value": 0.5}), "params.phi"),
        ("feller", _set("schedule", "far-point"), "params.metric"),
        ("process", _set("dt", 0.003), "params.dt"),
        ("process", _set("t", 0.0005), "params.dt"),
        ("collision", _set("dt", 0.3), "params.dt"),
        ("collision_1d", _set("horizon", 0.0005), "params.dt"),
        ("generator", _set("gamma", {"dim": 1, "window_radius": 2.0, "points": []}), "params.gamma"),
        ("process", _set("dt_coarse", 0.0005), "params.dt_coarse"),
        ("generator", _set("bumps", [{"amp": 0.0, "center": [0.0], "width": 0.5},
                                     {"amp": 0, "center": [1.0], "width": 0.5}]), "params.bumps"),
        ("feller", _set("phi", {"family": "gaussian_bump", "amp": 0.0, "width": 1.0}), "params.phi"),
        ("feller", lambda doc: doc["params"].update(functional="exponential",
                                                     phi={"family": "constant", "value": 0}), "params.phi"),
        ("collision_1d", _set("starts", [[0.0], [0.1], [0.5]]), "params.starts"),
    ],
    ids=["phi-no-width", "phi-unknown-family", "bump-no-width", "no-bumps", "unknown-outer",
         "box-no-hi", "feller-functional", "feller-schedule", "feller-metric", "semigroup-phi-dim",
         "semigroup-gamma-dim", "feller-gamma-dim", "ktransform-profile-dim", "process-gamma-dim",
         "generator-bump-dim", "collision-starts-dim", "collision-starts-ragged", "collision-no-starts",
         "correlation-theta-dim", "permanent-theta-dim", "permanent-counts", "generator-t-increasing",
         "collision-eps-increasing", "collision-eps-string", "tail-negative-r", "ktransform-coeff-key",
         "ktransform-coeff-twice", "feller-shift-empty-gamma", "collision-one-start", "bump-center-string",
         "semigroup-amp-below-minus-one", "rho-dims-differ", "flat-metric-dims-differ",
         "ktransform-double-site", "correlation-double-site", "feller-kernel-smoothed-indicator",
         "feller-kernel-constant", "feller-far-point-rho", "process-dt-off-grid", "process-t-below-dt",
         "collision-dt-off-grid", "collision-horizon-below-dt", "generator-empty-gamma",
         "process-coarse-below-fine", "generator-zero-bumps", "feller-zero-amp", "feller-zero-constant",
         "collision-1d-three-starts"],
)
def test_validate_rejects_bad_nested_params(tmp_path, capsys, name, mutate, field):
    doc = shipped(name, tmp_path)
    mutate(doc)
    cfg = write_config(tmp_path, doc)
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / f"{name}.json").exists()


def test_semigroup_exp_tiny_amplitude_passes(tmp_path):
    # variance ~1e-18 of the squared mean: the standard error must not cancel to 0
    doc = shipped("semigroup_exp", tmp_path)
    doc["params"]["phi"]["amp"] = -1.0e-8
    doc["replicas"] = 20000
    assert main(["run", write_config(tmp_path, doc)]) == 0
    rows = json.loads((tmp_path / "semigroup_exp.json").read_text())["results"]
    assert rows[0]["std_error"] > 0.0


@pytest.mark.parametrize(
    "dim, t, points",
    [(1, 1e-4, [[[1.0], 1], [[1.5], 1]]), (3, 0.5, [[[1e-10, 0.0, 0.0], 1]])],
    ids=["small-t", "d3-near-origin"],
)
def test_semigroup_exp_smoothed_indicator_passes(tmp_path, dim, t, points):
    # the radial quadrature must resolve a narrow kernel (small t) and stay exact near |x| = 0 (d = 3)
    doc = {
        "experiment": "semigroup-exp",
        "seed": 3,
        "replicas": 20000,
        "output": str(tmp_path / "smoothed"),
        "params": {
            "dim": dim,
            "t": t,
            "phi": {"family": "smoothed_indicator", "amp": -0.6, "radius": 1.0, "width": 0.3},
            "gamma": {"dim": dim, "window_radius": 2.0, "points": points},
        },
    }
    assert main(["run", write_config(tmp_path, doc)]) == 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "confheat.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "validate" in proc.stdout


def _node_paths(node, path=()):
    """Paths to every value below ``node`` (dict keys and list indices)."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _wrong_type(value):
    if isinstance(value, bool):
        return "yes"
    if isinstance(value, (int, float)):
        return "x"
    if isinstance(value, str):
        return 1.5
    if isinstance(value, list):
        return {"a": 1}
    return [1.0]


def _mutate(value, kind):
    """The value that replaces ``value`` under mutation ``kind`` (None: drop it)."""
    if kind == "drop":
        return None
    if kind == "wrong-type":
        return _wrong_type(value)
    if kind == "empty":
        return {} if isinstance(value, dict) else []
    if kind in ("zero", "negative"):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return 0 if kind == "zero" else -abs(value) - 1
        return value
    # a point row one coordinate too long, or one too short
    if isinstance(value, list):
        return value + [0.5] if kind == "row-longer" else value[:-1]
    return value


MUTATIONS = ("drop", "wrong-type", "empty", "zero", "negative", "row-longer", "row-shorter")


def mutated_config(name, path, kind):
    """Shipped config ``name`` with the value at ``path`` mutated by ``kind``."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    new = _mutate(parent[path[-1]], kind)
    if new is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def validate_then_run(doc, tmp):
    """(validate exit, run exit with 20 replicas, stderr of both) for ``doc``; asserts the exit contract."""
    doc["output"] = str(pathlib.Path(tmp) / "report")
    cfg = write_config(pathlib.Path(tmp), doc)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        checked = main(["validate", cfg])
        code = main(["run", cfg, "--replicas", "20"])
    assert checked in (0, 2) and code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    report = pathlib.Path(tmp) / "report.json"
    if code != 2:
        verdict = json.loads(report.read_text())["verdict"]
        assert verdict == {0: "pass", 1: "fail", 3: "inconclusive"}[code]
    return checked, code, err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(p.stem for p in CONFIG_DIR.glob("*.json"))), st.data())
def test_mutated_shipped_configs_exit_honestly(name, data):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    paths = [p for p in _node_paths(doc) if p[0] != "output"]
    path = data.draw(st.sampled_from(paths), label="path")
    kind = data.draw(st.sampled_from(MUTATIONS), label="kind")
    with tempfile.TemporaryDirectory() as tmp:
        checked, code, err = validate_then_run(mutated_config(name, path, kind), tmp)
    # a config that validates never meets a param error in run
    assert not (checked == 0 and code == 2), (path, kind, err)

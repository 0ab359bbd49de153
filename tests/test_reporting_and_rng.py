import itertools
import json
import math
import pathlib

import numpy as np
import pytest

import confheat.experiments
import confheat.harmonic
import confheat.process
import confheat.semigroup
from confheat.experiments import EXPERIMENTS, validate_params
from confheat.harmonic import elementary_symmetric
from confheat.reporting import format_cell, jsonable, render_csv, render_json
from confheat.rng import _MASK64, _splitmix64, chunk_sizes, map_chunks, substream

CONFIG_DIR = pathlib.Path(__file__).parent.parent / "scripts" / "configs"


def test_elementary_symmetric_against_enumeration():
    rng = substream(3, 3)
    vals = rng.uniform(-1.5, 1.5, size=7)
    e = elementary_symmetric(vals, 4)
    for k in range(5):
        direct = sum(math.prod(c) for c in itertools.combinations(vals, k))
        assert e[k] == pytest.approx(direct, rel=1e-12, abs=1e-12)
    batch = elementary_symmetric(np.stack([vals, 2 * vals]), 3)
    assert batch.shape == (2, 4)
    assert batch[1, 2] == pytest.approx(4 * e[2], rel=1e-12)


def test_chunk_sizes():
    assert chunk_sizes(10, 4) == [4, 4, 2]
    assert chunk_sizes(8, 4) == [4, 4]
    assert chunk_sizes(0, 4) == []
    assert chunk_sizes(3, 10) == [3]
    with pytest.raises(ValueError):
        chunk_sizes(-1, 4)
    with pytest.raises(ValueError):
        chunk_sizes(5, 0)


def test_map_chunks_order_stable_under_threads():
    def worker(i):
        return i * i

    assert map_chunks(worker, 7, threads=1) == map_chunks(worker, 7, threads=4)
    assert map_chunks(worker, 0, threads=4) == []


def test_substream_independence_and_determinism():
    a = substream(5, 1, 2).standard_normal(4)
    b = substream(5, 1, 2).standard_normal(4)
    c = substream(5, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(substream(6, 1, 2).standard_normal(4), a)


def test_substream_pins_its_sfc64_stream():
    # a silent change of the generator, its seeding or the key fold changes these two normals
    rng = substream(5, 1, 2)
    assert isinstance(rng.bit_generator, np.random.SFC64)
    assert rng.standard_normal(2).tolist() == [0.4746432928778037, -0.010065802104902252]


def test_format_cell_and_jsonable_nonfinite():
    assert format_cell(math.inf) == "inf"
    assert format_cell(-math.inf) == "-inf"
    assert format_cell(math.nan) == "nan"
    assert format_cell(0.1) == "0.1"
    assert format_cell(None) == ""
    out = jsonable({"a": math.inf, "b": [np.float64(1.5), np.int64(2)], "c": np.arange(2)})
    assert out == {"a": "inf", "b": [1.5, 2], "c": [0, 1]}


def test_format_cell_writes_numpy_scalars_as_python_numbers():
    # np.float64 is a float, and numpy 2 writes its repr as "np.float64(3.13525)"
    assert format_cell(np.float64(3.13525)) == "3.13525" == format_cell(3.13525)
    assert format_cell(np.float64(0.1) + np.float64(0.2)) == repr(0.1 + 0.2)
    assert format_cell(np.float32(0.5)) == "0.5"
    assert format_cell(np.float64(np.inf)) == "inf" and format_cell(np.float64(np.nan)) == "nan"
    assert format_cell(np.int64(20000)) == "20000" == format_cell(20000)
    csv_text = render_csv("e", [{"measurement": "m", "value": np.float64(2.5), "std_error": np.int64(3),
                                 "bound": np.float64(-1e-300)}], "pass")
    assert csv_text.splitlines()[1] == "e,m,2.5,3,-1e-300,pass,"


def test_format_cell_writes_bools_and_strings_with_str():
    assert format_cell(True) == "True" and format_cell(np.bool_(False)) == "False"
    assert format_cell("[1.5, 3]") == "[1.5, 3]" and format_cell("") == ""


def test_render_csv_rfc4180_quoting():
    rows = [{"measurement": "m,1", "value": 1.25, "note": 'says "hi", twice'}]
    text = render_csv("exp", rows, "pass")
    lines = text.split("\r\n")
    assert lines[0] == "experiment,measurement,value,std_error,bound,verdict,note"
    assert lines[1] == 'exp,"m,1",1.25,,,pass,"says ""hi"", twice"'


def test_render_json_sorted_and_stable():
    a = render_json({"b": 1, "a": {"z": 2.0, "y": math.inf}})
    b = render_json({"a": {"y": math.inf, "z": 2.0}, "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


# ---------------------------------------------------------------------------
# former generators as oracles: every route drawn from substreams agrees in law with the same route on
# the Philox4x64-10 generator that keyed the substreams first and on the PCG64DXSM generator that came
# next, both keyed by the same splitmix64 state


def _key_state(seed: int, *path: int) -> int:
    state = _splitmix64(seed & _MASK64)
    for p in path:
        state = _splitmix64(state ^ _splitmix64(p & _MASK64))
    return state


def _philox_substream(seed: int, *path: int) -> np.random.Generator:
    """The Philox substream: the splitmix64 state, used as Philox's 128-bit key."""
    state = _key_state(seed, *path)
    return np.random.Generator(np.random.Philox(key=np.array([state, _splitmix64(state)], dtype=np.uint64)))


def _pcg64dxsm_substream(seed: int, *path: int) -> np.random.Generator:
    """The PCG64DXSM substream: the splitmix64 state, seeding PCG64DXSM through SeedSequence."""
    state = _key_state(seed, *path)
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([state, _splitmix64(state)])))


ORACLE_SUBSTREAMS = {"Philox": _philox_substream, "PCG64DXSM": _pcg64dxsm_substream}


def test_philox_oracle_is_the_former_route():
    # substream(5, 1, 2).standard_normal(2) when the substreams were Philox, then PCG64DXSM
    assert _philox_substream(5, 1, 2).standard_normal(2).tolist() == [-0.8333087153457546, 1.5564528796995978]
    assert _pcg64dxsm_substream(5, 1, 2).standard_normal(2).tolist() == [-0.055245634006336655,
                                                                         -0.4623798760249723]
    for oracle in ORACLE_SUBSTREAMS.values():
        assert not np.array_equal(substream(5, 1, 2).standard_normal(2), oracle(5, 1, 2).standard_normal(2))


def _shipped_params(name: str) -> tuple[dict, dict]:
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    errors = []
    _, parsed = validate_params(EXPERIMENTS[doc["experiment"]].schema, doc["params"], errors)
    assert not errors
    return doc, parsed


def _shipped_rows(name: str, replicas: int) -> dict:
    doc, parsed = _shipped_params(name)
    rows = EXPERIMENTS[doc["experiment"]].run(parsed, doc["seed"], replicas, 1).rows
    return {row["measurement"]: row for row in rows}


def _generator_mc_rows(replicas: int) -> dict:
    # the generator config evaluates P_tF in closed form; its Monte Carlo route is generator_residual
    doc, p = _shipped_params("generator")
    F = confheat.semigroup.CylinderFunction(confheat.semigroup.outer_linear(), p["bumps"])
    report = confheat.semigroup.generator_residual(F, p["gamma"], p["t_list"], replicas, doc["seed"])
    return {f"residual_t={e.t:g}": {"value": e.residual, "std_error": e.std_error} for e in report.entries}


def _marginal_rows(replicas: int) -> dict:
    # the marginal of the process config; sqrt(n) D has the Kolmogorov law under the null, whose standard
    # deviation is sqrt(pi^2/12 - (pi/2) ln^2 2)
    d, _ = confheat.process.marginal_ks(1, 1.0, replicas, 112)
    return {"D": {"value": d, "std_error": math.sqrt(math.pi**2 / 12 - math.pi / 2 * math.log(2) ** 2)
                  / math.sqrt(replicas)}}


#: route -> (rows of a run at test-sized replicas, the rows that carry a standard error)
PHILOX_ROUTES = {
    "apply_mc": (lambda: _shipped_rows("semigroup_exp", 20_000), ["mc_estimate"]),
    "invariance_test": (lambda: _shipped_rows("invariance", 20_000), ["paired_difference"]),
    # the quotient is the residual plus the generator value, which draws nothing
    "generator_residual": (lambda: _generator_mc_rows(100_000), ["residual_t=0.1", "residual_t=0.05",
                                                                "residual_t=0.025"]),
    "sample_poisson": (lambda: _shipped_rows("sample_poisson", 5_000), ["mean_count", "count_variance",
                                                                      "mean_radius"]),
    "tail_tau": (lambda: _shipped_rows("tail_tau", 20_000), ["tail_r=0.25", "tail_r=0.5", "tail_r=1", "tail_r=2"]),
    "diffuse": (lambda: _shipped_rows("diffuse", 10_000), ["displacement_variance"]),
    "marginal_ks": (lambda: _marginal_rows(5_000), ["D"]),
}


@pytest.mark.parametrize("route", sorted(PHILOX_ROUTES))
def test_routes_agree_with_philox_routes(monkeypatch, route):
    run, names = PHILOX_ROUTES[route]
    new = run()
    for label, oracle in ORACLE_SUBSTREAMS.items():
        for module in (confheat.experiments, confheat.harmonic, confheat.process, confheat.semigroup):
            monkeypatch.setattr(module, "substream", oracle)
        old = run()
        for name in names:
            a, b = new[name], old[name]
            assert a["value"] != b["value"], f"{name}: {label} drew the same values"
            gap = abs(a["value"] - b["value"]) / math.hypot(a["std_error"], b["std_error"])
            assert gap <= 4.0, f"{name}: {a['value']!r} vs {label} {b['value']!r} is {gap:.2f} combined SE apart"

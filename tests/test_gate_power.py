"""Gate power ledger: shipped configs at their shipped size and seed, run on a wrong process, must fail.

A mutation wraps ``substream`` in the module that draws, so that every normal is scaled; scaling by
sqrt(1 + e) runs each heat step at time (1 + e) t.  No production code knows about it.
"""
import json
import math
import pathlib

import pytest

import confheat.process
from confheat.cli import validate_params
from confheat.experiments import EXPERIMENTS
from confheat.rng import substream

CONFIG_DIR = pathlib.Path(__file__).parent.parent / "scripts" / "configs"


class _ScaledNormals:
    """A stream whose normals are scaled by a fixed factor; everything else passes through."""

    def __init__(self, rng, factor):
        self.rng, self.factor = rng, factor

    def standard_normal(self, *args, **kwargs):
        z = self.rng.standard_normal(*args, **kwargs)
        z *= self.factor
        return z

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _verdict(name):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    errors = []
    _, params = validate_params(EXPERIMENTS[doc["experiment"]].schema, doc["params"], errors)
    assert not errors
    return EXPERIMENTS[doc["experiment"]].run(params, doc["seed"], doc["replicas"], 1).verdict


#: (config, module that draws, time scale 1 + e) pairs whose gate has power: each must read fail.
#: process: the marginal KS test of one step of variance 2 t reads p = 1.4e-8 at x1.1 (at most 2.1e-5 over
#: seeds 0-3) and below 1e-227 at x0.5, against its bound 0.001
POWERED = [
    ("process", confheat.process, 1.1),
    ("process", confheat.process, 0.5),
]


@pytest.mark.parametrize("name, module, scale", POWERED, ids=[f"{c}-x{s}" for c, _, s in POWERED])
def test_shipped_gate_fails_a_wrong_time_scale(monkeypatch, name, module, scale):
    assert _verdict(name) == "pass"
    monkeypatch.setattr(module, "substream", lambda *key: _ScaledNormals(substream(*key), math.sqrt(scale)))
    assert _verdict(name) == "fail"

"""Gate power ledger: shipped configs at their shipped size and seed, run on a wrong process, must fail,
or stand in ``NO_POWER`` with the reason their gate cannot see the mutation.

A mutation wraps ``substream`` in the module that draws, so that every normal is scaled; scaling by
sqrt(1 + e) runs each heat step at time (1 + e) t.  No production code knows about it.
"""
import json
import math
import pathlib

import pytest

import confheat.experiments
import confheat.process
import confheat.semigroup
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
#: seeds 0-3) and below 1e-227 at x0.5, against its bound 0.001.
#: collision_1d: at x0.5 the crossing fraction reads 0.9687, more than 4 SE above the reflection value 0.9601
#: semigroup_exp: |mc - exact| reads 21.3 SE at x1.1 and 160 SE at x0.5, against 1.7 SE at the true scale.
#: diffuse: the displacement variance reads 1.104 (+13.3 SE) at x1.1 and 0.502 (-140 SE) at x0.5, against 1.
#: tail_tau: the tail rows read +6.9 to +20.5 SE at x1.1 and -42 to -154 SE at x0.5 from the exact tail.
#: sample_poisson draws no heat step, so no time scale can be wrong in it: it has no row.
POWERED = [
    ("process", confheat.process, 1.1),
    ("process", confheat.process, 0.5),
    ("collision_1d", confheat.process, 0.5),
    ("semigroup_exp", confheat.semigroup, 1.1),
    ("semigroup_exp", confheat.semigroup, 0.5),
    ("diffuse", confheat.experiments, 1.1),
    ("diffuse", confheat.experiments, 0.5),
    ("tail_tau", confheat.experiments, 1.1),
    ("tail_tau", confheat.experiments, 0.5),
]

#: (config, module that draws, time scale, reason) pairs whose gate has no power against that time scale:
#: each still reads pass.  Entries may only be removed: a gate that gains power moves its pair to POWERED.
NO_POWER = [
    ("collision", confheat.process, 1.1, "the d = 2 gate reads only 'fractions decreasing, last < 0.01', and "
     "the fractions read 0.2231, 0.0031 and 0.0"),
    ("collision", confheat.process, 0.5, "the d = 2 gate reads only 'fractions decreasing, last < 0.01', and "
     "the fractions read 0.2703, 0.0061 and 0.0"),
    ("collision_1d", confheat.process, 1.1, "a start gap of 0.1 against sqrt(4T) = 2 barely moves the reflection "
     "value: the crossing fraction reads 0.9569 against 0.9601"),
    ("invariance", confheat.semigroup, 1.1, "pi_z is invariant under every iid displacement (the displacement "
     "theorem), so no time scale shows: the paired difference reads -1.05 SE"),
    ("invariance", confheat.semigroup, 0.5, "pi_z is invariant under every iid displacement (the displacement "
     "theorem), so no time scale shows: the paired difference reads -2.17 SE"),
    ("oscillation", confheat.process, 1.1, "the bound 2 tau is one-sided and far: the exceedance reads 1e-4 "
     "against 0.578"),
    ("oscillation", confheat.process, 0.5, "the bound 2 tau is one-sided and far: the exceedance reads 0 "
     "against 0.578"),
]


def _scale_normals(monkeypatch, module, scale):
    monkeypatch.setattr(module, "substream", lambda *key: _ScaledNormals(substream(*key), math.sqrt(scale)))


@pytest.mark.parametrize("name, module, scale", POWERED, ids=[f"{c}-x{s}" for c, _, s in POWERED])
def test_shipped_gate_fails_a_wrong_time_scale(monkeypatch, name, module, scale):
    assert _verdict(name) == "pass"
    _scale_normals(monkeypatch, module, scale)
    assert _verdict(name) == "fail"


@pytest.mark.parametrize("name, module, scale, reason", NO_POWER, ids=[f"{c}-x{s}" for c, _, s, _ in NO_POWER])
def test_shipped_gate_without_power_still_passes(monkeypatch, name, module, scale, reason):
    # the ledger's record of a gate that a wrong time scale does not turn: if it starts to fail, move the pair
    _scale_normals(monkeypatch, module, scale)
    assert _verdict(name) == "pass", reason

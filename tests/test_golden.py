"""Golden digests: small fixed scenarios whose output bytes are pinned.

A refactor or speed change must leave metrics.jsonl and metrics.idx
byte-identical.  These fixtures are small enough for every test run; the
larger reference digests are checked by the benchmark (perfbench).  A
digest here changes only when the documented output semantics change on
purpose.
"""

import hashlib
import math
import random

import pytest

from cavsim.scenario import ScenarioConfig, run
from cavsim.trace import TraceTick, VehicleState, synth_traffic

ALL_TYPES = (("ConnectedVehicle", 1.0), ("PoTVehicle", 1.0),
             ("UnconnectedVehicle", 1.0), ("SilenceAttacker", 1.0),
             ("ReplayAttacker", 1.0), ("SpamAttacker", 1.0),
             ("DummyVehicle", 1.0))


def scattered(seed, n, ticks, area):
    """Vehicles at any heading and footprint in a small square, driving
    straight ahead: every angle, seam and occlusion case of the camera."""
    rng = random.Random(f"golden:{seed}")
    lanes = []
    for i in range(n):
        lanes.append((f"s{i:03d}", rng.uniform(0.0, area),
                      rng.uniform(0.0, area),
                      rng.uniform(-math.pi, math.pi) or math.pi,
                      rng.uniform(0.0, 12.0), rng.uniform(3.0, 14.0),
                      rng.uniform(1.4, 2.6)))
    out = []
    for t in range(ticks):
        states = []
        for vid, x, y, h, speed, length, width in lanes:
            states.append(VehicleState(vid, x + speed * t * math.cos(h),
                                       y + speed * t * math.sin(h), h,
                                       length, width))
        out.append(TraceTick(t, tuple(states)))
    return out


def churned(trace):
    """Drop each vehicle on a fixed subset of ticks, so vehicles despawn and
    respawn with a fresh life."""
    out = []
    for tt in trace:
        states = tuple(s for s in tt.states
                       if (tt.tick + int(s.id[1:])) % 5 != 4)
        out.append(TraceTick(tt.tick, states))
    return out


FIXTURES = {
    "sparse": (lambda: synth_traffic(11, 150, 8, 2500.0),
               dict(seed=11, mix=(("ConnectedVehicle", 1.0),))),
    "dense": (lambda: scattered(12, 120, 6, 160.0),
              dict(seed=12, mix=(("ConnectedVehicle", 1.0),))),
    "mixed_churn": (lambda: churned(synth_traffic(13, 140, 10, 500.0)),
                    dict(seed=13, workers=2, mix=ALL_TYPES)),
}

GOLDEN = {
    "sparse": ("2ee98e006dea45dcc862b8ca5bc106442d4ba24d8d66dce8d01537bea2ca7f3a",
               "80125e74e7042133e04b07f0cbf9cce4aa3f30742339da5c6700b737fc61cc8f"),
    "dense": ("9331330b4b5ffa0479d4bf398354b88b4c8ee6db639a356e009d1e64cc3d7292",
              "40e380d715244b4b846cf15aef4c77ebdc19c55d720081de57f654d5b862eedd"),
    "mixed_churn": ("9165b564b4099bfed85808a2dbb19c816d3bb6930f82a1019a3d91a7a28c6a23",
                    "f62bb048ee33d03d4add774c5f25146d5a52566675f81d630447b75b1adc2317"),
}


# The default radii: perception (100 m) and delivery (300 m) differ, and the
# cell is as large as the larger one.
DEFAULT_RADII = {
    "two_radii": (lambda: churned(scattered(14, 150, 8, 900.0)),
                  dict(seed=14, mix=ALL_TYPES)),
}

GOLDEN_DEFAULT_RADII = {
    "two_radii": ("abbc0f539634a981101260bd5b19f8cd7719dbe7def6b5f18a1146aab54c0028",
                  "3b482ff66d51f93ef44235718f5649972e5dba77e0b7f17f6558f959a21b698b"),
}


def sha256_of(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_digest(name, tmp_path):
    make_trace, options = FIXTURES[name]
    cfg = ScenarioConfig(out_dir=str(tmp_path / name), cell_size=100.0,
                         perception_radius=100.0, comm_range=100.0,
                         **options)
    summary = run(cfg, trace=make_trace())
    got = (sha256_of(summary.metrics_path), sha256_of(summary.index_path))
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DEFAULT_RADII))
def test_golden_digest_default_radii(name, tmp_path):
    make_trace, options = DEFAULT_RADII[name]
    cfg = ScenarioConfig(out_dir=str(tmp_path / name), **options)
    assert (cfg.cell_size, cfg.perception_radius, cfg.comm_range) == (
        300.0, 100.0, 300.0)
    summary = run(cfg, trace=make_trace())
    got = (sha256_of(summary.metrics_path), sha256_of(summary.index_path))
    assert got == GOLDEN_DEFAULT_RADII[name]

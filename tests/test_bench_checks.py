"""The benchmark's output checks (`perfbench/checks.py`) still fit the
package: its perception oracle, built from the public stage functions,
names the same plates as `perceive` on random scenes."""

import importlib.util
import math
import os
import random

import pytest

import cavsim
from cavsim.perception import PerceptionConfig, perceive
from conftest import random_scene

CHECKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "checks.py")
spec = importlib.util.spec_from_file_location("checks", CHECKS)
checks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checks)


@pytest.mark.parametrize("cfg", [
    PerceptionConfig(),
    PerceptionConfig(fov_half_angle=math.radians(90.0), max_range=60.0),
    PerceptionConfig(fov_half_angle=math.radians(20.0),
                     max_plate_angle=math.radians(80.0)),
], ids=["default", "wide-short", "narrow"])
def test_oracle_perceive_equals_perceive(cfg):
    rng = random.Random(0xBE7C)
    egos = 0
    for _ in range(10):
        states = random_scene(rng, rng.randint(2, 40), 120.0)
        radius = cfg.max_range * rng.uniform(1.0, 1.5)
        for ego in states:
            near = [s for s in states if s is not ego and
                    math.hypot(s.x - ego.x, s.y - ego.y) <= radius]
            got = [o.plate for o in perceive(ego, near, cfg)]
            assert got == checks.oracle_perceive(cavsim, ego, states, cfg,
                                                 radius), ego.id
            egos += 1
    assert egos >= 200

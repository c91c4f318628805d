"""The benchmark still fits the package: its perception oracle
(`perfbench/checks.py`), built from the public stage functions, names the
same plates as `perceive` on random scenes, and the config of every
workload (`perfbench/workloads.py`) parses and validates."""

import importlib.util
import math
import os
import random
import sys

import pytest

import cavsim
from cavsim.perception import PerceptionConfig, perceive
from cavsim.scenario import load_config
from conftest import random_scene

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def load_module(name):
    """perfbench/<name>.py as a module; it is entered in sys.modules, as
    its dataclasses need, under a name no other module has."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks = load_module("checks")
workloads = load_module("workloads")


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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_parses_and_validates(tmp_path, name):
    truth = workloads.generate(workloads.WORKLOADS[name], 1, str(tmp_path))
    config = load_config(truth.config_path)
    config.validate()
    w = workloads.WORKLOADS[name]
    assert config.mix == w.mix
    assert config.perception_radius == config.comm_range == workloads.RADIUS

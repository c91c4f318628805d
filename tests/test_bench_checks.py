"""The benchmark still fits the package: its perception oracle
(`perfbench/checks.py`), built from the public stage functions, names the
same plates as `perceive` on random scenes, the config of every workload
(`perfbench/workloads.py`) parses and validates, and every workload's
runs at seeds 1 to 4 pass the benchmark's own output checks, the seed-1
run with its reference digest."""

import dataclasses
import hashlib
import importlib.util
import math
import os
import random
import sys

import pytest

import cavsim
from cavsim.perception import PerceptionConfig, perceive
from cavsim.scenario import load_config, report, run
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


# sha256 of each workload's metrics.jsonl at seed 1
REFERENCE_DIGESTS = {
    "sparse": "8aafeb87260d59b9ed2fcc387107df8aee404184c0223383aee5244ab233c870",
    "dense": "1bd2b74d0e17726bae0d1a6a2ef0b0b20d93c6c11e60e09eb94e3e423ad1e5b4",
    "mixed_churn":
        "b3ffacc5cc67f95bff2b6b0853bbe81c6063e573fa62c2576f76308a9452ff4f",
}


def checked_run(tmp_path, name, seed):
    """A streamed run of workload `name` at `seed` and its bandwidth, ttv
    and cpr reports, checked the way the benchmark checks them:
    perception against the full-scan oracle, object counts consistent and
    never falling within a life, spam bytes, TTV and the reports against
    its own aggregation.  Returns the run directory."""
    truth = workloads.generate(workloads.WORKLOADS[name], seed,
                               str(tmp_path / "inputs"))
    run_dir, csv_dir = tmp_path / "run", tmp_path / "csv"
    config = dataclasses.replace(load_config(truth.config_path),
                                 out_dir=str(run_dir))
    run(config)
    csv_dir.mkdir()
    for kind in ("bandwidth", "ttv", "cpr"):
        with open(csv_dir / f"{kind}.csv", "w", encoding="ascii") as out:
            report(str(run_dir), kind, out)
    fails, _ = checks.check_run(cavsim, truth, seed, str(run_dir),
                                str(csv_dir))
    assert fails == []
    return run_dir


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_run_passes_the_benchmark_checks(tmp_path, name):
    run_dir = checked_run(tmp_path, name, 1)
    with open(run_dir / "metrics.jsonl", "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == REFERENCE_DIGESTS[name]


# benchmark pairs run seeds 1-10; three more of them, checks only
@pytest.mark.parametrize("seed", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_run_at_another_seed_passes_the_benchmark_checks(
        tmp_path, name, seed):
    checked_run(tmp_path, name, seed)

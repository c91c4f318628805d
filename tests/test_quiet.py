"""Quiet ticks: a vehicle whose modules all declare `idle`, with no inbox
and no percept, writes the record of its last quiet tick again at its new
position instead of running its module DAG.  These tests pin the opt-in
contract: undeclared modules and the attackers run every tick, reused
records equal the ones a full tick builds, and an aborted tick is never
reused."""

from contextlib import contextmanager

import pytest

import cavsim.scenario as scenario
from cavsim.sandbox import (MODULES, FlowGraph, VehicleTypeSpec,
                            register_module)
from cavsim.scenario import ScenarioConfig, assign_type, run
from cavsim.trace import TraceTick, VehicleState, synth_traffic
from conftest import read_run
from oracles import MetricsRecord
from test_scenario import find_id


@pytest.fixture
def dag_runs(monkeypatch):
    """The (tick, plate) of every module DAG the run executes."""
    runs = []
    inner = scenario.tick_vehicle

    def counted(vehicle, inbox, ctx):
        runs.append((ctx.tick, vehicle.plate))
        return inner(vehicle, inbox, ctx)

    monkeypatch.setattr(scenario, "tick_vehicle", counted)
    return runs


@contextmanager
def registered(name, factory):
    register_module(name, factory)
    try:
        yield name
    finally:
        del MODULES[name]


def records_by_tick(out_dir, plate):
    return {line["tick"]: v for line in read_run(out_dir)
            for v in line["vehicles"] if v["id"] == plate}


def custom_type(name, modules, edges, connected=True):
    spec = VehicleTypeSpec(name, FlowGraph(modules, edges),
                           connected=connected)
    return {name: spec}


class CountingModule:
    """No `idle` declaration: must run on every tick of every vehicle."""

    def __init__(self, calls):
        self.calls = calls

    def process(self, inbox, ctx):
        self.calls.append((ctx.tick, ctx.plate))
        return list(inbox)


def test_undeclared_module_runs_every_tick(tmp_path, dag_runs):
    calls = []
    mix = (("Counted", 1.0), ("ConnectedVehicle", 1.0))
    trace = synth_traffic(5, 60, 8, 1500.0)
    with registered("counting", lambda: CountingModule(calls)) as name:
        types = custom_type(
            "Counted", ("camera", name, "object_store"),
            {"camera": (name,), name: ("object_store",)}, connected=False)
        cfg = ScenarioConfig(seed=5, out_dir=str(tmp_path / "out"),
                             extra_types=types, mix=mix)
        run(cfg, trace=trace)
    want = sorted((tt.tick, s.id) for tt in trace for s in tt.states
                  if assign_type(5, s.id, mix) == "Counted")
    assert want and sorted(calls) == want
    # the connected vehicles in the same run did take the short path
    assert len(dag_runs) < sum(len(tt.states) for tt in trace)


def test_spam_attacker_broadcasts_every_tick(tmp_path, dag_runs):
    # far apart: no spammer ever has an inbox or (having no camera) a percept
    trace = [TraceTick(t, tuple(VehicleState(f"s{i}", 1000.0 * i + t, 0.0,
                                             0.0) for i in range(4)))
             for t in range(6)]
    cfg = ScenarioConfig(out_dir=str(tmp_path / "out"),
                         mix=(("SpamAttacker", 1.0),))
    run(cfg, trace=trace)
    sent = [v["bytes_sent"] for line in read_run(cfg.out_dir)
            for v in line["vehicles"]]
    assert len(sent) == 24 and min(sent) > 0
    assert len(dag_runs) == 24


def test_replay_attacker_replays_on_an_empty_inbox(tmp_path, dag_runs):
    # R sees T once, at tick 0, and no station but R ever broadcasts
    mix = (("ReplayAttacker", 1.0), ("UnconnectedVehicle", 1.0))
    r = find_id("r", "ReplayAttacker", 0, mix)
    t = find_id("t", "UnconnectedVehicle", 0, mix)
    trace = [TraceTick(0, (VehicleState(r, 0.0, 0.0, 0.0),
                           VehicleState(t, 10.0, 0.0, 0.0)))]
    trace += [TraceTick(k, (VehicleState(r, 5.0 * k, 0.0, 0.0),))
              for k in range(1, 5)]
    cfg = ScenarioConfig(out_dir=str(tmp_path / "out"), mix=mix)
    run(cfg, trace=trace)
    recs = records_by_tick(cfg.out_dir, r)
    assert recs[0]["local_objects"] == 0  # a ReplayAttacker keeps no store
    assert all(recs[k]["bytes_sent"] > 0 for k in range(5))
    assert [p for _, p in dag_runs].count(r) == 5


def test_quiet_vehicle_keeps_its_counts(tmp_path, dag_runs):
    # C perceives T at tick 0 and broadcasts; T then leaves, and C drives
    # on alone for four quiet ticks
    mix = (("ConnectedVehicle", 1.0), ("UnconnectedVehicle", 1.0))
    c = find_id("c", "ConnectedVehicle", 0, mix)
    t = find_id("t", "UnconnectedVehicle", 0, mix)
    trace = [TraceTick(0, (VehicleState(c, 0.0, 0.0, 0.0),
                           VehicleState(t, 10.0, 0.0, 0.0)))]
    trace += [TraceTick(k, (VehicleState(c, 7.25 * k, -0.5 * k, 0.0),))
              for k in range(1, 5)]
    cfg = ScenarioConfig(out_dir=str(tmp_path / "out"), mix=mix)
    run(cfg, trace=trace)
    recs = records_by_tick(cfg.out_dir, c)
    assert recs[0]["bytes_sent"] > 0 and recs[0]["local_objects"] == 1
    for k in range(1, 5):
        want = MetricsRecord(k, c, 0, 1, 0, 1, {}, 0, (7.25 * k, -0.5 * k))
        assert recs[k] == want.to_json_obj()
    # tick 1, the first quiet one, runs in full; ticks 2-4 reuse it
    assert [k for k, p in dag_runs if p == c] == [0, 1]


class FlakyModule:
    """Forwards its inbox; raises on the second non-empty one."""

    idle = True

    def __init__(self):
        self.seen = 0

    def process(self, inbox, ctx):
        if inbox:
            self.seen += 1
            if self.seen == 2:
                raise RuntimeError("flaky")
        return list(inbox)


def test_quiet_tick_after_an_aborted_tick(tmp_path, dag_runs):
    # V perceives T at ticks 0 and 1, then T leaves
    trace = [TraceTick(k, (VehicleState("v", 0.0, 0.0, 0.0),
                           VehicleState("t", 10.0, 0.0, 0.0)))
             for k in range(2)]
    trace += [TraceTick(k, (VehicleState("v", 3.0 * k, 0.0, 0.0),))
              for k in range(2, 4)]
    with registered("flaky", FlakyModule) as name:
        types = custom_type(
            "Flaky", ("camera", name, "object_store"),
            {"camera": (name,), name: ("object_store",)}, connected=False)
        cfg = ScenarioConfig(out_dir=str(tmp_path / "out"),
                             extra_types=types, mix=(("Flaky", 1.0),))
        run(cfg, trace=trace)
    recs = records_by_tick(cfg.out_dir, "v")
    counts = {k: (r["local_objects"], r["all_objects"], r["errors"])
              for k, r in recs.items()}
    assert counts == {0: (1, 1, 0), 1: (0, 0, 1), 2: (1, 1, 0),
                      3: (1, 1, 0)}
    assert (recs[3]["x"], recs[3]["y"]) == (9.0, 0.0)
    # the aborted tick 1 is not reused: quiet tick 2 runs in full
    assert [k for k, p in dag_runs if p == "v"] == [0, 1, 2]

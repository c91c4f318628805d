import gc
import io
import math
import os
import tracemalloc

import pytest

from cavsim.errors import ConfigError, ValidationError
from cavsim.metrics import load_run
from cavsim.perception import PerceptionConfig
from cavsim.sandbox import MODULES, FlowGraph, VehicleTypeSpec, register_module
from cavsim.scenario import (ScenarioConfig, assign_type, parse_config,
                             parse_tick_range, report, run)
from cavsim.trace import TraceTick, VehicleState, synth_traffic, write_csv

MIX_CU = (("ConnectedVehicle", 0.9), ("UnconnectedVehicle", 0.1))


def find_id(prefix, type_name, seed, mix):
    """A vehicle id whose seeded hash lands on the wanted type."""
    for i in range(100000):
        vid = f"{prefix}{i}"
        if assign_type(seed, vid, mix) == type_name:
            return vid
    raise AssertionError(f"no id found for {type_name}")


def state(vid, x, y, heading=0.0):
    return VehicleState(vid, x, y, heading)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# --- type assignment -------------------------------------------------------

def test_assign_type_stable_and_order_free():
    mix = (("A", 1.0), ("B", 2.0), ("C", 0.5))

    class Dummy:  # names only matter as strings
        pass

    first = {f"v{i}": assign_type(7, f"v{i}", mix) for i in range(200)}
    second = {f"v{i}": assign_type(7, f"v{i}", mix) for i in range(199, -1, -1)}
    assert first == second
    counts = {}
    for t in first.values():
        counts[t] = counts.get(t, 0) + 1
    assert set(counts) <= {"A", "B", "C"}
    assert counts.get("B", 0) > counts.get("C", 0)  # weights respected


def test_assign_type_depends_on_seed():
    mix = (("A", 1.0), ("B", 1.0))
    picks_1 = [assign_type(1, f"v{i}", mix) for i in range(64)]
    picks_2 = [assign_type(2, f"v{i}", mix) for i in range(64)]
    assert picks_1 != picks_2


# --- config ----------------------------------------------------------------

def test_config_validation():
    cfg = ScenarioConfig(comm_range=400.0, cell_size=300.0)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ScenarioConfig(perception_radius=301.0)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ScenarioConfig(mix=(("Ghost", 1.0),))
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ScenarioConfig(mix=(("ConnectedVehicle", -1.0),))
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ScenarioConfig(mix=(("ConnectedVehicle", math.inf),))
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ScenarioConfig(tick_range=(5, 5))
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ScenarioConfig(workers=0)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_parse_config_full():
    text = """
[scenario]
seed = 11
ticks = 2:9
cell_size = 250
perception_radius = 90
comm_range = 200
workers = 4
out = /tmp/somewhere
default_length = 4.5

[perception]
fov_half_angle_deg = 30
max_range = 80
max_plate_angle_deg = 50
plate_width = 0.4

[mix]
ConnectedVehicle = 0.75
SpamAttacker = 0.25

[vehicle_type.Lurker]
connected = true
modules = camera, rx, object_store
edges =
    camera -> object_store
    rx -> object_store
entry = rx

[vehicle_type.SpamAttacker]
spam_tx.k = 9
"""
    cfg = parse_config(io.StringIO(text))
    assert cfg.seed == 11
    assert cfg.tick_range == (2, 9)
    assert cfg.cell_size == 250.0
    assert cfg.workers == 4
    assert cfg.default_length == 4.5
    assert cfg.perception == PerceptionConfig(
        math.radians(30), 80.0, math.radians(50), 0.4)
    assert cfg.mix == (("ConnectedVehicle", 0.75), ("SpamAttacker", 0.25))
    lurker = cfg.extra_types["Lurker"]
    assert lurker.graph.nodes == ("camera", "rx", "object_store")
    assert lurker.entry == ("rx",)
    assert cfg.extra_types["SpamAttacker"].params["spam_tx"]["k"] == 9
    cfg.validate()


def test_parse_config_bad_edge_and_range():
    with pytest.raises(ConfigError):
        parse_config(io.StringIO(
            "[vehicle_type.X]\nmodules = rx\nedges =\n  rx object_store\n"))
    with pytest.raises(ConfigError):
        parse_tick_range("5")
    with pytest.raises(ConfigError):
        parse_tick_range("a:b")


@pytest.mark.parametrize("line", ["[scenario]\nseed = abc",
                                  "[scenario]\nworkers = x",
                                  "[scenario]\ncell_size = y",
                                  "[scenario]\ncell_size = nan",
                                  "[perception]\nmax_range = far",
                                  "[perception]\nmax_range = inf"])
def test_parse_config_non_numeric_value(line):
    with pytest.raises(ConfigError, match="is not a finite number"):
        parse_config(io.StringIO(line + "\n"))


def test_parse_config_unknown_custom_base():
    with pytest.raises(ConfigError):
        parse_config(io.StringIO("[vehicle_type.NoModules]\nconnected = true\n"))


# --- running ---------------------------------------------------------------

def test_empty_trace_clean_run(tmp_path):
    cfg = ScenarioConfig(out_dir=str(tmp_path / "out"))
    summary = run(cfg, trace=[])
    assert summary.ticks_executed == 0
    assert summary.vehicles_seen == 0
    assert read_bytes(summary.metrics_path) == b""
    assert read_bytes(summary.index_path) == b""


def test_alive_count_matches_trace(tmp_path):
    trace = synth_traffic(5, 30, 10, 800.0)
    cfg = ScenarioConfig(seed=5, out_dir=str(tmp_path / "out"),
                         cell_size=300.0, comm_range=300.0,
                         mix=MIX_CU)
    run(cfg, trace=trace)
    data = load_run(cfg.out_dir)
    assert len(data) == 10
    for line, tt in zip(data, trace):
        assert line["tick"] == tt.tick
        assert len(line["vehicles"]) == len(tt.states)
        assert [v["id"] for v in line["vehicles"]] == \
            sorted(s.id for s in tt.states)


def test_tick_range_filter(tmp_path):
    trace = synth_traffic(5, 5, 10, 300.0)
    cfg = ScenarioConfig(out_dir=str(tmp_path / "out"), tick_range=(3, 6))
    summary = run(cfg, trace=trace)
    assert summary.ticks_executed == 3
    assert [line["tick"] for line in load_run(cfg.out_dir)] == [3, 4, 5]


def test_deterministic_across_runs_and_workers(tmp_path):
    trace = synth_traffic(9, 50, 20, 600.0)
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 4)):
        cfg = ScenarioConfig(seed=9, out_dir=str(tmp_path / name),
                             workers=workers,
                             mix=(("ConnectedVehicle", 0.7),
                                  ("SpamAttacker", 0.1),
                                  ("PoTVehicle", 0.2)))
        run(cfg, trace=trace)
        outs.append((read_bytes(os.path.join(cfg.out_dir, "metrics.jsonl")),
                     read_bytes(os.path.join(cfg.out_dir, "metrics.idx"))))
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_respawned_vehicle_is_fresh(tmp_path):
    # B listens at the back; A ahead broadcasts the target it perceives.
    # B despawns at tick 2 and returns at tick 3 with fresh module state.
    target = find_id("c", "UnconnectedVehicle", 0, MIX_CU)
    a = find_id("a", "ConnectedVehicle", 0, MIX_CU)
    b = find_id("b", "ConnectedVehicle", 0, MIX_CU)
    rows = []
    for t in range(6):
        states = [state(target, 0.0, 0.0), state(a, -10.0, 0.0)]
        if t != 2:
            states.append(state(b, -20.0, 0.0))
        rows.append(TraceTick(t, tuple(states)))
    cfg = ScenarioConfig(seed=0, out_dir=str(tmp_path / "out"), mix=MIX_CU)
    run(cfg, trace=rows)
    data = load_run(cfg.out_dir)

    def rec_of(line, who):
        match = [v for v in line["vehicles"] if v["id"] == who]
        return match[0] if match else None

    assert rec_of(data[2], b) is None  # despawned
    # before the gap: B had received the target via A's broadcast
    assert rec_of(data[1], b)["received_objects"] == 1
    # tick 3: fresh instance, and no delivery (B was absent at send time)
    after = rec_of(data[3], b)
    assert after["received_objects"] == 0
    assert after["local_objects"] == 1  # perceives A again right away
    # tick 4: knowledge rebuilt from scratch via the network
    assert rec_of(data[4], b)["received_objects"] == 1


def test_counter_monotonicity(tmp_path):
    trace = synth_traffic(21, 40, 12, 500.0)
    cfg = ScenarioConfig(seed=21, out_dir=str(tmp_path / "out"),
                         mix=(("ConnectedVehicle", 0.8),
                              ("SilenceAttacker", 0.2)))
    run(cfg, trace=trace)
    data = load_run(cfg.out_dir)
    last = {}
    for line in data:
        for v in line["vehicles"]:
            prev = last.get(v["id"])
            if prev is not None:
                for key in ("local_objects", "received_objects", "all_objects"):
                    assert v[key] >= prev[key]
            last[v["id"]] = v


# --- hand-stepped cooperative perception ------------------------------------

def coop_trace_and_ids(seed=0):
    cid = find_id("c", "UnconnectedVehicle", seed, MIX_CU)
    aid = find_id("a", "ConnectedVehicle", seed, MIX_CU)
    bid = find_id("b", "ConnectedVehicle", seed, MIX_CU)
    rows = [TraceTick(t, (state(cid, 0.0, 0.0),
                          state(aid, -10.0, 0.0),
                          state(bid, -20.0, 0.0)))
            for t in range(3)]
    return rows, cid, aid, bid


def test_occluded_target_learned_via_network(tmp_path):
    rows, cid, aid, bid = coop_trace_and_ids()
    cfg = ScenarioConfig(seed=0, out_dir=str(tmp_path / "out"), mix=MIX_CU)
    run(cfg, trace=rows)
    data = load_run(cfg.out_dir)
    recs = {line["tick"]: {v["id"]: v for v in line["vehicles"]}
            for line in data}
    # tick 0: A perceives C and broadcasts; B perceives only A (C occluded)
    assert recs[0][aid] == {"id": aid, "bytes_sent": 66, "local_objects": 1,
                            "received_objects": 0, "all_objects": 1,
                            "ttv": {}, "errors": 0, "x": -10.0, "y": 0.0}
    assert recs[0][bid]["local_objects"] == 1
    assert recs[0][bid]["all_objects"] == 1
    assert recs[0][bid]["bytes_sent"] == 66
    assert recs[0][cid]["bytes_sent"] == 0
    assert recs[0][cid]["all_objects"] == 0
    # tick 1: B has received A's message and now knows C
    assert recs[1][bid]["received_objects"] == 1
    assert recs[1][bid]["all_objects"] == 2
    # A only ever hears about itself, which does not count
    assert recs[1][aid]["received_objects"] == 0
    assert recs[1][aid]["all_objects"] == 1
    # tick 2 stays stable (sets deduplicate)
    assert recs[2][bid]["all_objects"] == 2
    assert recs[2][bid]["received_objects"] == 1


# --- reports and CLI --------------------------------------------------------

def test_reports(tmp_path):
    rows, cid, aid, bid = coop_trace_and_ids()
    cfg = ScenarioConfig(seed=0, out_dir=str(tmp_path / "out"), mix=MIX_CU)
    run(cfg, trace=rows)

    buf = io.StringIO()
    report(cfg.out_dir, "bandwidth", buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "tick,avg_bytes_sent"
    assert lines[1] == "0,44.0"  # (66 + 66 + 0) / 3

    buf = io.StringIO()
    report(cfg.out_dir, "ttv", buf)
    assert buf.getvalue().splitlines()[0] == "delay,count"

    buf = io.StringIO()
    report(cfg.out_dir, "cpr", buf, tick=1, cell_size=100.0)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "cell_x,cell_y,ratio"
    # single cell around the three vehicles: B contributes 1 remote object
    from cavsim.metrics import cpr as cpr_fn
    heat = cpr_fn(load_run(cfg.out_dir), 1, 100.0)
    got = {tuple(map(int, l.split(",")[:2])): float(l.split(",")[2])
           for l in lines[1:]}
    assert got == heat

    buf = io.StringIO()
    report(cfg.out_dir, "timing", buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ("tick,position_rebuild,perception,agent_ticks,"
                        "network_step,metrics_write")
    assert len(lines) == 4  # header + 3 ticks

    with pytest.raises(ConfigError):
        report(cfg.out_dir, "nope", io.StringIO())


def test_cli_run_and_report(tmp_path, capsys):
    from cavsim.cli import main

    trace_path = tmp_path / "trace.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(3, 8, 5, 400.0), f)
    config_path = tmp_path / "scenario.ini"
    config_path.write_text(
        "[scenario]\nseed = 3\n\n[mix]\nConnectedVehicle = 1.0\n")
    out_dir = tmp_path / "out"

    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(out_dir), "--ticks", "0:4", "--workers", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "ticks executed: 4" in captured.out
    assert (out_dir / "metrics.jsonl").exists()

    rc = main(["report", "--run", str(out_dir), "--kind", "bandwidth"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("tick,avg_bytes_sent")

    rc = main(["report", "--run", str(out_dir), "--kind", "cpr",
               "--tick", "1", "--cell", "50"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("cell_x,cell_y,ratio")


def test_cli_error_exit_codes(tmp_path, capsys):
    from cavsim.cli import main

    missing = main(["report", "--run", str(tmp_path / "nowhere"),
                    "--kind", "bandwidth"])
    assert missing == 1
    assert "error:" in capsys.readouterr().err

    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[scenario]\nseed = 1\n\n[mix]\nGhost = 1.0\n")
    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    rc = main(["run", "--config", str(bad_config), "--trace", str(trace_path),
               "--out", str(tmp_path / "o")])
    assert rc == 1

    with pytest.raises(SystemExit) as exc:
        main(["run"])  # argparse: missing --config
    assert exc.value.code == 2


def test_cli_fcd_trace(tmp_path, capsys):
    from cavsim.cli import main

    fcd = tmp_path / "trace.xml"
    fcd.write_text("""<fcd-export>
        <timestep time="0"><vehicle id="a" x="0" y="0" angle="90"/>
        <vehicle id="b" x="-10" y="0" angle="90"/></timestep>
        <timestep time="1"><vehicle id="a" x="5" y="0" angle="90"/>
        <vehicle id="b" x="-5" y="0" angle="90"/></timestep>
    </fcd-export>""")
    config_path = tmp_path / "s.ini"
    config_path.write_text("[scenario]\nseed = 0\n")
    rc = main(["run", "--config", str(config_path), "--trace", str(fcd),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    data = load_run(str(tmp_path / "out"))
    assert len(data) == 2


def test_cli_non_numeric_config_value(tmp_path, capsys):
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    config_path = tmp_path / "bad.ini"
    config_path.write_text("[scenario]\nseed = abc\n")
    out_dir = tmp_path / "o"
    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("param", ["spam_tx.kk = 3", "spam_tx.k = many"])
def test_bad_module_parameter_fails_before_output(tmp_path, param):
    cfg = parse_config(io.StringIO(
        f"[vehicle_type.SpamAttacker]\n{param}\n"
        "[mix]\nConnectedVehicle = 1\nSpamAttacker = 1\n"))
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert "SpamAttacker" in str(exc.value)
    cfg.out_dir = str(tmp_path / "out")
    with pytest.raises(ConfigError):
        run(cfg, trace=synth_traffic(1, 4, 2, 100.0))
    assert not os.path.exists(cfg.out_dir)


# --- perception radius rules -------------------------------------------------

@pytest.mark.parametrize("cfg", [
    ScenarioConfig(perception_radius=-5.0),
    ScenarioConfig(perception_radius=math.nan),
    ScenarioConfig(perception=PerceptionConfig(max_range=250.0)),
    ScenarioConfig(perception_radius=50.0),  # default max_range is 100
], ids=["negative", "nan", "max-range-250", "radius-50"])
def test_perception_radius_rules(cfg):
    with pytest.raises(ConfigError, match="perception_radius"):
        cfg.validate()


def test_perception_max_range_may_equal_radius():
    ScenarioConfig(perception_radius=100.0,
                   perception=PerceptionConfig(max_range=100.0)).validate()
    ScenarioConfig(perception_radius=100.0,
                   perception=PerceptionConfig(max_range=40.0)).validate()


@pytest.mark.parametrize("text", [
    "[scenario]\nperception_radius = -5\n",
    "[perception]\nmax_range = 250\n",
], ids=["negative-radius", "max-range-over-radius"])
def test_cli_perception_radius_rules(tmp_path, capsys, text):
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    config_path = tmp_path / "c.ini"
    config_path.write_text(text)
    out_dir = tmp_path / "o"
    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "perception_radius" in err
    assert not out_dir.exists()


# --- streamed trace, staged output -------------------------------------------

def write_trace(path, trace, tail=""):
    with open(path, "w") as f:
        write_csv(trace, f)
        f.write(tail)
    return str(path)


def run_peak(config):
    """tracemalloc allocation peak of one run."""
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_run_memory_is_flat(tmp_path):
    n = 8
    configs = {}
    for ticks in (n, 4 * n):
        trace = write_trace(tmp_path / f"t{ticks}.csv",
                            synth_traffic(3, 60, ticks, 600.0))
        configs[ticks] = ScenarioConfig(seed=3, trace_path=trace,
                                        out_dir=str(tmp_path / f"o{ticks}"))
    run_peak(configs[n])  # warm up lazy imports and caches
    short, long = run_peak(configs[n]), run_peak(configs[4 * n])
    assert long <= 1.25 * short, (short, long)


def test_bad_row_at_last_tick_leaves_no_output(tmp_path):
    trace = write_trace(tmp_path / "t.csv", synth_traffic(2, 6, 5, 200.0),
                        "4,v00000x,1,2,0,4,inf\n")
    cfg = ScenarioConfig(trace_path=trace, out_dir=str(tmp_path / "out"))
    with pytest.raises(ValidationError, match="row 32"):
        run(cfg)
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]


class InterruptModule:
    def process(self, inbox, ctx):
        if ctx.tick == 2:
            raise KeyboardInterrupt
        return []


def test_interrupt_mid_run_leaves_no_output(tmp_path):
    register_module("interrupt", InterruptModule)
    try:
        spec = VehicleTypeSpec("Interrupter",
                               FlowGraph(("camera", "interrupt"),
                                         {"camera": ("interrupt",)}))
        cfg = ScenarioConfig(out_dir=str(tmp_path / "out"),
                             extra_types={"Interrupter": spec},
                             mix=(("Interrupter", 1.0),))
        with pytest.raises(KeyboardInterrupt):
            run(cfg, trace=synth_traffic(2, 6, 5, 200.0))
    finally:
        del MODULES["interrupt"]
    assert os.listdir(tmp_path) == []


def test_existing_out_dir(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_bytes(b"kept")
    names = ("metrics.jsonl", "metrics.idx", "timings.csv")

    run(ScenarioConfig(seed=1, out_dir=str(out)),
        trace=synth_traffic(1, 6, 3, 200.0))
    first = {n: read_bytes(out / n) for n in names}
    run(ScenarioConfig(seed=2, out_dir=str(out)),
        trace=synth_traffic(2, 6, 5, 200.0))
    second = {n: read_bytes(out / n) for n in names}
    assert second["metrics.jsonl"] != first["metrics.jsonl"]
    assert second["metrics.idx"].count(b"\n") == 5
    assert second["timings.csv"].count(b"\n") == 6
    assert read_bytes(out / "notes.txt") == b"kept"

    def failing_trace():
        yield from synth_traffic(3, 6, 2, 200.0)
        raise ConfigError("trace gave out")

    with pytest.raises(ConfigError):
        run(ScenarioConfig(seed=3, out_dir=str(out)), trace=failing_trace())
    assert {n: read_bytes(out / n) for n in names} == second
    assert sorted(os.listdir(out)) == sorted(names + ("notes.txt",))
    assert os.listdir(tmp_path) == ["out"]


def test_run_reads_trace_once_and_stops_at_range_end(tmp_path):
    pulled = []

    def trace():
        for tt in synth_traffic(4, 5, 10, 200.0):
            pulled.append(tt.tick)
            yield tt

    cfg = ScenarioConfig(out_dir=str(tmp_path / "out"), tick_range=(2, 4))
    assert run(cfg, trace=trace()).ticks_executed == 2
    assert pulled == [0, 1, 2, 3, 4]


def test_run_registry_interns_only_trace_ids(tmp_path, monkeypatch):
    import cavsim.scenario as scenario

    registries = []

    class Recorded(scenario.PlateRegistry):
        def __init__(self):
            super().__init__()
            registries.append(self)

    monkeypatch.setattr(scenario, "PlateRegistry", Recorded)
    mix = (("SpamAttacker", 1.0), ("ConnectedVehicle", 1.0))
    trace = synth_traffic(6, 30, 6, 300.0)
    summary = run(ScenarioConfig(out_dir=str(tmp_path / "out"), seed=6,
                                 mix=mix), trace=trace)
    assert summary.ticks_executed == 6
    spammers = [s.id for s in trace[0].states
                if assign_type(6, s.id, mix) == "SpamAttacker"]
    assert spammers  # the run did fabricate plates
    (registry,) = registries
    plates = {registry.name_of(code) for code in range(len(registry))}
    assert plates == {s.id for tt in trace for s in tt.states}


def test_run_memory_per_vehicle(tmp_path):
    # what run() allocates on top of a held trace: per-vehicle module state
    # plus one tick's structures, about 2.6 KB a vehicle; holding the last
    # tick's index, maps and records through the next tick took 3.8 KB
    n = 2000
    trace = synth_traffic(1, n, 8, 6000.0)
    run(ScenarioConfig(seed=1, out_dir=str(tmp_path / "warm")),
        trace=synth_traffic(1, 20, 2, 600.0))  # lazy imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        run(ScenarioConfig(seed=1, out_dir=str(tmp_path / "out")), trace=trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 3200, peak / n

import gc
import hashlib
import io
import math
import os
import re
import sys
import tracemalloc
from dataclasses import replace

import pytest

from cavsim.errors import ConfigError, ValidationError
from cavsim.messages import Cpm, PerceivedObject
from cavsim.perception import PerceptionConfig
from cavsim.sandbox import (MODULES, CameraModule, FlowGraph, VehicleTypeSpec,
                            register_module)
from cavsim.scenario import (ScenarioConfig, assign_type, parse_config,
                             parse_tick_range, report, run)
from cavsim.trace import TraceTick, VehicleState, synth_traffic, write_csv
from conftest import read_run

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


@pytest.mark.parametrize("weight", [1e308, 5e-324],
                         ids=["overflow", "subnormal"])
def test_mix_weights_must_sum_to_a_normal_number(weight):
    # the draw scales by the sum: an infinite sum gave every id the last
    # type, a subnormal one a skewed split
    cfg = parse_config(io.StringIO(f"[mix]\nConnectedVehicle = {weight!r}\n"
                                   f"PoTVehicle = {weight!r}\n"))
    with pytest.raises(ConfigError, match="mix weights sum to"):
        cfg.validate()


def test_mix_weights_summing_to_the_least_normal_pass():
    half = sys.float_info.min / 2
    ScenarioConfig(mix=(("ConnectedVehicle", half),
                        ("PoTVehicle", half))).validate()


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
    # [scenario] refuses a key it does not read
    with pytest.raises(ConfigError, match=r"^\[scenario\] 'not_a_key' "):
        parse_config(io.StringIO(text.replace("[scenario]\n",
                                              "[scenario]\nnot_a_key = 1\n")))
    cfg = parse_config(io.StringIO(text))
    assert cfg.seed == 11
    assert cfg.tick_range == (2, 9)
    assert not hasattr(cfg, "cell_size")  # an old key, now ignored
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
                                  "[perception]\nmax_range = far",
                                  "[perception]\nmax_range = inf"])
def test_parse_config_non_numeric_value(line):
    with pytest.raises(ConfigError, match="is not a finite number"):
        parse_config(io.StringIO(line + "\n"))


@pytest.mark.parametrize("line", ["[scenario]\nseed = 1.5",
                                  "[scenario]\nworkers = 2.5",
                                  "[scenario]\nseed = -1e-3"])
def test_parse_config_integer_key_not_whole(line):
    with pytest.raises(ConfigError, match="is not a whole number$"):
        parse_config(io.StringIO(line + "\n"))


def test_parse_config_integer_key_written_as_float():
    cfg = parse_config(io.StringIO("[scenario]\nseed = 1e3\nworkers = 2.0\n"))
    assert (cfg.seed, cfg.workers) == (1000, 2)
    assert type(cfg.seed) is int and type(cfg.workers) is int
    # an integer past float range stays an integer, not an OverflowError
    big = "1" * 400
    assert parse_config(io.StringIO(f"[scenario]\nseed = {big}\n")
                        ).seed == int(big)


def test_readme_example_config_parses_and_validates():
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        blocks = re.findall(r"^```ini\n(.*?)^```$", f.read(), re.M | re.S)
    assert len(blocks) == 1
    cfg = parse_config(io.StringIO(blocks[0]))
    cfg.validate()
    assert cfg.tick_range == (0, 3600)
    assert (cfg.perception_radius, cfg.comm_range, cfg.workers) == (
        100.0, 300.0, 1)
    assert [name for name, _ in cfg.mix] == ["ConnectedVehicle",
                                             "SpamAttacker", "PoTVehicle"]
    assert set(cfg.extra_types) == {"Gossip", "SpamAttacker"}


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
                         comm_range=300.0,
                         mix=MIX_CU)
    run(cfg, trace=trace)
    data = read_run(cfg.out_dir)
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
    assert [line["tick"] for line in read_run(cfg.out_dir)] == [3, 4, 5]


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
    data = read_run(cfg.out_dir)

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
    data = read_run(cfg.out_dir)
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
    data = read_run(cfg.out_dir)
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
    line = read_run(cfg.out_dir)[1]
    assert line["tick"] == 1
    heat = cpr_fn(line, 100.0)
    got = {tuple(map(int, l.split(",")[:2])): float(l.split(",")[2])
           for l in lines[1:]}
    assert got == heat

    buf = io.StringIO()
    report(cfg.out_dir, "timing", buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ("tick,position_rebuild,perception,agent_ticks,"
                        "network_step,metrics_write")
    assert len(lines) == 4  # header + 3 ticks
    for line in lines[1:]:  # the writer's own time is not agent time
        assert all(float(v) >= 0.0 for v in line.split(",")[1:]), line

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


def test_cli_flags_read_like_their_keys(tmp_path, capsys):
    # --seed and --workers take a whole number written as a float, as the
    # seed and workers keys do, and replace the config's values
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(3, 8, 4, 100.0), f)
    runs = {}
    for name, seed, flags in (("key", 1000, []),
                              ("flags", 3, ["--seed", "1e3", "--workers",
                                            "2.0"]),
                              ("other", 3, [])):
        config_path = tmp_path / f"{name}.ini"
        config_path.write_text(f"[scenario]\nseed = {seed}\n[mix]\n"
                               "ConnectedVehicle = 1\nSpamAttacker = 1\n")
        rc = main(["run", "--config", str(config_path), "--trace",
                   str(trace_path), "--out", str(tmp_path / name), *flags])
        assert rc == 0, capsys.readouterr().err
        runs[name] = read_bytes(tmp_path / name / "metrics.jsonl")
    assert runs["flags"] == runs["key"] != runs["other"]


def test_empty_ticks_key_runs_the_whole_trace(tmp_path):
    trace = write_trace(tmp_path / "t.csv", synth_traffic(1, 4, 3, 100.0))
    cfg = parse_config(io.StringIO(
        f"[scenario]\nticks =\ntrace = {trace}\nout = {tmp_path / 'o'}\n"))
    assert cfg.tick_range is None
    assert run(cfg).ticks_executed == 3


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
    data = read_run(str(tmp_path / "out"))
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


@pytest.mark.parametrize("text,why", [
    ("[scenario]\nseed = 1\n\nfoo\n", "Source contains parsing errors"),
    ("foo = 1\n[scenario]\n", "File contains no section headers"),
])
def test_cli_unparsable_config_is_one_error_line(tmp_path, capsys, text,
                                                 why):
    # configparser's own message spans two or three lines
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    config_path = tmp_path / "bad.ini"
    config_path.write_text(text)
    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: bad config file: " + why)
    assert "'foo" in err[0]
    assert sorted(os.listdir(tmp_path)) == ["bad.ini", "t.csv"]


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


@pytest.mark.parametrize("vtype,param", [
    ("ReplayAttacker", "replay_tx.replays = -1"),
    ("ReplayAttacker", "replay_tx.replays = 1.5"),
    ("SpamAttacker", "spam_tx.k = -2"),
    ("SpamAttacker", "spam_tx.k = 2.5"),
    ("SpamAttacker", "spam_tx.k = inf"),
    ("SpamAttacker", "spam_tx.k = 65536"),
    ("ReplayAttacker", "replay_tx.history = 0"),
    ("PoTVehicle", "proof_verify.provers_required = 0"),
    # the config parser reads true/false as bools, and int(True) == 1
    ("SpamAttacker", "spam_tx.k = true"),
    ("ReplayAttacker", "replay_tx.history = true"),
    ("ReplayAttacker", "replay_tx.replays = false"),
    ("PoTVehicle", "proof_verify.provers_required = true"),
], ids=["replays-negative", "replays-fraction", "k-negative", "k-fraction",
        "k-inf", "k-above-wire-limit", "history-0", "provers-required-0",
        "k-true", "history-true", "replays-false", "provers-required-true"])
def test_out_of_range_module_parameter_fails_validate(tmp_path, vtype, param):
    cfg = parse_config(io.StringIO(
        f"[vehicle_type.{vtype}]\n{param}\n[mix]\n{vtype} = 1\n"))
    key = param.split(".")[1].split()[0]
    with pytest.raises(ConfigError, match=f"{vtype}.*{key}"):
        cfg.validate()
    cfg.out_dir = str(tmp_path / "out")
    with pytest.raises(ConfigError):
        run(cfg, trace=synth_traffic(1, 4, 2, 100.0))
    assert not os.path.exists(cfg.out_dir)


def test_cli_replay_history_above_maxsize_is_one_error_line(tmp_path,
                                                           capsys):
    # deque(maxlen=...) takes at most sys.maxsize
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    config_path = tmp_path / "big.ini"
    config_path.write_text(
        "[vehicle_type.ReplayAttacker]\n"
        f"replay_tx.history = {sys.maxsize + 1}\n"
        "[mix]\nReplayAttacker = 1\n")
    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: ") and "history" in err[0]
    assert sorted(os.listdir(tmp_path)) == ["big.ini", "t.csv"]


def test_module_parameter_lower_bounds_pass_validate():
    parse_config(io.StringIO(
        "[vehicle_type.ReplayAttacker]\nreplay_tx.replays = 0\n"
        "replay_tx.history = 1\n"
        "[vehicle_type.SpamAttacker]\nspam_tx.k = 0\n"
        "[vehicle_type.PoTVehicle]\nproof_verify.provers_required = 1\n"
        "[mix]\nReplayAttacker = 1\nSpamAttacker = 1\nPoTVehicle = 1\n"
    )).validate()


def test_spam_k_at_the_wire_limit_passes_validate():
    parse_config(io.StringIO(
        "[vehicle_type.SpamAttacker]\nspam_tx.k = 65535\n"
        "[mix]\nSpamAttacker = 1\n")).validate()


# --- vehicle type booleans ---------------------------------------------------

LURKER = ("[vehicle_type.Lurker]\nmodules = camera, object_store\n"
          "edges = camera -> object_store\n")


@pytest.mark.parametrize("raw,want", [
    ("true", True), ("yes", True), ("on", True), ("1", True), ("YES", True),
    ("false", False), ("no", False), ("off", False), ("0", False),
    ("Off", False),
])
def test_connected_takes_the_configparser_boolean_words(raw, want):
    cfg = parse_config(io.StringIO(
        f"{LURKER}connected = {raw}\n"
        f"[vehicle_type.ConnectedVehicle]\nconnected = {raw}\n"))
    assert cfg.extra_types["Lurker"].connected is want
    assert cfg.extra_types["ConnectedVehicle"].connected is want


@pytest.mark.parametrize("section,vtype", [
    (LURKER, "Lurker"),
    ("[vehicle_type.ConnectedVehicle]\n", "ConnectedVehicle"),
], ids=["custom", "builtin"])
@pytest.mark.parametrize("raw", ["maybe", "2", "nope"])
def test_cli_connected_not_a_boolean(tmp_path, capsys, section, vtype, raw):
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    config_path = tmp_path / "c.ini"
    config_path.write_text(f"{section}connected = {raw}\n")
    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert vtype in err[0] and "connected" in err[0] and raw in err[0]
    assert sorted(os.listdir(tmp_path)) == ["c.ini", "t.csv"]


@pytest.mark.parametrize("section,vtype,key", [
    (f"{LURKER}conected = false\n", "Lurker", "conected"),
    ("[vehicle_type.ConnectedVehicle]\nconected = false\n",
     "ConnectedVehicle", "conected"),
    ("[vehicle_type.ConnectedVehicle]\nedges = camera -> object_store\n",
     "ConnectedVehicle", "edges"),
    ("[vehicle_type.PoTVehicle]\nentry = camera\n", "PoTVehicle", "entry"),
    ("[vehicle_type.SpamAttacker]\nnotamodule.foo = 1\n", "SpamAttacker",
     "notamodule.foo"),
    (f"{LURKER}spam_tx.k = 1\n", "Lurker", "spam_tx.k"),
], ids=["misspelled", "misspelled-builtin", "edges-without-modules",
        "entry-without-modules", "unknown-module", "module-not-in-flow"])
def test_vehicle_type_key_it_cannot_use(section, vtype, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(io.StringIO(section))
    assert repr(vtype) in str(exc.value) and repr(key) in str(exc.value)


def test_cli_vehicle_type_key_it_cannot_use(tmp_path, capsys):
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    config_path = tmp_path / "c.ini"
    config_path.write_text("[vehicle_type.ConnectedVehicle]\n"
                           "notamodule.foo = 1\n")
    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "ConnectedVehicle" in err[0] and "notamodule.foo" in err[0]
    assert sorted(os.listdir(tmp_path)) == ["c.ini", "t.csv"]


def test_vehicle_type_keys_in_use_still_parse():
    # the override the benchmark writes, and a full custom type
    cfg = parse_config(io.StringIO(
        "[vehicle_type.SpamAttacker]\nspam_tx.k = 3\nconnected = yes\n"
        f"{LURKER}entry = camera\nconnected = no\n"
        "[mix]\nSpamAttacker = 1\nLurker = 1\n"))
    cfg.validate()
    assert cfg.extra_types["SpamAttacker"].params["spam_tx"] == {"k": 3}
    assert cfg.extra_types["Lurker"].entry == ("camera",)


# --- sections and [perception] keys -------------------------------------------

@pytest.mark.parametrize("key", ["fov_half_angle", "maxrange", "Max_Range",
                                 "plate_width_m"])
def test_perception_key_it_does_not_read(key):
    with pytest.raises(ConfigError) as exc:
        parse_config(io.StringIO(f"[perception]\nmax_range = 50\n"
                                 f"{key} = 30\n"))
    assert "[perception]" in str(exc.value) and repr(key) in str(exc.value)


@pytest.mark.parametrize("section", ["mixx", "Scenario", "perceptoin",
                                     "vehicle_types.Lurker", "camera",
                                     "DEFAULT"])
def test_section_it_does_not_read(section):
    with pytest.raises(ConfigError) as exc:
        parse_config(io.StringIO(f"[mix]\nConnectedVehicle = 1\n"
                                 f"[{section}]\nSpamAttacker = 1\n"))
    assert f"[{section}]" in str(exc.value)


@pytest.mark.parametrize("text,names,flags", [
    ("[perception]\nfov_half_angle = 30\n", ["[perception]",
                                              "fov_half_angle"], []),
    ("[mixx]\nSpamAttacker = 1\n", ["[mixx]"], []),
    ("[scenario]\ncomm_rang = 50\n", ["[scenario]", "comm_rang"], []),
    # a flag's value is read as its [scenario] key's
    ("[scenario]\nseed = 1\n", ["seed", "'x'"], ["--seed", "x"]),
    ("[scenario]\nseed = 1\n", ["seed", "'1.5'"], ["--seed", "1.5"]),
    ("[scenario]\nseed = 1\n", ["ticks", "'5'"], ["--ticks", "5"]),
    ("[scenario]\nseed = 1\n", ["workers", "'x'"], ["--workers", "x"]),
], ids=["perception-key", "section", "scenario-key", "seed-flag-text",
        "seed-flag-fraction", "ticks-flag", "workers-flag"])
def test_cli_config_typo_is_one_error_line(tmp_path, capsys, text, names,
                                           flags):
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    config_path = tmp_path / "c.ini"
    config_path.write_text(text)
    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(tmp_path / "o"), *flags])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(name in err[0] for name in names)
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["c.ini", "t.csv"]


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


def test_old_cell_size_key_changes_nothing(tmp_path):
    # the grid cell follows the two radii; a cell_size key of an old config
    # file, below, at or above them, is ignored
    trace = write_trace(tmp_path / "t.csv", synth_traffic(4, 80, 4, 500.0))
    digests = set()
    for i, line in enumerate(("", "cell_size = 50", "cell_size = 150",
                              "cell_size = 1000")):
        cfg = parse_config(io.StringIO(
            f"[scenario]\nseed = 4\ntrace = {trace}\nout = {tmp_path / str(i)}"
            f"\nperception_radius = 100\ncomm_range = 150\n{line}\n"
            "[mix]\nConnectedVehicle = 3\nSpamAttacker = 1\n"))
        cfg.validate()
        digests.add(hashlib.sha256(
            read_bytes(run(cfg).metrics_path)).hexdigest())
    assert len(digests) == 1
    # the runs perceived and delivered something
    last = read_run(cfg.out_dir)[-1]["vehicles"]
    assert any(v["local_objects"] for v in last)
    assert any(v["received_objects"] for v in last)


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


class WideTxModule:
    """Broadcasts one CPM of `n` copies of one object per tick; with n = 0
    it broadcasts nothing."""

    __slots__ = ("n",)

    def __init__(self, n=0):
        self.n = n

    def process(self, inbox, ctx):
        if self.n:
            pose = (ctx.state.x, ctx.state.y, ctx.state.heading)
            seen = PerceivedObject("wide", ctx.state.x, ctx.state.y, 0.0,
                                   ctx.tick)
            ctx.broadcast(Cpm(ctx.station, ctx.tick, pose, (seen,) * self.n))
        return []


def test_oversize_broadcast_is_only_its_senders_error(tmp_path, monkeypatch):
    """A CPM with more objects than the wire's u16 count is refused when
    it is broadcast: its sender's tick fails and counts an error, and every
    other vehicle's record is the one of a run whose sender is silent.  A
    CPM at the limit is delivered."""
    monkeypatch.setitem(MODULES, "wide_tx", WideTxModule)
    mix = (("ConnectedVehicle", 0.9), ("Wide", 0.1))
    trace = synth_traffic(3, 20, 3, 200.0)
    ticks = {}
    for n in (0, 70_000, 65_535):
        spec = VehicleTypeSpec("Wide", FlowGraph(("wide_tx",)),
                               params={"wide_tx": {"n": n}})
        cfg = ScenarioConfig(out_dir=str(tmp_path / str(n)), seed=2,
                             mix=mix, extra_types={"Wide": spec})
        run(cfg, trace=trace)
        ticks[n] = read_run(cfg.out_dir)
    senders = {s.id for tt in trace for s in tt.states
               if assign_type(2, s.id, mix) == "Wide"}
    assert len(senders) == 3 and len(ticks[0]) == 3
    for control, oversize, full in zip(ticks[0], ticks[70_000],
                                       ticks[65_535]):
        for a, b, c in zip(control["vehicles"], oversize["vehicles"],
                           full["vehicles"]):
            if a["id"] in senders:
                assert (a["errors"], b["errors"], c["errors"]) == (0, 1, 0)
                assert (b["bytes_sent"], c["bytes_sent"]) == \
                    (0, 34 + 32 * 65_535)
            else:
                assert b == a
    # the CPM at the limit reached the senders' neighbours
    assert sum(v["received_objects"] for v in ticks[65_535][-1]["vehicles"]) \
        > sum(v["received_objects"] for v in ticks[0][-1]["vehicles"])


class TamperModule:
    """Sets the plate of every object in its inbox to "forged"."""

    __slots__ = ()

    def process(self, inbox, ctx):
        for cpm in inbox:
            for o in cpm.objects:
                o.plate = "forged"
        return []


class SinkModule:
    __slots__ = ()

    def process(self, inbox, ctx):
        return []


def test_tampered_inbox_changes_no_other_vehicles_counts(tmp_path,
                                                          monkeypatch):
    """A module that edits the objects of the CPMs it received changes
    what its own vehicle holds, not what the other recipients of those
    CPMs count: their stores read the masks built at the intake.  With
    the stores reading each object's plate, the other vehicles'
    received_objects sum on the last tick fell from 30,274 to 1,600."""
    mix = (("ConnectedVehicle", 0.8), ("Tamper", 0.2))
    spec = VehicleTypeSpec("Tamper", FlowGraph(("rx", "tamper"),
                                               {"rx": ("tamper",)}), ("rx",))
    trace = synth_traffic(3, 200, 6, 400.0)
    received = {}
    for name, module in (("control", SinkModule), ("tamper", TamperModule)):
        monkeypatch.setitem(MODULES, "tamper", module)
        cfg = ScenarioConfig(out_dir=str(tmp_path / name), seed=3, mix=mix,
                             extra_types={"Tamper": spec})
        run(cfg, trace=trace)
        received[name] = sum(
            v["received_objects"] for v in read_run(cfg.out_dir)[-1]["vehicles"]
            if assign_type(3, v["id"], mix) == "ConnectedVehicle")
    assert received["control"] == 30_274
    assert received["tamper"] == received["control"]


class SendModule:
    """Broadcasts the objects of its inbox in one CPM a tick: plainly,
    with a mask of 0 given ("given"), or plainly and then with the mask of
    the CPM it sent set to 0 ("edited")."""

    __slots__ = ("how",)

    def __init__(self, how="plain"):
        self.how = how

    def process(self, inbox, ctx):
        objects = tuple(o for cpm in inbox for o in cpm.objects)
        if objects:
            pose = (ctx.state.x, ctx.state.y, ctx.state.heading)
            mask = 0 if self.how == "given" else None
            cpm = Cpm(ctx.station, ctx.tick, pose, objects, False, mask)
            ctx.broadcast(cpm)
            if self.how == "edited":
                cpm.mask = 0
        return []


@pytest.mark.parametrize("how", ["plain", "given", "edited"])
def test_sender_mask_changes_no_recipients_counts(tmp_path, monkeypatch,
                                                  how):
    """The network builds the mask of every CPM it delivers from the
    objects it carries, so a sender that gives a mask of 0, or sets one on
    the CPM it sent, changes no recipient's count.  With the intake
    trusting the sender's mask, both gave 30,274 in place of 30,953."""
    monkeypatch.setitem(MODULES, "snd", SendModule)
    mix = (("ConnectedVehicle", 0.8), ("Snd", 0.2))
    spec = VehicleTypeSpec("Snd", FlowGraph(("camera", "snd"),
                                            {"camera": ("snd",)}),
                           params={"snd": {"how": how}})
    cfg = ScenarioConfig(out_dir=str(tmp_path), seed=3, mix=mix,
                         extra_types={"Snd": spec})
    run(cfg, trace=synth_traffic(3, 200, 6, 400.0))
    ticks = read_run(cfg.out_dir)
    assert all(v["errors"] == 0 for t in ticks for v in t["vehicles"])
    assert sum(v["received_objects"] for v in ticks[-1]["vehicles"]
               if assign_type(3, v["id"], mix) == "ConnectedVehicle") \
        == 30_953


class JunkTxModule:
    """Broadcasts a CPM whose one object is a str, not a PerceivedObject;
    with junk = False it broadcasts nothing."""

    __slots__ = ("junk",)

    def __init__(self, junk=True):
        self.junk = junk

    def process(self, inbox, ctx):
        if self.junk:
            pose = (ctx.state.x, ctx.state.y, ctx.state.heading)
            ctx.broadcast(Cpm(ctx.station, ctx.tick, pose, ("junk",)))
        return []


def test_junk_object_is_only_its_senders_error(tmp_path, monkeypatch):
    """A broadcast object that is not a PerceivedObject fails its sender
    at the network's intake, every tick, with no bytes sent; no recipient
    gets it, so every ConnectedVehicle's record is the one of a run whose
    junk senders are silent.  With the stores reading each object's
    plate, all 55 ConnectedVehicles counted an error on the last tick."""
    monkeypatch.setitem(MODULES, "junk_tx", JunkTxModule)
    mix = (("ConnectedVehicle", 0.9), ("Junk", 0.1))
    trace = synth_traffic(3, 60, 4, 300.0)
    ticks = {}
    for junk in (False, True):
        spec = VehicleTypeSpec("Junk", FlowGraph(("junk_tx",)),
                               params={"junk_tx": {"junk": junk}})
        cfg = ScenarioConfig(out_dir=str(tmp_path / str(junk)), seed=1,
                             mix=mix, extra_types={"Junk": spec})
        run(cfg, trace=trace)
        ticks[junk] = read_run(cfg.out_dir)
    senders = {s.id for tt in trace for s in tt.states
               if assign_type(1, s.id, mix) == "Junk"}
    assert senders and len(ticks[True]) == 4
    for control, junk in zip(ticks[False], ticks[True]):
        for a, b in zip(control["vehicles"], junk["vehicles"]):
            if a["id"] in senders:
                assert (b["errors"], b["bytes_sent"]) == (1, 0)
            else:
                assert b == a and b["errors"] == 0
    assert sum(v["received_objects"] for v in ticks[True][-1]["vehicles"]) \
        == 2_959


class ForgeTxModule:
    """Broadcasts one CPM a tick naming the fabricated plate `plate`."""

    __slots__ = ("plate",)

    def __init__(self, plate="x"):
        self.plate = plate

    def process(self, inbox, ctx):
        pose = (ctx.state.x, ctx.state.y, ctx.state.heading)
        seen = PerceivedObject(self.plate, 0.0, 0.0, 0.0, ctx.tick)
        ctx.broadcast(Cpm(ctx.station, ctx.tick, pose, (seen,)))
        return []


@pytest.mark.parametrize("spawns_at", [0, 2])
def test_fabricated_plate_equal_to_a_trace_id_counts_once(
        tmp_path, monkeypatch, spawns_at):
    """A forger names vehicle t's plate from tick 0; t spawns at tick 0
    (before the fabricated plate first appears) or at tick 2 (after).
    Either way one string has one plate code: the receiver r, which also
    perceives t, counts it once, and t is one vehicle seen."""
    monkeypatch.setitem(MODULES, "forge_tx", ForgeTxModule)
    mix = (("ConnectedVehicle", 1.0), ("Forger", 1.0))
    forger = find_id("f", "Forger", 5, mix)
    receiver = find_id("r", "ConnectedVehicle", 5, mix)
    target = find_id("t", "ConnectedVehicle", 5, mix)
    spec = VehicleTypeSpec("Forger", FlowGraph(("forge_tx",)),
                           params={"forge_tx": {"plate": target}})
    trace = [TraceTick(tick, (state(forger, -20.0, 0.0),
                              state(receiver, 0.0, 0.0))
                       + ((state(target, 30.0, 0.0),)
                          if tick >= spawns_at else ()))
             for tick in range(4)]
    cfg = ScenarioConfig(out_dir=str(tmp_path / "out"), seed=5, mix=mix,
                         extra_types={"Forger": spec})
    assert run(cfg, trace=trace).vehicles_seen == 3
    counts = [next((v["local_objects"], v["received_objects"],
                    v["all_objects"]) for v in line["vehicles"]
                   if v["id"] == receiver) for line in read_run(cfg.out_dir)]
    if spawns_at == 0:
        assert counts == [(1, 0, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)]
    else:
        assert counts == [(0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 1, 1)]


class LidarModule:
    """A registered sensor that is not named `camera`."""

    __slots__ = ()
    process = CameraModule.process


def test_any_registered_sensor_perceives(tmp_path, monkeypatch):
    """Whether a vehicle perceives follows its modules' classes, not their
    names: a `lidar` that runs the camera's code sees what `camera` does."""
    monkeypatch.setitem(MODULES, "lidar", LidarModule)
    local = {}
    for sensor in ("camera", "lidar"):
        spec = VehicleTypeSpec("Sensing", FlowGraph(
            (sensor, "object_store"), {sensor: ("object_store",)}),
            connected=False)
        cfg = ScenarioConfig(out_dir=str(tmp_path / sensor),
                             extra_types={"Sensing": spec},
                             mix=(("Sensing", 1.0),))
        run(cfg, trace=synth_traffic(3, 200, 4, 300.0))
        local[sensor] = [v["local_objects"]
                         for v in read_run(cfg.out_dir)[-1]["vehicles"]]
    assert sum(local["camera"]) == 1670
    assert local["lidar"] == local["camera"]


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


def prover_type(with_proof_gen):
    """PoTVehicle's flow as a custom type, with or without proof_gen
    between the camera and cpm_tx."""
    nodes = ("camera", "cpm_tx", "rx", "proof_verify", "object_store")
    edges = {"camera": ("cpm_tx", "object_store", "proof_verify"),
             "rx": ("object_store", "proof_verify")}
    if with_proof_gen:
        nodes = ("proof_gen",) + nodes
        edges["camera"] = ("proof_gen",) + edges["camera"][1:]
        edges["proof_gen"] = ("cpm_tx",)
    return VehicleTypeSpec("Prover", FlowGraph(nodes, edges), entry=("rx",))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_proof_gen_changes_no_output(tmp_path, seed):
    from test_golden import ALL_TYPES, churned

    trace = churned(synth_traffic(seed, 80, 8, 400.0))
    got = {}
    for with_proof_gen in (True, False):
        out = tmp_path / str(with_proof_gen)
        run(ScenarioConfig(out_dir=str(out), seed=seed,
                           mix=ALL_TYPES + (("Prover", 2.0),),
                           extra_types={"Prover": prover_type(with_proof_gen)}),
            trace=trace)
        got[with_proof_gen] = read_bytes(out / "metrics.jsonl")
    assert got[True] == got[False]
    # the provers broadcast, and some plates were verified
    assert b'"ttv":{"' in got[True]
    assert any(assign_type(seed, v["id"], ALL_TYPES + (("Prover", 2.0),))
               == "Prover" and v["bytes_sent"]
               for line in read_run(str(tmp_path / "True"))
               for v in line["vehicles"])


class NoStaging:
    """Stands in for scenario's tempfile module: making a staging directory
    fails the test."""

    @staticmethod
    def mkdtemp(**kwargs):
        raise AssertionError("a staging directory was made")


@pytest.mark.parametrize("out", ["", "taken"], ids=["empty", "file"])
def test_bad_out_fails_before_any_tick(tmp_path, monkeypatch, out):
    import cavsim.scenario as scenario

    monkeypatch.setattr(scenario, "tempfile", NoStaging)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_bytes(b"kept")
    pulled = []

    def trace():
        for tt in synth_traffic(1, 4, 3, 200.0):
            pulled.append(tt.tick)
            yield tt

    with pytest.raises(ConfigError, match="output directory"):
        run(ScenarioConfig(out_dir=out), trace=trace())
    assert pulled == []
    assert os.listdir(tmp_path) == ["taken"]
    assert read_bytes(tmp_path / "taken") == b"kept"


@pytest.mark.parametrize("how", ["config", "option", "file"])
def test_cli_bad_out_is_one_error_line(tmp_path, monkeypatch, capsys, how):
    import cavsim.scenario as scenario
    from cavsim.cli import main

    monkeypatch.setattr(scenario, "tempfile", NoStaging)
    monkeypatch.chdir(tmp_path)
    write_trace(tmp_path / "t.csv", synth_traffic(1, 4, 3, 200.0))
    (tmp_path / "taken").write_bytes(b"kept")
    (tmp_path / "s.ini").write_text(
        "[scenario]\nseed = 1\n" + ("out =\n" if how == "config" else ""))
    argv = ["run", "--config", "s.ini", "--trace", "t.csv"]
    argv += {"config": [], "option": ["--out", ""],
             "file": ["--out", "taken"]}[how]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "output directory" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["s.ini", "t.csv", "taken"]
    assert read_bytes(tmp_path / "taken") == b"kept"


def test_run_reads_trace_once_and_stops_at_range_end(tmp_path):
    pulled = []

    def trace():
        for tt in synth_traffic(4, 5, 10, 200.0):
            pulled.append(tt.tick)
            yield tt

    cfg = ScenarioConfig(out_dir=str(tmp_path / "out"), tick_range=(2, 4))
    assert run(cfg, trace=trace()).ticks_executed == 2
    assert pulled == [0, 1, 2, 3, 4]


def test_run_registry_codes_each_plate_once(tmp_path, monkeypatch):
    """A run's one plate registry codes every trace id and, once each as
    a broadcast first carries it, every fabricated plate."""
    import cavsim.scenario as scenario

    interned, registries = [], []

    class Recorded(scenario.PlateRegistry):
        def __init__(self):
            super().__init__()
            registries.append(self)

        def intern(self, plate):
            interned.append(plate)
            return super().intern(plate)

    monkeypatch.setattr(scenario, "PlateRegistry", Recorded)
    mix = (("SpamAttacker", 1.0), ("ConnectedVehicle", 1.0))
    trace = synth_traffic(6, 30, 6, 300.0)
    summary = run(ScenarioConfig(out_dir=str(tmp_path / "out"), seed=6,
                                 mix=mix), trace=trace)
    assert summary.ticks_executed == 6
    ids = {s.id for tt in trace for s in tt.states}
    fabricated = [p for p in interned if p not in ids]
    assert fabricated  # the run did fabricate plates
    assert all(p.startswith("spam:") for p in fabricated)
    assert len(set(fabricated)) == len(fabricated)
    assert set(interned) == ids | set(fabricated)
    (registry,) = registries
    assert len(registry) == len(ids) + len(fabricated)
    assert summary.vehicles_seen == len(ids)


def test_vehicles_seen_counts_distinct_trace_ids(tmp_path):
    # churn: one vehicle leaves at tick 2 and comes back at tick 4, another
    # joins at tick 3; SpamAttackers fabricate plates that are not vehicles
    mix = (("SpamAttacker", 1.0), ("ConnectedVehicle", 1.0))
    base = synth_traffic(7, 12, 6, 300.0)
    gone = base[0].states[0].id
    trace = []
    for tt in base:
        states = [s for s in tt.states
                  if not (s.id == gone and tt.tick in (2, 3))]
        if tt.tick >= 3:
            states.append(state("late", 5.0, 5.0))
        trace.append(TraceTick(tt.tick, tuple(states)))
    ids = {s.id for tt in trace for s in tt.states}
    assert len(ids) == 13
    assert any(assign_type(7, i, mix) == "SpamAttacker" for i in ids)
    summary = run(ScenarioConfig(out_dir=str(tmp_path / "out"), seed=7,
                                 mix=mix), trace=trace)
    assert summary.ticks_executed == 6
    assert summary.vehicles_seen == len(ids)


def test_run_memory_per_vehicle(tmp_path):
    # what run() allocates on top of a held trace: per-vehicle module state
    # plus one tick's structures, about 1.5 KB a vehicle; a fresh instance
    # of every module per vehicle and a list of the tick's records took
    # 1.8 KB, and holding the last tick's index, maps and records through
    # the next tick 3.8 KB
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
    assert peak / n < 1700, peak / n


def test_run_encodes_records_while_writing(tmp_path, monkeypatch):
    # the writer draws each record as its vehicle ticks, so a tick holds
    # one WRITE_CHUNK of records, never the whole line: holding the
    # tick's records in a list took more than the line itself
    from cavsim import scenario
    from cavsim.metrics import MetricsWriter

    n = 2000
    trace = synth_traffic(1, n, 3, 6000.0)
    encoded = [0]
    record_at = scenario.record_at

    def counted(*args):
        encoded[0] += 1
        return record_at(*args)

    record_tick = MetricsWriter.record_tick
    ticks = []

    def measured(self, tick, records):
        before, offset = encoded[0], self._offset
        tracemalloc.reset_peak()
        record_tick(self, tick, records)
        held, peak = tracemalloc.get_traced_memory()
        ticks.append((before, encoded[0], peak - held, self._offset - offset))

    monkeypatch.setattr(scenario, "record_at", counted)
    monkeypatch.setattr(MetricsWriter, "record_tick", measured)
    gc.collect()
    tracemalloc.start()
    try:
        run(ScenarioConfig(seed=1, out_dir=str(tmp_path / "out")), trace=trace)
    finally:
        tracemalloc.stop()
    assert [t[:2] for t in ticks] == [(k * n, (k + 1) * n) for k in range(3)]
    for _, _, peak, length in ticks:
        assert peak < 0.5 * length, (peak, length)


def test_run_collector_pressure(tmp_path):
    # A tick holds each vehicle's record as encoded text, which the cyclic
    # collector does not track, and frees the grid's cells after the
    # sweep.  Holding 2,000 MetricsRecords (with their position tuples and
    # TTV dicts) and the cell lists to the end of the tick took 153 young,
    # 13 middle and 1 full collection here; 101/9/0 now.
    trace = synth_traffic(1, 2000, 8, 6000.0)
    cfg = ScenarioConfig(seed=1, out_dir=str(tmp_path / "out"))
    gc.collect()
    before = [g["collections"] for g in gc.get_stats()]
    run(cfg, trace=trace)
    young, middle, full = (g["collections"] - b
                           for g, b in zip(gc.get_stats(), before))
    assert young <= 120 and middle <= 11 and full == 0, (young, middle, full)


@pytest.mark.parametrize("key,value", [
    ("default_length", "-3"), ("default_length", "0"),
    ("default_width", "-0.5"), ("comm_range", "0"), ("comm_range", "-5"),
])
def test_cli_non_positive_dimension_or_range(tmp_path, capsys, key, value):
    # every row gives its dimensions, so only validate() can catch the key
    from cavsim.cli import main

    trace_path = tmp_path / "t.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(1, 2, 2, 100.0), f)
    config_path = tmp_path / "c.ini"
    config_path.write_text(f"[scenario]\n{key} = {value}\n")
    out_dir = tmp_path / "o"
    rc = main(["run", "--config", str(config_path), "--trace", str(trace_path),
               "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert sorted(os.listdir(tmp_path)) == ["c.ini", "t.csv"]


@pytest.mark.parametrize("key", ["default_length", "default_width",
                                 "comm_range"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_validate_rejects_non_positive(key, value):
    with pytest.raises(ConfigError, match=key):
        replace(ScenarioConfig(), **{key: value}).validate()


def test_grid_is_freed_before_perception(tmp_path, monkeypatch):
    # once the sweep has run, the tick keeps the grid's states map but not
    # the grid (nor its cell lists): only this test still refers to it
    import sys

    from cavsim import scenario

    grids, refs = [], []
    real_sweep, real_perceive = scenario.sweep_neighbors, scenario.perceive

    def sweep(grid, *radii):
        grids.append(grid)
        return real_sweep(grid, *radii)

    def perceive(*args):
        refs.append(sys.getrefcount(grids[-1]))
        return real_perceive(*args)

    monkeypatch.setattr(scenario, "sweep_neighbors", sweep)
    monkeypatch.setattr(scenario, "perceive", perceive)
    run(ScenarioConfig(out_dir=str(tmp_path / "out")),
        trace=synth_traffic(1, 30, 3, 300.0))
    assert len(grids) == 3 and refs and set(refs) == {2}, refs

"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s`)."""

import itertools
import math
import random
import time

from cavsim.metrics import (avg_bandwidth, cpr, read_index, seek_tick,
                            ttv_distribution)
from cavsim.perception import (CameraPose, PerceptionConfig, box_to_camera,
                               fov_relevant, get_visible_lines,
                               get_visible_lines_naive, normalize_heading,
                               projection_angles, reconstruct_box)
from cavsim.scenario import ScenarioConfig, assign_type, run
from cavsim.spatial import get_nearby_vehicles, rebuild
from cavsim.trace import TraceTick, VehicleState, normalize_angle, synth_traffic
from cavsim.errors import GeometryError

from conftest import LANDMARKS, camera_to_world, random_scene, read_run


def _pass(num, name):
    print(f"\nACCEPTANCE {num:02d} ({name}): PASS")


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def find_id(prefix, type_name, seed, mix):
    for i in range(100000):
        vid = f"{prefix}{i}"
        if assign_type(seed, vid, mix) == type_name:
            return vid
    raise AssertionError(f"no id found for {type_name}")


# -- 1 ----------------------------------------------------------------------

def scene_views(states, cfg):
    cam = CameraPose(0.0, 0.0, 0.0)
    views = []
    for s in states:
        box = box_to_camera(cam, reconstruct_box(s, cfg.plate_width))
        if not fov_relevant(box.corners, cfg):
            continue
        box = normalize_heading(box)
        try:
            views.append(projection_angles(box, s.id))
        except GeometryError:
            continue
    views.sort(key=lambda v: (v.dist_g, v.vehicle_id))
    return views


def test_criterion_01_occlusion_oracle_equivalence():
    cfg = PerceptionConfig()
    rng = random.Random(20240001)
    start = time.perf_counter()
    scenes = candidates = 0
    for _ in range(1000):
        views = scene_views(random_scene(rng, rng.randint(0, 50)), cfg)
        assert get_visible_lines(views) == get_visible_lines_naive(views)
        scenes += 1
        candidates += len(views)
    elapsed = time.perf_counter() - start
    assert scenes == 1000
    assert candidates > 5000  # the comparison is not vacuous
    assert elapsed < 10.0, f"occlusion check took {elapsed:.1f}s"
    _pass(1, "occlusion oracle equivalence")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_spatial_oracle_equivalence():
    rng = random.Random(20240002)
    for _ in range(200):
        n = rng.randint(1, 2000)
        span = rng.uniform(200.0, 3000.0)
        cell = rng.uniform(50.0, 400.0)
        states = [VehicleState(f"v{i:04d}", rng.uniform(-span, span),
                               rng.uniform(-span, span), 0.0)
                  for i in range(n)]
        index = rebuild(states, cell)
        positions = [(s.id, s.x, s.y) for s in states]
        for _ in range(100):
            ego = states[rng.randrange(n)]
            radius = rng.uniform(0.0, cell)
            got = [s.id for s in get_nearby_vehicles(index, ego.id, radius)]
            r2 = radius * radius
            want = sorted(
                vid for vid, x, y in positions
                if vid != ego.id
                and (x - ego.x) ** 2 + (y - ego.y) ** 2 <= r2)
            assert got == want
    _pass(2, "spatial index oracle equivalence")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_camera_transform_geometry():
    rng = random.Random(20240003)
    for _ in range(10000):
        cam = CameraPose(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4),
                         rng.uniform(-math.pi, math.pi) or math.pi)
        state = VehicleState("v", rng.uniform(-1e4, 1e4),
                             rng.uniform(-1e4, 1e4),
                             rng.uniform(-math.pi, math.pi) or math.pi,
                             rng.uniform(1.0, 20.0), rng.uniform(0.5, 3.0))
        world = reconstruct_box(state, 0.52)
        box = box_to_camera(cam, world)
        points = [(getattr(world, k), getattr(box, k)) for k in LANDMARKS]
        for (p, tp), (q, tq) in itertools.combinations(points, 2):
            assert abs(math.dist(p, q) - math.dist(tp, tq)) <= 1e-9
        for p, tp in points:
            back = camera_to_world(cam, tp)
            assert abs(back[0] - p[0]) <= 1e-9
            assert abs(back[1] - p[1]) <= 1e-9
        assert abs(normalize_angle(box.heading + cam.beta0
                                   - state.heading)) <= 1e-9
    _pass(3, "camera transform isometry and inverse")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_byte_identical_determinism(tmp_path):
    trace = synth_traffic(44, 500, 100, 3000.0)
    mix = (("ConnectedVehicle", 0.6), ("PoTVehicle", 0.15),
           ("SpamAttacker", 0.1), ("ReplayAttacker", 0.05),
           ("SilenceAttacker", 0.05), ("UnconnectedVehicle", 0.05))
    outputs = []
    for name, workers in (("r1", 1), ("r2", 1), ("r8", 8)):
        cfg = ScenarioConfig(seed=44, out_dir=str(tmp_path / name),
                             perception_radius=100.0, comm_range=150.0,
                             workers=workers, mix=mix)
        summary = run(cfg, trace=trace)
        assert summary.ticks_executed == 100
        outputs.append((_read(summary.metrics_path),
                        _read(summary.index_path)))
    assert outputs[0] == outputs[1], "same-seed reruns differ"
    assert outputs[0] == outputs[2], "worker count changed the results"
    _pass(4, "byte-identical determinism incl. workers 1 vs 8")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_metric_semantics(tmp_path):
    trace = synth_traffic(55, 30, 6, 300.0)

    cfg = ScenarioConfig(seed=55, out_dir=str(tmp_path / "unconnected"),
                         mix=(("UnconnectedVehicle", 1.0),))
    run(cfg, trace=trace)
    data = read_run(cfg.out_dir)
    assert all(mean == 0.0 for _, mean in avg_bandwidth(data))
    cells_seen = 0
    for line in data:
        heat = cpr(line, 100.0)
        assert all(ratio == 0.0 for ratio in heat.values())
        cells_seen += len(heat)
    assert cells_seen > 0  # some vehicles did perceive locally

    cfg2 = ScenarioConfig(seed=55, out_dir=str(tmp_path / "silent"),
                          mix=(("SilenceAttacker", 1.0),))
    run(cfg2, trace=trace)
    for line in read_run(cfg2.out_dir):
        for v in line["vehicles"]:
            assert v["bytes_sent"] == 0
    _pass(5, "all-unconnected CPR/bandwidth zero; all-silent bytes zero")


# -- 6 ----------------------------------------------------------------------

MIX_CU = (("ConnectedVehicle", 0.9), ("UnconnectedVehicle", 0.1))


def test_criterion_06_cooperative_perception_hand_stepped(tmp_path):
    # C sits at the origin; A tails it and perceives it; B tails A, with
    # C's plate fully hidden behind A's rectangle.  All distances well
    # inside communication range, so B learns C one tick after A's
    # broadcast, via the network only.
    cid = find_id("c", "UnconnectedVehicle", 6, MIX_CU)
    aid = find_id("a", "ConnectedVehicle", 6, MIX_CU)
    bid = find_id("b", "ConnectedVehicle", 6, MIX_CU)
    rows = [TraceTick(t, (VehicleState(cid, 0.0, 0.0, 0.0),
                          VehicleState(aid, -10.0, 0.0, 0.0),
                          VehicleState(bid, -20.0, 0.0, 0.0)))
            for t in range(3)]
    cfg = ScenarioConfig(seed=6, out_dir=str(tmp_path / "coop"), mix=MIX_CU)
    run(cfg, trace=rows)
    recs = {line["tick"]: {v["id"]: v for v in line["vehicles"]}
            for line in read_run(cfg.out_dir)}

    def expect(tick, vid, bytes_sent, local, received, total, x):
        assert recs[tick][vid] == {
            "id": vid, "bytes_sent": bytes_sent, "local_objects": local,
            "received_objects": received, "all_objects": total, "ttv": {},
            "errors": 0, "x": x, "y": 0.0}

    # hand-computed: one CPM with one object is 34 + 32 = 66 bytes
    expect(0, cid, 0, 0, 0, 0, 0.0)
    expect(0, aid, 66, 1, 0, 1, -10.0)   # perceives C, broadcasts
    expect(0, bid, 66, 1, 0, 1, -20.0)   # perceives A only (C occluded)
    expect(1, cid, 0, 0, 0, 0, 0.0)
    expect(1, aid, 66, 1, 0, 1, -10.0)   # hears only about itself
    expect(1, bid, 66, 1, 1, 2, -20.0)   # now knows C via A's message
    expect(2, cid, 0, 0, 0, 0, 0.0)
    expect(2, aid, 66, 1, 0, 1, -10.0)
    expect(2, bid, 66, 1, 1, 2, -20.0)   # sets deduplicate
    _pass(6, "occluded object learned via cooperative perception")


# -- 7 ----------------------------------------------------------------------

MIX_POT = (("PoTVehicle", 0.8), ("UnconnectedVehicle", 0.2))


def test_criterion_07_pot_time_to_verify_hand_stepped(tmp_path):
    # T (unconnected) is observed by provers P1 (from tick 0) and P2
    # (spawns at tick 1).  Verifier V sees T directly at tick 0 and holds
    # both proofs at tick 2 -> TTV 2.  P1 first saw T at 0 and verifies at
    # 2 (provers V, P2) -> TTV 2.  P2 first saw T at 1, verifies at 2
    # (provers P1, V) -> TTV 1.
    tid = find_id("t", "UnconnectedVehicle", 7, MIX_POT)
    p1 = find_id("p", "PoTVehicle", 7, MIX_POT)
    p2 = find_id("q", "PoTVehicle", 7, MIX_POT)
    vv = find_id("v", "PoTVehicle", 7, MIX_POT)

    def tick_states(t):
        states = [VehicleState(tid, 0.0, 0.0, 0.0),
                  VehicleState(p1, -10.0, 0.0, 0.0)]
        if t >= 1:
            states.append(VehicleState(p2, -10.0, 3.0, 0.0))
        states.append(VehicleState(vv, -20.0, -6.0, 0.0))
        return TraceTick(t, tuple(states))

    rows = [tick_states(t) for t in range(4)]
    cfg = ScenarioConfig(seed=7, out_dir=str(tmp_path / "pot"), mix=MIX_POT)
    run(cfg, trace=rows)
    data = read_run(cfg.out_dir)

    assert [line["tick"] for line in data] == [0, 1, 2, 3]
    assert ttv_distribution(data[0]) == {}
    assert ttv_distribution(data[1]) == {}
    assert ttv_distribution(data[2]) == {1: 1, 2: 2}
    assert ttv_distribution(data[3]) == {}

    per_vehicle = {v["id"]: v["ttv"]
                   for v in data[2]["vehicles"] if v["ttv"]}
    assert per_vehicle == {p1: {"2": 1}, p2: {"1": 1}, vv: {"2": 1}}
    _pass(7, "PoT time-to-verify histogram")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_performance_8000_vehicles(tmp_path):
    trace = synth_traffic(88, 8000, 60, 12000.0)
    cfg = ScenarioConfig(seed=88, out_dir=str(tmp_path / "perf"),
                         perception_radius=100.0, comm_range=100.0,
                         workers=1,
                         mix=(("ConnectedVehicle", 1.0),))
    start = time.perf_counter()
    summary = run(cfg, trace=trace)
    elapsed = time.perf_counter() - start
    assert summary.ticks_executed == 60
    per_tick = elapsed / 60.0
    print(f"\n  perf: {1000 * per_tick:.0f} ms/tick "
          f"({1e6 * per_tick / 8000:.1f} us/vehicle), single-threaded")
    assert per_tick <= 0.600, f"{1000 * per_tick:.0f} ms/tick exceeds 600 ms"
    _pass(8, "8000 vehicles within 600 ms/tick")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_index_correctness(tmp_path):
    trace = synth_traffic(99, 5, 1000, 500.0)
    cfg = ScenarioConfig(seed=99, out_dir=str(tmp_path / "idx"),
                         mix=(("ConnectedVehicle", 1.0),))
    summary = run(cfg, trace=trace)
    assert summary.ticks_executed == 1000
    by_scan = {obj["tick"]: obj for obj in read_run(cfg.out_dir)}
    with open(summary.index_path, "r", encoding="ascii") as f:
        index = read_index(f)
    assert len(index) == 1000
    with open(summary.metrics_path, "rb") as data:
        for tick in by_scan:
            assert seek_tick(index, data, tick) == by_scan[tick]
    _pass(9, "seek equals linear scan on a 1000-tick run")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_spam_attack_inflates_received(tmp_path):
    trace = synth_traffic(10, 40, 8, 400.0)
    attack_mix = (("ConnectedVehicle", 0.9), ("SpamAttacker", 0.1))

    base_cfg = ScenarioConfig(seed=10, out_dir=str(tmp_path / "base"),
                              mix=(("ConnectedVehicle", 1.0),))
    run(base_cfg, trace=trace)
    attack_cfg = ScenarioConfig(seed=10, out_dir=str(tmp_path / "attack"),
                                mix=attack_mix)
    run(attack_cfg, trace=trace)

    honest = {s.id for s in trace[0].states
              if assign_type(10, s.id, attack_mix) == "ConnectedVehicle"}
    attackers = {s.id for s in trace[0].states} - honest
    assert len(attackers) >= 2 and len(honest) >= 20  # sensible mix draw

    def honest_received(run_dir):
        final = read_run(run_dir)[-1]
        return sum(v["received_objects"] for v in final["vehicles"]
                   if v["id"] in honest)

    baseline = honest_received(base_cfg.out_dir)
    attacked = honest_received(attack_cfg.out_dir)
    assert attacked > baseline, (attacked, baseline)
    _pass(10, "spam attack strictly inflates received objects")

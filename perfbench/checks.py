"""Output checks computed apart from the program.

Every check compares a run's output with the benchmark's own knowledge of
its inputs (workloads.Truth) or with a property the method must have;
none compares with a stored copy.  check_run() returns the list of
failures (empty when the run is correct) and the counts the per-run
record needs.
"""

from __future__ import annotations

import json
import math
import os
import random

HEADER_BYTES = 34
OBJECT_BYTES = 32
ORACLE_SAMPLE = 16
CPR_CELL = 100.0  # the report's default cell size
SENDING_TYPES = ("ConnectedVehicle", "PoTVehicle")


def check_run(cavsim, truth, seed, run_dir, csv_dir):
    fails: list[str] = []
    config = cavsim.load_config(truth.config_path)
    types = config.vehicle_types()
    type_of = {}

    def vtype(vid):
        if vid not in type_of:
            type_of[vid] = cavsim.assign_type(config.seed, vid, config.mix)
        return type_of[vid]

    with open(os.path.join(run_dir, "metrics.jsonl"), "rb") as f:
        data = f.read()
    lines = data.splitlines(keepends=True)
    ticks = [json.loads(line) for line in lines]

    _check_index(run_dir, lines, fails)
    if len(ticks) != len(truth.ticks):
        fails.append(f"{len(ticks)} metrics lines for {len(truth.ticks)} "
                     f"trace ticks")

    spam_bytes = HEADER_BYTES + OBJECT_BYTES * int(
        types["SpamAttacker"].params["spam_tx"]["k"])
    failed_records = 0
    vehicle_ticks = 0
    last_seen: dict[str, tuple] = {}  # id -> (tick, local, received, all)
    bandwidth = []
    ttv_total: dict[int, int] = {}
    for i, (entry, states) in enumerate(zip(ticks, truth.ticks)):
        if entry["tick"] != i:
            fails.append(f"line {i} holds tick {entry['tick']}")
            break
        records = entry["vehicles"]
        vehicle_ticks += len(records)
        expected = sorted(states)
        if [r["id"] for r in records] != [s[0] for s in expected]:
            fails.append(f"tick {i}: vehicles differ from the trace")
            break
        for r, s in zip(records, expected):
            if (r["x"], r["y"]) != (s[1], s[2]):
                fails.append(f"tick {i} {r['id']}: position "
                             f"({r['x']}, {r['y']}) is not the trace's")
            if r["errors"]:
                failed_records += 1
            loc, rec, tot = (r["local_objects"], r["received_objects"],
                             r["all_objects"])
            if not max(loc, rec) <= tot <= loc + rec:
                fails.append(f"tick {i} {r['id']}: object counts "
                             f"{loc}/{rec}/{tot} are inconsistent")
            prev = last_seen.get(r["id"])
            if prev is not None and prev[0] == i - 1 and (
                    loc < prev[1] or rec < prev[2] or tot < prev[3]):
                fails.append(f"tick {i} {r['id']}: an object count fell "
                             f"within one life")
            last_seen[r["id"]] = (i, loc, rec, tot)
            if (vtype(r["id"]) == "SpamAttacker"
                    and r["bytes_sent"] != spam_bytes):
                fails.append(f"tick {i} {r['id']}: spam bytes_sent "
                             f"{r['bytes_sent']} != {spam_bytes}")
            for delay, count in r["ttv"].items():
                if int(delay) < 0:
                    fails.append(f"tick {i} {r['id']}: negative ttv delay")
                ttv_total[int(delay)] = ttv_total.get(int(delay), 0) + count
        sent = sum(r["bytes_sent"] for r in records)
        bandwidth.append((i, sent / len(records) if records else 0.0))
    if failed_records:
        fails.append(f"{failed_records} records with errors > 0")
    if "PoTVehicle" in dict(config.mix) and not ttv_total:
        fails.append("no TTV events although the mix has PoTVehicle")

    perceptions = _check_oracle(cavsim, config, types, vtype, truth, ticks,
                                  seed, fails)
    if ticks:
        _check_reports(csv_dir, bandwidth, ttv_total,
                       _cpr(ticks[-1]["vehicles"]), fails)
    return fails, {"vehicle_ticks": vehicle_ticks,
                   "failed_records": failed_records,
                   "ttv_events": sum(ttv_total.values()),
                   "oracle_perceptions": perceptions}


def _check_index(run_dir, lines, fails):
    with open(os.path.join(run_dir, "metrics.idx"), encoding="ascii") as f:
        entries = [tuple(int(v) for v in line.split()) for line in f]
    if len(entries) != len(lines):
        fails.append(f"{len(entries)} index entries for {len(lines)} lines")
    offset = 0
    for i, (entry, line) in enumerate(zip(entries, lines)):
        if entry != (json.loads(line)["tick"], offset, len(line)):
            fails.append(f"index entry {i} {entry} does not point to its line")
            return
        offset += len(line)


def oracle_perceive(cavsim, ego, states, cfg, radius):
    """Plates the ego's camera sees: neighbours by a full scan (no grid),
    occlusion by the quadratic reference filter."""
    p = cavsim.perception
    cam = p.CameraPose(ego.x, ego.y, ego.heading)
    r2 = radius * radius
    views = []
    for s in states:
        if s.id == ego.id:
            continue
        dx = s.x - ego.x
        dy = s.y - ego.y
        if dx * dx + dy * dy > r2:
            continue
        box = p.box_to_camera(cam, p.reconstruct_box(s, cfg.plate_width))
        if not p.fov_relevant(box.corners, cfg):
            continue
        try:
            views.append(p.projection_angles(p.normalize_heading(box), s.id))
        except cavsim.GeometryError:
            continue
    views.sort(key=lambda v: (v.dist_g, v.vehicle_id))
    return [v.vehicle_id for v in p.get_visible_lines_naive(views)
            if p.heading_visible(v.heading, cfg)]


def _check_oracle(cavsim, config, types, vtype, truth, ticks, seed, fails):
    """Returns how many (vehicle, tick, plate) perceptions it verified."""
    eligible = sorted({s[0] for states in truth.ticks for s in states
                       if {"camera", "object_store"}
                       <= set(types[vtype(s[0])].graph.nodes)})
    rng = random.Random(f"perfbench-oracle:{seed}")
    sample = set(rng.sample(eligible, min(ORACLE_SAMPLE, len(eligible))))
    seen: dict[str, set] = {}
    last: dict[str, int] = {}
    perceptions = 0
    VehicleState = cavsim.VehicleState
    for i, (entry, states) in enumerate(zip(ticks, truth.ticks)):
        present = [VehicleState(*s) for s in states]
        by_id = {s.id: s for s in present}
        records = {r["id"]: r for r in entry["vehicles"]}
        for vid in sorted(sample & by_id.keys()):
            if last.get(vid) != i - 1:
                seen[vid] = set()  # a new life starts
            last[vid] = i
            plates = oracle_perceive(cavsim, by_id[vid], present,
                                     config.perception,
                                     config.perception_radius)
            seen[vid].update(plates)
            perceptions += len(plates)
            r = records[vid]
            if r["local_objects"] != len(seen[vid]):
                fails.append(f"tick {i} {vid}: local_objects "
                             f"{r['local_objects']}, oracle {len(seen[vid])}")
            if vtype(vid) in SENDING_TYPES:
                want = (HEADER_BYTES + OBJECT_BYTES * len(plates)
                        if plates else 0)
                if r["bytes_sent"] != want:
                    fails.append(f"tick {i} {vid}: bytes_sent "
                                 f"{r['bytes_sent']}, oracle {want}")
    return perceptions


def _cpr(records):
    remote: dict[tuple, int] = {}
    local: dict[tuple, int] = {}
    inv = 1.0 / CPR_CELL
    for v in records:
        key = (math.floor(v["x"] * inv), math.floor(v["y"] * inv))
        remote[key] = (remote.get(key, 0)
                       + v["all_objects"] - v["local_objects"])
        local[key] = local.get(key, 0) + v["local_objects"]
    return {k: remote[k] / local[k] for k in local if local[k] > 0}


def _read_csv(csv_dir, kind):
    with open(os.path.join(csv_dir, f"{kind}.csv"), encoding="ascii") as f:
        rows = [line.rstrip("\n").split(",") for line in f]
    return rows[0], rows[1:]


def _check_reports(csv_dir, bandwidth, ttv_total, cpr, fails):
    header, rows = _read_csv(csv_dir, "bandwidth")
    got = [(int(t), float(v)) for t, v in rows]
    if header != ["tick", "avg_bytes_sent"] or got != bandwidth:
        fails.append("bandwidth report differs from the benchmark's "
                     "own aggregation")
    header, rows = _read_csv(csv_dir, "ttv")
    got = {int(d): int(c) for d, c in rows}
    if header != ["delay", "count"] or got != ttv_total:
        fails.append("ttv report differs from the benchmark's own "
                     "aggregation")
    header, rows = _read_csv(csv_dir, "cpr")
    got = {(int(x), int(y)): float(r) for x, y, r in rows}
    if header != ["cell_x", "cell_y", "ratio"] or got != cpr:
        fails.append("cpr report differs from the benchmark's own "
                     "aggregation")

"""Seeded input generators for the benchmark workloads.

Everything here is stdlib-only and independent of cavsim: the benchmark
writes the trace and config files itself, so a change to the program's own
synthetic-traffic helper can never change what the benchmark measures.
The generator also keeps the ground truth (every vehicle's pose at every
tick) that the output checks compare against.

Traffic model: each vehicle drives an axis-aligned lane at constant speed
and wraps around the square [0, area)^2, like the ROADMAP's synth_traffic
scenarios.  Cell size, perception radius and comm range are all 100 m.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

RADIUS = 100.0

# (length, width) footprints drawn per vehicle: cars, vans, a truck
FOOTPRINTS = ((4.2, 1.7), (4.8, 1.8), (5.0, 1.8), (5.5, 2.0), (7.5, 2.2),
              (12.0, 2.5))

ALL_TYPES = ("ConnectedVehicle", "PoTVehicle", "UnconnectedVehicle",
             "SilenceAttacker", "ReplayAttacker", "SpamAttacker",
             "DummyVehicle")
MIXED_WEIGHTS = (0.40, 0.20, 0.10, 0.08, 0.08, 0.07, 0.07)
SPAM_K = 3
# The scenario seed fixes each vehicle id's type draw (and the attackers'
# RNG).  It is the same in every run, so every run has the same fleet: with
# the seed varying, the share of each type would move the work per tick by
# several percent from run to run.  --seed varies everything else.
SCENARIO_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    vehicles: int
    area: float          # side of the square, metres
    ticks: int           # trace length: ticks per run()
    setup_reps: int      # set-up calls per round
    report_reps: int     # repetitions of the three reports per round
    fmt: str             # "csv" or "fcd"
    workers: int
    churn: bool          # vehicles leave the trace and come back
    mix: tuple[tuple[str, float], ...]
    spam_k: int | None = None


WORKLOADS = {
    # ~1.7 neighbours per ego: the ROADMAP's 8000 vehicles on 12 km, scaled
    "sparse": Workload("sparse", 2000, 6000.0, 24, 2, 2, "csv", 1, False,
                       (("ConnectedVehicle", 1.0),)),
    # ~27 neighbours per ego: the ROADMAP's 8000 vehicles on 3 km, scaled
    "dense": Workload("dense", 450, 690.0, 10, 6, 6, "csv", 1, False,
                      (("ConnectedVehicle", 1.0),)),
    "mixed_churn": Workload("mixed_churn", 700, 1400.0, 24, 3, 3, "fcd", 2,
                            True, tuple(zip(ALL_TYPES, MIXED_WEIGHTS)),
                            SPAM_K),
}


@dataclass(frozen=True)
class Truth:
    """What the benchmark knows about its own inputs."""

    ticks: list  # per tick: [(id, x, y, heading, length, width), ...]
    rows: int    # vehicle rows in the trace file
    config_path: str


def normalize_angle(a: float) -> float:
    """Radians into (-pi, pi], the documented trace convention."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


def _lanes(rng: random.Random, w: Workload):
    # Lane offsets and start positions are stratified (one vehicle per
    # stratum, jittered within it) so the density, and with it the work per
    # tick, varies little from seed to seed.
    lanes = []
    per_axis = (w.vehicles + 1) // 2
    starts = list(range(w.vehicles))
    rng.shuffle(starts)
    for i in range(w.vehicles):
        horizontal = i % 2 == 0
        forward = rng.random() < 0.5
        fixed = (i // 2 + rng.random()) * w.area / per_axis
        start = (starts[i] + rng.random()) * w.area / w.vehicles
        speed = rng.uniform(5.0, 15.0)
        length, width = rng.choice(FOOTPRINTS)
        if w.churn:
            on = rng.randint(4, 9)
            off = rng.randint(1, 3)
            phase = rng.randrange(on + off)
        else:
            on, off, phase = 1, 0, 0
        lanes.append((f"v{i:05d}", horizontal, forward, fixed, start, speed,
                      length, width, on, off, phase))
    return lanes


def _pose(lane, area, t):
    _, horizontal, forward, fixed, start, speed = lane[:6]
    offset = (start + (1.0 if forward else -1.0) * speed * t) % area
    return (offset, fixed) if horizontal else (fixed, offset)


def _present(lane, t):
    on, off, phase = lane[8:11]
    return (t + phase) % (on + off) < on


def _fcd_angle(lane) -> float:
    """Degrees clockwise from north for the lane's direction of travel."""
    horizontal, forward = lane[1], lane[2]
    if horizontal:
        return 90.0 if forward else 270.0
    return 0.0 if forward else 180.0


def _heading(lane, fmt) -> float:
    if fmt == "fcd":
        # the documented ingest conversion of FCD angles
        return normalize_angle(math.radians(90.0 - _fcd_angle(lane)))
    horizontal, forward = lane[1], lane[2]
    if horizontal:
        return 0.0 if forward else math.pi
    return 0.5 * math.pi if forward else -0.5 * math.pi


def generate(w: Workload, seed: int, directory: str) -> Truth:
    """Write the trace and config of one workload and return the truth."""
    rng = random.Random(f"perfbench:{w.name}:{seed}")
    lanes = _lanes(rng, w)
    ticks = []
    for t in range(w.ticks):
        states = []
        for lane in lanes:
            if _present(lane, t):
                x, y = _pose(lane, w.area, t)
                states.append((lane[0], x, y, _heading(lane, w.fmt),
                               lane[6], lane[7]))
        ticks.append(states)

    os.makedirs(directory, exist_ok=True)
    if w.fmt == "csv":
        trace_path = os.path.join(directory, "trace.csv")
        rows = _write_csv(trace_path, ticks)
    else:
        trace_path = os.path.join(directory, "trace.xml")
        rows = _write_fcd(trace_path, lanes, w)
    config_path = os.path.join(directory, "scenario.ini")
    _write_config(config_path, w, trace_path)
    return Truth(ticks, rows, config_path)


def _write_csv(path, ticks) -> int:
    rows = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write("tick,id,x,y,heading,length,width\n")
        for t, states in enumerate(ticks):
            for vid, x, y, heading, length, width in states:
                f.write(f"{t},{vid},{x!r},{y!r},{heading!r},{length!r},"
                        f"{width!r}\n")
                rows += 1
    return rows


def _write_fcd(path, lanes, w: Workload) -> int:
    """FCD XML with two timesteps per second; the program keeps the first."""
    rows = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write('<?xml version="1.0" encoding="UTF-8"?>\n<fcd-export>\n')
        for t in range(w.ticks):
            for half in (0.0, 0.5):
                f.write(f'  <timestep time="{t + half:.2f}">\n')
                for lane in lanes:
                    if not _present(lane, t):
                        continue
                    x, y = _pose(lane, w.area, t + half)
                    f.write(f'    <vehicle id="{lane[0]}" x="{x!r}" y="{y!r}" '
                            f'angle="{_fcd_angle(lane)!r}" '
                            f'length="{lane[6]!r}" width="{lane[7]!r}"/>\n')
                    rows += 1
                f.write("  </timestep>\n")
        f.write("</fcd-export>\n")
    return rows


def _write_config(path, w: Workload, trace_path) -> None:
    lines = ["[scenario]",
             f"seed = {SCENARIO_SEED}",
             f"trace = {trace_path}",
             f"cell_size = {RADIUS}",
             f"perception_radius = {RADIUS}",
             f"comm_range = {RADIUS}",
             f"workers = {w.workers}",
             "",
             "[mix]"]
    lines += [f"{name} = {weight}" for name, weight in w.mix]
    if w.spam_k is not None:
        lines += ["", "[vehicle_type.SpamAttacker]", f"spam_tx.k = {w.spam_k}"]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

"""Top-level simulation lifecycle and reporting.

Each tick runs fixed phases: (1) update states from the trace, spawning
new vehicles with a seed-hashed type draw and despawning absent ones;
(2) rebuild the spatial index and sweep it once for every vehicle's
neighbors within perception and communication range; (3) deliver the
network inboxes queued last tick (recipients are the sender's neighbors
within comm range in last tick's sweep); (4) compute perception, then run
every vehicle's module DAG; (5) seal the tick's broadcasts; (6) write
metrics and phase timings.  Every phase runs in the
calling thread, and all outputs are a pure function of (seed, config,
trace).  The `workers` setting is validated but has no effect.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import IO

from .errors import ConfigError, NotFoundError
from .identity import MatchTable, PlateRegistry
from .metrics import (INDEX_FILE, METRICS_FILE, MetricsWriter, avg_bandwidth,
                      cpr, load_run, ttv_distribution, ttv_distribution_total)
from .network import NetworkSim
from .perception import PerceptionConfig, perceive
from .sandbox import (SandboxContext, Vehicle, VehicleTypeSpec, FlowGraph,
                      build_vehicle, builtin_vehicle_types, tick_vehicle)
# get_nearby_vehicles and query_radius stay importable here: the traced
# benchmark run (perfbench/tracer.py) wraps them by name on this module
from .spatial import (get_nearby_vehicles, query_radius,  # noqa: F401
                      rebuild, sweep_neighbors)
from .trace import DEFAULT_LENGTH, DEFAULT_WIDTH, TraceTick, load_trace

TIMINGS_FILE = "timings.csv"
TIMING_COLUMNS = ("tick", "position_rebuild", "perception", "agent_ticks",
                  "network_step", "metrics_write")

REPORT_KINDS = ("bandwidth", "ttv", "cpr", "timing")


@dataclass(slots=True)
class PhaseTimings:
    """Wall-clock durations (seconds) of the five phases of one tick."""

    tick: int
    position_rebuild: float
    perception: float
    agent_ticks: float
    network_step: float
    metrics_write: float


@dataclass
class ScenarioConfig:
    seed: int = 0
    tick_range: tuple[int, int] | None = None  # half-open [start, stop)
    trace_path: str | None = None
    trace_format: str | None = None
    out_dir: str = "run"
    cell_size: float = 300.0
    perception_radius: float = 100.0
    comm_range: float = 300.0
    workers: int = 1
    default_length: float = DEFAULT_LENGTH
    default_width: float = DEFAULT_WIDTH
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    mix: tuple[tuple[str, float], ...] = (("ConnectedVehicle", 1.0),)
    extra_types: dict[str, VehicleTypeSpec] = field(default_factory=dict)

    def validate(self) -> None:
        if self.cell_size <= 0:
            raise ConfigError("cell_size must be positive")
        if self.perception_radius > self.cell_size:
            raise ConfigError("perception_radius must not exceed cell_size")
        if self.comm_range > self.cell_size:
            raise ConfigError("comm_range must not exceed cell_size")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.tick_range is not None and self.tick_range[0] >= self.tick_range[1]:
            raise ConfigError("tick range is empty")
        if not self.mix:
            raise ConfigError("vehicle mix is empty")
        types = self.vehicle_types()
        for name, weight in self.mix:
            if name not in types:
                raise ConfigError(f"mix references unknown vehicle type {name!r}")
            if not (weight > 0 and math.isfinite(weight)):
                raise ConfigError(f"mix weight for {name!r} must be positive "
                                  f"and finite")
            try:  # unknown or malformed module parameters fail here
                build_vehicle(types[name], name, None)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"vehicle type {name!r}: {exc}") from None

    def vehicle_types(self) -> dict[str, VehicleTypeSpec]:
        types = builtin_vehicle_types()
        types.update(self.extra_types)
        return types


@dataclass(slots=True)
class RunSummary:
    ticks_executed: int
    vehicles_seen: int
    out_dir: str
    metrics_path: str
    index_path: str
    timings_path: str


def assign_type(seed: int, vehicle_id: str,
                mix: tuple[tuple[str, float], ...]) -> str:
    """Stable type draw from a seeded hash of (seed, vehicle id).

    Independent of spawn order and worker count: the same vehicle id gets
    the same type in every run with the same seed.
    """
    digest = hashlib.sha256(f"{seed}:{vehicle_id}".encode()).digest()
    u = int.from_bytes(digest[:8], "little") / 2.0 ** 64
    total = sum(w for _, w in mix)
    threshold = u * total
    acc = 0.0
    for name, weight in mix:
        acc += weight
        if threshold < acc:
            return name
    return mix[-1][0]


def run(config: ScenarioConfig,
        trace: list[TraceTick] | None = None) -> RunSummary:
    """Execute a scenario and write metrics into config.out_dir."""
    config.validate()
    if trace is None:
        if config.trace_path is None:
            raise ConfigError("no trace given (config trace path is empty)")
        trace = load_trace(config.trace_path, config.trace_format,
                           default_length=config.default_length,
                           default_width=config.default_width)
    if config.tick_range is not None:
        lo, hi = config.tick_range
        trace = [tt for tt in trace if lo <= tt.tick < hi]

    types = config.vehicle_types()
    registry = PlateRegistry()
    net = NetworkSim(config.comm_range, registry)
    pcfg = config.perception
    vehicles: dict[str, Vehicle] = {}
    seen: set[str] = set()
    station_counter = 1
    # last tick's match table and comm-range neighbor map: every delivery
    # due now was sealed last tick, from last tick's positions
    prev_match = MatchTable({})
    prev_comm: dict[str, list] = {}

    def locate(delivery):
        out = []
        for s in prev_comm[prev_match.plate_of(delivery.origin)]:
            station = prev_match.station_of(s.id)
            if station is not None:
                out.append(station)
        return out

    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    writer = MetricsWriter(out_dir)
    timings: list[PhaseTimings] = []
    perf = time.perf_counter

    try:
        for tt in trace:
            tick = tt.tick

            t0 = perf()
            alive = {s.id for s in tt.states}
            for plate in [p for p in vehicles if p not in alive]:
                del vehicles[plate]
            for s in tt.states:
                if s.id not in vehicles:
                    spec = types[assign_type(config.seed, s.id, config.mix)]
                    station = None
                    if spec.connected:
                        station = station_counter
                        station_counter += 1
                    registry.intern(s.id)
                    vehicles[s.id] = build_vehicle(spec, s.id, station)
                    seen.add(s.id)
            grid = rebuild(tt.states, config.cell_size)
            states = grid.states
            near, comm = sweep_neighbors(grid, config.perception_radius,
                                         config.comm_range)
            match = MatchTable({p: v.station for p, v in vehicles.items()})
            net.update_positions({v.station: (states[p].x, states[p].y)
                                  for p, v in vehicles.items()
                                  if v.station is not None})
            t1 = perf()

            inboxes = net.step(tick, locate)
            t2 = perf()

            order = sorted(vehicles)
            percepts: dict[str, tuple] = {}
            for plate in order:
                if vehicles[plate].uses_camera:
                    percepts[plate] = perceive(states[plate], near[plate],
                                               pcfg, tick)
            t3 = perf()

            records = []
            for plate in order:
                v = vehicles[plate]
                ctx = SandboxContext(tick, plate, v.station, states[plate],
                                     percepts.get(plate, ()), net, match,
                                     config.comm_range, config.seed)
                inbox = inboxes.get(v.station, ()) if v.station is not None else ()
                records.append(tick_vehicle(v, inbox, ctx)[1])
            t4 = perf()

            net.seal()
            t5 = perf()

            writer.record_tick(tick, records)
            t6 = perf()

            timings.append(PhaseTimings(tick, t1 - t0, t3 - t2, t4 - t3,
                                        (t2 - t1) + (t5 - t4), t6 - t5))
            prev_match = match
            prev_comm = comm
    finally:
        writer.close()

    timings_path = os.path.join(out_dir, TIMINGS_FILE)
    with open(timings_path, "w", encoding="ascii") as f:
        f.write(",".join(TIMING_COLUMNS) + "\n")
        for t in timings:
            f.write(f"{t.tick},{t.position_rebuild:.6f},{t.perception:.6f},"
                    f"{t.agent_ticks:.6f},{t.network_step:.6f},"
                    f"{t.metrics_write:.6f}\n")

    return RunSummary(len(timings), len(seen), out_dir,
                      os.path.join(out_dir, METRICS_FILE),
                      os.path.join(out_dir, INDEX_FILE), timings_path)


# ---------------------------------------------------------------------------
# Reports

def report(run_dir: str, kind: str, out: IO[str], tick: int | None = None,
           cell_size: float = 100.0) -> None:
    """Write one aggregation as CSV with a documented header."""
    if kind not in REPORT_KINDS:
        raise ConfigError(f"unknown report kind {kind!r}")
    if kind == "timing":
        path = os.path.join(run_dir, TIMINGS_FILE)
        if not os.path.exists(path):
            raise NotFoundError(f"no timings file in {run_dir!r}")
        with open(path, "r", encoding="ascii") as f:
            for line in f:
                out.write(line)
        return

    run_data = load_run(run_dir)
    if kind == "bandwidth":
        out.write("tick,avg_bytes_sent\n")
        for t, mean in avg_bandwidth(run_data):
            out.write(f"{t},{mean!r}\n")
    elif kind == "ttv":
        hist = (ttv_distribution(run_data, tick) if tick is not None
                else ttv_distribution_total(run_data))
        out.write("delay,count\n")
        for delay in sorted(hist):
            out.write(f"{delay},{hist[delay]}\n")
    else:  # cpr
        if tick is None:
            if not run_data:
                raise NotFoundError("run has no ticks")
            tick = run_data[-1]["tick"]
        heat = cpr(run_data, tick, cell_size)
        out.write("cell_x,cell_y,ratio\n")
        for key in sorted(heat):
            out.write(f"{key[0]},{key[1]},{heat[key]!r}\n")


# ---------------------------------------------------------------------------
# Config files

def _parse_value(raw: str):
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _parse_edges(raw: str) -> dict[str, tuple[str, ...]]:
    edges: dict[str, tuple[str, ...]] = {}
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        if "->" not in line:
            raise ConfigError(f"bad edge line {line!r} (want 'src -> dst ...')")
        src, _, rest = line.partition("->")
        src = src.strip()
        dsts = tuple(rest.replace(",", " ").split())
        if not src or not dsts:
            raise ConfigError(f"bad edge line {line!r}")
        edges[src] = edges.get(src, ()) + dsts
    return edges


def _names_list(raw: str) -> tuple[str, ...]:
    return tuple(raw.replace(",", " ").split())


def _parse_vehicle_type(name: str, section,
                        builtin: dict[str, VehicleTypeSpec]) -> VehicleTypeSpec:
    params: dict[str, dict] = {}
    plain = {}
    for key, value in section.items():
        if "." in key:
            module, _, pname = key.partition(".")
            params.setdefault(module, {})[pname] = _parse_value(value)
        else:
            plain[key] = value
    if "modules" not in plain:
        base = builtin.get(name)
        if base is None:
            raise ConfigError(
                f"vehicle type {name!r} gives no modules and is not built in")
        merged = {m: dict(p) for m, p in base.params.items()}
        for module, p in params.items():
            merged.setdefault(module, {}).update(p)
        connected = plain.get("connected")
        return replace(base, params=merged,
                       connected=(_parse_value(connected) if connected is not None
                                  else base.connected))
    modules = _names_list(plain["modules"])
    edges = _parse_edges(plain.get("edges", ""))
    entry = _names_list(plain.get("entry", ""))
    connected = bool(_parse_value(plain.get("connected", "true")))
    return VehicleTypeSpec(name, FlowGraph(modules, edges), entry,
                           connected, params)


def _number(section, convert, key: str, default):
    """section[key] converted by int or float, or default when absent."""
    raw = section.get(key)
    if raw is None:
        return default
    try:
        value = convert(raw)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not "
                          f"a finite number")
    return value


def parse_config(stream: IO[str]) -> ScenarioConfig:
    """Parse the INI-style scenario config.

    Sections: [scenario] top-level keys, [perception] camera settings,
    [mix] type-name = weight, and one [vehicle_type.NAME] per custom type
    (keys: modules, edges, entry, connected, plus module.param entries).
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep case of type and module names
    try:
        parser.read_file(stream)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from exc

    cfg = ScenarioConfig()
    if parser.has_section("scenario"):
        s = parser["scenario"]
        cfg.seed = _number(s, int, "seed", cfg.seed)
        cfg.out_dir = s.get("out", cfg.out_dir)
        cfg.trace_path = s.get("trace", cfg.trace_path)
        cfg.trace_format = s.get("trace_format", cfg.trace_format)
        cfg.cell_size = _number(s, float, "cell_size", cfg.cell_size)
        cfg.perception_radius = _number(s, float, "perception_radius",
                                        cfg.perception_radius)
        cfg.comm_range = _number(s, float, "comm_range", cfg.comm_range)
        cfg.workers = _number(s, int, "workers", cfg.workers)
        cfg.default_length = _number(s, float, "default_length",
                                     cfg.default_length)
        cfg.default_width = _number(s, float, "default_width",
                                    cfg.default_width)
        ticks = s.get("ticks", None)
        if ticks:
            cfg.tick_range = parse_tick_range(ticks)

    if parser.has_section("perception"):
        p = parser["perception"]
        base = PerceptionConfig()
        cfg.perception = PerceptionConfig(
            fov_half_angle=math.radians(_number(
                p, float, "fov_half_angle_deg",
                math.degrees(base.fov_half_angle))),
            max_range=_number(p, float, "max_range", base.max_range),
            max_plate_angle=math.radians(_number(
                p, float, "max_plate_angle_deg",
                math.degrees(base.max_plate_angle))),
            plate_width=_number(p, float, "plate_width", base.plate_width))

    builtin = builtin_vehicle_types()
    for section in parser.sections():
        if section.startswith("vehicle_type."):
            name = section[len("vehicle_type."):]
            cfg.extra_types[name] = _parse_vehicle_type(
                name, parser[section], builtin)

    if parser.has_section("mix"):
        mix = []
        for name, raw in parser["mix"].items():
            try:
                weight = float(raw)
            except ValueError:
                raise ConfigError(f"mix weight for {name!r} is not a number")
            mix.append((name, weight))
        cfg.mix = tuple(mix)

    return cfg


def parse_tick_range(raw: str) -> tuple[int, int]:
    """Parse 'A:B' into the half-open range [A, B)."""
    lo, sep, hi = raw.partition(":")
    if not sep:
        raise ConfigError(f"bad tick range {raw!r} (want A:B)")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise ConfigError(f"bad tick range {raw!r}") from None


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f)

"""Top-level simulation lifecycle and reporting.

Each tick runs fixed phases: (1) deliver the network inboxes queued last
tick (recipients are the sender's neighbors within comm range in last
tick's sweep, which is then dropped); (2) rebuild the spatial index from
the trace, despawning vehicles absent from it and spawning new ones with
a seed-hashed type draw, and sweep the index once for every vehicle's
neighbors within perception and communication range; (3) compute
perception, then run every vehicle's module DAG; (4) seal the tick's
broadcasts; (5) write metrics and phase timings.  Every phase runs in
the calling thread, and all outputs are a pure function of (seed,
config, trace).  The `workers` setting is validated but has no effect.

A run reads its trace once, tick by tick: from a trace file it holds one
tick of the trace at a time.  Besides that it holds each vehicle's
module state and one tick's structures (index, sweep maps, percepts,
inboxes, records), which are freed as the tick ends; a tick's metrics
line is written in chunks.  It writes into a fresh staging directory
next to the output directory and moves the three output files into place
only when every tick has run, so a run that fails (a malformed trace row
found mid-run, an interrupt) leaves the output directory as it was.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Iterator

from .errors import ConfigError, NotFoundError
from .identity import MatchTable, PlateRegistry
from .metrics import (INDEX_FILE, METRICS_FILE, MetricsWriter, avg_bandwidth,
                      check_cell_size, cpr, iter_ticks, load_run,
                      open_run_file, run_index, ttv_distribution,
                      ttv_distribution_total)
from .network import NetworkSim
from .perception import PerceptionConfig, perceive
from .sandbox import (SandboxContext, Vehicle, VehicleTypeSpec, FlowGraph,
                      build_vehicle, builtin_vehicle_types, tick_vehicle)
# get_nearby_vehicles and query_radius stay importable here: the traced
# benchmark run (perfbench/tracer.py) wraps them by name on this module
from .spatial import (get_nearby_vehicles, query_radius,  # noqa: F401
                      rebuild, sweep_neighbors)
from .trace import DEFAULT_LENGTH, DEFAULT_WIDTH, TraceTick, iter_trace

TIMINGS_FILE = "timings.csv"
TIMING_COLUMNS = ("tick", "position_rebuild", "perception", "agent_ticks",
                  "network_step", "metrics_write")

REPORT_KINDS = ("bandwidth", "ttv", "cpr", "timing")


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
        if not self.perception_radius >= 0.0:
            raise ConfigError("perception_radius must be >= 0")
        if self.perception_radius > self.cell_size:
            raise ConfigError("perception_radius must not exceed cell_size")
        if self.perception.max_range > self.perception_radius:
            raise ConfigError("perception max_range must not exceed "
                              "perception_radius")
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


def _ticks_in(trace: Iterable[TraceTick], lo: int,
              hi: int) -> Iterator[TraceTick]:
    """The ticks in [lo, hi).  Ticks strictly increase, so reading stops
    at the first tick >= hi."""
    for tt in trace:
        if tt.tick >= hi:
            return
        if tt.tick >= lo:
            yield tt


def run(config: ScenarioConfig,
        trace: Iterable[TraceTick] | None = None) -> RunSummary:
    """Execute a scenario and write metrics into config.out_dir.

    `trace` (default: the config's trace file, streamed) is iterated once,
    lazily.  The output goes to a staging directory next to out_dir
    (missing parent directories are created first).  On success out_dir
    is created if needed and its metrics.jsonl, metrics.idx and
    timings.csv are replaced; other files in it are left alone.  On any
    exception, KeyboardInterrupt included, the staging directory is
    removed and out_dir is not created or touched.
    """
    config.validate()
    source = None
    if trace is None:
        if config.trace_path is None:
            raise ConfigError("no trace given (config trace path is empty)")
        trace = source = iter_trace(config.trace_path, config.trace_format,
                                    default_length=config.default_length,
                                    default_width=config.default_width)
    if config.tick_range is not None:
        trace = _ticks_in(trace, *config.tick_range)

    out_dir = config.out_dir
    # the staging directory shares out_dir's file system, so the moves
    # into out_dir are renames
    target = os.path.realpath(out_dir)
    parent = os.path.dirname(target)
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=f".{os.path.basename(target)}.",
                             dir=parent)
    try:
        ticks, seen = _run_ticks(config, trace, stage)
        os.makedirs(out_dir, exist_ok=True)
        for name in (METRICS_FILE, INDEX_FILE, TIMINGS_FILE):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if source is not None:
            source.close()

    return RunSummary(ticks, seen, out_dir,
                      os.path.join(out_dir, METRICS_FILE),
                      os.path.join(out_dir, INDEX_FILE),
                      os.path.join(out_dir, TIMINGS_FILE))


def _run_ticks(config: ScenarioConfig, trace: Iterable[TraceTick],
               out_dir: str) -> tuple[int, int]:
    """The tick loop; writes the three output files into out_dir and
    returns (ticks executed, vehicles seen)."""
    types = config.vehicle_types()
    registry = PlateRegistry()
    net = NetworkSim(config.comm_range, registry)
    pcfg = config.perception
    vehicles: dict[str, Vehicle] = {}
    seen: set[str] = set()
    stations = itertools.count(1)
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

    perf = time.perf_counter

    def run_tick(tt: TraceTick) -> None:
        """One tick.  Its grid, sweep maps, percepts, inboxes and records
        are locals, freed when it returns; only the match table and comm
        map outlive it, until the next tick's delivery."""
        nonlocal prev_match, prev_comm
        tick = tt.tick

        t0 = perf()
        inboxes = net.step(tick, locate)
        prev_match = prev_comm = None  # delivered: done with last tick's
        t1 = perf()

        grid = rebuild(tt.states, config.cell_size)
        states = grid.states
        for plate in [p for p in vehicles if p not in states]:
            del vehicles[plate]
        for s in tt.states:
            if s.id not in vehicles:
                spec = types[assign_type(config.seed, s.id, config.mix)]
                station = next(stations) if spec.connected else None
                registry.intern(s.id)
                vehicles[s.id] = build_vehicle(spec, s.id, station)
                seen.add(s.id)
        near, comm = sweep_neighbors(grid, config.perception_radius,
                                     config.comm_range)
        match = MatchTable({p: v.station for p, v in vehicles.items()})
        net.update_positions({v.station: (states[p].x, states[p].y)
                              for p, v in vehicles.items()
                              if v.station is not None})
        t2 = perf()

        order = sorted(vehicles)
        percepts: dict[str, tuple] = {}  # only the non-empty ones
        for plate in order:
            if vehicles[plate].uses_camera:
                objs = perceive(states[plate], near[plate], pcfg, tick)
                if objs:
                    percepts[plate] = objs
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

        timings.write(f"{tick},{t2 - t1:.6f},{t3 - t2:.6f},"
                      f"{t4 - t3:.6f},{(t1 - t0) + (t5 - t4):.6f},"
                      f"{t6 - t5:.6f}\n")
        prev_match = match
        prev_comm = comm

    ticks = 0
    with MetricsWriter(out_dir) as writer, \
            open(os.path.join(out_dir, TIMINGS_FILE), "w",
                 encoding="ascii") as timings:
        timings.write(",".join(TIMING_COLUMNS) + "\n")
        for tt in trace:
            run_tick(tt)
            ticks += 1
    return ticks, len(seen)


# ---------------------------------------------------------------------------
# Reports

def report(run_dir: str, kind: str, out: IO[str], tick: int | None = None,
           cell_size: float = 100.0) -> None:
    """Write one aggregation as CSV with a documented header.

    Whole-run reports stream metrics.jsonl; `ttv` at a tick and `cpr`
    (default: the last tick in metrics.idx) read one line through the
    index, so a report holds one tick line in memory."""
    if kind not in REPORT_KINDS:
        raise ConfigError(f"unknown report kind {kind!r}")
    if kind == "timing":
        with open_run_file(run_dir, TIMINGS_FILE) as f:
            for line in f:
                out.write(line)
    elif kind == "bandwidth":
        with open_run_file(run_dir, METRICS_FILE) as f:
            rows = avg_bandwidth(iter_ticks(f))
        out.write("tick,avg_bytes_sent\n")
        for t, mean in rows:
            out.write(f"{t},{mean!r}\n")
    elif kind == "ttv":
        if tick is not None:
            hist = ttv_distribution(load_run(run_dir, tick), tick)
        else:
            with open_run_file(run_dir, METRICS_FILE) as f:
                hist = ttv_distribution_total(iter_ticks(f))
        out.write("delay,count\n")
        for delay in sorted(hist):
            out.write(f"{delay},{hist[delay]}\n")
    else:  # cpr
        check_cell_size(cell_size)
        if tick is None:
            index = run_index(run_dir)
            if not index:
                raise NotFoundError("run has no ticks")
            tick = index[-1][0]
        heat = cpr(load_run(run_dir, tick), tick, cell_size)
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
        try:
            return parse_config(f)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path!r} is not UTF-8 text: {exc.reason} "
                              f"(byte 0x{exc.object[exc.start]:02x})"
                              ) from None

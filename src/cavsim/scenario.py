"""Top-level simulation lifecycle and reporting.

Each tick runs fixed phases: (1) hand out the network inboxes sealed
last tick; (2) rebuild the spatial index from the trace, with cells as
wide as the larger of the perception radius and the communication range,
despawning vehicles absent from it and spawning new ones with a
seed-hashed type draw (the run's one match table follows both), and
sweep the index once for every vehicle's neighbors within perception and
communication range; (3) compute perception; (4) run every vehicle's
module DAG and encode its metrics record, while the metrics writer draws
the records WRITE_CHUNK at a time and writes the tick's line.  A quiet
vehicle, one whose modules all declare `idle` (see sandbox.py), with no
inbox and no percept, whose last tick was quiet too and ended without
error, skips its DAG: its modules would change nothing, so it writes its
last record again at its new position, with no context, DAG or counter
encoding; (5) seal the tick's broadcasts: their recipients are resolved
now, from this tick's sweep (the sender's neighbors within comm range),
and receive them next tick, one tick of latency; (6) write the phase
timings (the writer's time in phase 4 is metrics_write).  Every phase
runs in the calling thread, and all outputs are a pure function of
(seed, config, trace).  The `workers` setting is validated but has no
effect.

A run reads its trace once, tick by tick: from a trace file it holds one
tick of the trace at a time.  Besides that it holds each vehicle's
module state (its own instance of each module) and match-table entry
(and, after a quiet tick, its record's counters text), the inboxes
sealed for the next tick, and one tick's structures (sweep maps,
percepts, inboxes), which are freed as the tick ends, the index's cells
only until the sweep has run, and at most one WRITE_CHUNK of encoded
records.  It writes into a fresh staging directory next to the output
directory and moves the three output files into place only when every
tick has run, so a run that fails (a malformed trace row found mid-run,
an interrupt) leaves the output directory as it was.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Iterator

from .errors import ConfigError, ValidationError
from .identity import MatchTable, PlateRegistry
from .metrics import (INDEX_FILE, METRICS_FILE, MetricsWriter,
                      check_cell_size, cpr, load_run, open_run_file,
                      record_at, record_counters, scan_bandwidth,
                      scan_ttv_total, ttv_distribution)
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
    perception_radius: float = 100.0
    comm_range: float = 300.0
    workers: int = 1
    default_length: float = DEFAULT_LENGTH
    default_width: float = DEFAULT_WIDTH
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    mix: tuple[tuple[str, float], ...] = (("ConnectedVehicle", 1.0),)
    extra_types: dict[str, VehicleTypeSpec] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.perception_radius >= 0.0:
            raise ConfigError("perception_radius must be >= 0")
        if self.perception.max_range > self.perception_radius:
            raise ConfigError("perception max_range must not exceed "
                              "perception_radius")
        for key in ("comm_range", "default_length", "default_width"):
            if not getattr(self, key) > 0.0:
                raise ConfigError(f"{key} must be positive")
        # the grid's cells are as wide as the larger radius, and rebuild
        # multiplies positions by its reciprocal
        cell = max(self.perception_radius, self.comm_range)
        if 1.0 / cell == math.inf:
            raise ConfigError(f"max(perception_radius, comm_range) must "
                              f"have a finite reciprocal, not {cell!r}")
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
        # assign_type scales a uniform draw by this sum
        total = sum(w for _, w in self.mix)
        if not sys.float_info.min <= total < math.inf:
            raise ConfigError(f"mix weights sum to {total!r}, which is not a "
                              f"normal finite number")

    def vehicle_types(self) -> dict[str, VehicleTypeSpec]:
        types = builtin_vehicle_types()
        types.update(self.extra_types)
        return types


@dataclass(slots=True)
class RunSummary:
    ticks_executed: int
    vehicles_seen: int
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
    removed and out_dir is not created or touched.  An empty out_dir, or
    one that names something other than a directory, fails first.
    """
    config.validate()
    out_dir = config.out_dir
    if not out_dir:
        raise ConfigError("no output directory given (out is empty)")
    if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir!r} exists and is not "
                          f"a directory")
    source = None
    if trace is None:
        if config.trace_path is None:
            raise ConfigError("no trace given (config trace path is empty)")
        trace = source = iter_trace(config.trace_path, config.trace_format,
                                    default_length=config.default_length,
                                    default_width=config.default_width)
    if config.tick_range is not None:
        trace = _ticks_in(trace, *config.tick_range)

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

    return RunSummary(ticks, seen,
                      os.path.join(out_dir, METRICS_FILE),
                      os.path.join(out_dir, INDEX_FILE),
                      os.path.join(out_dir, TIMINGS_FILE))


def _run_ticks(config: ScenarioConfig, trace: Iterable[TraceTick],
               out_dir: str) -> tuple[int, int]:
    """The tick loop; writes the three output files into out_dir and
    returns (ticks executed, vehicles seen)."""
    types = config.vehicle_types()
    # the run's one plate-code table: it interns each trace id at its
    # first spawn, and the network any other plate a CPM first carries
    registry = PlateRegistry()
    net = NetworkSim(registry)
    seen = 0  # the codes of the trace ids spawned, as a plate mask
    pcfg = config.perception
    seed, comm_range = config.seed, config.comm_range
    # the sweep is exact for any cell at least as wide as both radii, and
    # wider cells only pair more vehicles
    cell = max(config.perception_radius, comm_range)
    vehicles: dict[str, Vehicle] = {}
    stations = itertools.count(1)
    # the run's one match table, kept up to date at spawn and despawn
    match = MatchTable()
    perf = time.perf_counter

    def agent_records(tick, order, states, inboxes, percepts):
        """Each vehicle's record of the tick, in plate order, encoded as
        soon as its vehicle has ticked."""
        for plate in order:
            v = vehicles[plate]
            state = states[plate]
            # no inbox has the key None, which an unconnected vehicle has
            inbox = inboxes.get(v.station, ())
            percept = percepts.get(plate, ())
            quiet = v.idle and not inbox and not percept
            if quiet and v.quiet is not None:
                yield record_at(plate, v.quiet, state)
                continue
            ctx = SandboxContext(tick, plate, v.station, state, percept, net,
                                 match, comm_range, seed)
            tick_vehicle(v, inbox, ctx)
            counters = record_counters(ctx)
            # a quiet tick with no error leaves the modules as they were,
            # so each following quiet tick has these counters too
            v.quiet = counters if quiet and not ctx.errors else None
            yield record_at(plate, counters, state)

    def run_tick(tt: TraceTick) -> None:
        """One tick.  Its sweep maps, percepts and inboxes are locals,
        freed when it returns (the grid's cells as soon as the sweep has
        run, the perception map, percepts and inboxes before the seal).
        The writer draws the records from agent_records, so the tick holds
        one WRITE_CHUNK of them, as plain strings, which the garbage
        collector does not track."""
        nonlocal seen
        tick = tt.tick

        t0 = perf()
        inboxes = net.step()
        t1 = perf()

        grid = rebuild(tt.states, cell)
        states = grid.states
        for plate in [p for p in vehicles if p not in states]:
            del vehicles[plate]
            match.remove(plate)
        for s in tt.states:
            if s.id not in vehicles:
                spec = types[assign_type(seed, s.id, config.mix)]
                station = next(stations) if spec.connected else None
                seen |= 1 << registry.intern(s.id)
                vehicles[s.id] = build_vehicle(spec, s.id, station)
                match.add(s.id, station)
        near, comm = sweep_neighbors(grid, config.perception_radius,
                                     comm_range)
        del grid
        t2 = perf()

        order = sorted(vehicles)
        percepts: dict[str, tuple] = {}  # only the non-empty ones
        for plate in order:
            if vehicles[plate].perceives:
                objs = perceive(states[plate], near[plate], pcfg, tick)
                if objs:
                    percepts[plate] = objs
        t3 = perf()

        writer.record_tick(tick, agent_records(tick, order, states, inboxes,
                                               percepts))
        t4 = perf()

        del near, percepts, inboxes
        net.seal(lambda origin: match.stations_of(
            comm[match.plate_of(origin)]))
        t5 = perf()

        write_s = writer.write_s
        timings.write(f"{tick},{t2 - t1:.6f},{t3 - t2:.6f},"
                      f"{t4 - t3 - write_s:.6f},{(t1 - t0) + (t5 - t4):.6f},"
                      f"{write_s:.6f}\n")

    ticks = 0
    with MetricsWriter(out_dir) as writer, \
            open(os.path.join(out_dir, TIMINGS_FILE), "w",
                 encoding="ascii") as timings:
        timings.write(",".join(TIMING_COLUMNS) + "\n")
        for tt in trace:
            run_tick(tt)
            ticks += 1
    return ticks, seen.bit_count()


# ---------------------------------------------------------------------------
# Reports

def report(run_dir: str, kind: str, out: IO[str], tick: int | None = None,
           cell_size: float | None = None) -> None:
    """Write one aggregation as CSV with a documented header.

    Whole-run reports stream metrics.jsonl; `ttv` at a tick and `cpr`
    (default: the last tick in metrics.idx) read one line through the
    index, so a report holds one tick line in memory.  `bandwidth` and
    `timing` cover the whole run and take no tick; only `cpr` takes a
    cell size (default 100 m).  `timing` copies timings.csv once it has
    read all of it as ASCII."""
    if kind not in REPORT_KINDS:
        raise ConfigError(f"unknown report kind {kind!r}")
    if tick is not None and kind in ("bandwidth", "timing"):
        raise ConfigError(f"the {kind} report covers the whole run and "
                          f"takes no tick")
    if cell_size is not None and kind != "cpr":
        raise ConfigError(f"the {kind} report takes no cell size; only cpr "
                          f"does")
    if cell_size is not None:
        check_cell_size(cell_size)
    if kind == "timing":
        with open_run_file(run_dir, TIMINGS_FILE) as f:
            while chunk := f.read(1 << 16):
                if not chunk.isascii():
                    raise ValidationError(f"{TIMINGS_FILE} is not ASCII "
                                          f"text")
            f.seek(0)
            shutil.copyfileobj(f, out)
        return
    try:
        header, rows = _aggregate(run_dir, kind, tick, cell_size)
    except (AttributeError, ArithmeticError, KeyError, TypeError,
            ValueError) as exc:
        raise ValidationError(
            f"{METRICS_FILE}: a tick line is not a metrics record "
            f"({type(exc).__name__}: {exc})") from None
    out.write(header)
    for row in rows:
        out.write(",".join(map(str, row)) + "\n")


def _aggregate(run_dir: str, kind: str, tick: int | None,
               cell_size: float | None) -> tuple[str, list[tuple]]:
    """The CSV header and rows of a report read from metrics.jsonl."""
    if kind == "bandwidth":
        with open_run_file(run_dir, METRICS_FILE) as f:
            return "tick,avg_bytes_sent\n", scan_bandwidth(f)
    if kind == "ttv":
        if tick is not None:
            hist = ttv_distribution(load_run(run_dir, tick))
        else:
            with open_run_file(run_dir, METRICS_FILE) as f:
                hist = scan_ttv_total(f)
        return "delay,count\n", sorted(hist.items())
    cell_size = 100.0 if cell_size is None else cell_size  # cpr
    heat = cpr(load_run(run_dir, tick), cell_size)
    return "cell_x,cell_y,ratio\n", [(*k, heat[k]) for k in sorted(heat)]


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
    base = builtin.get(name)
    if "modules" in section:
        nodes = _names_list(section["modules"])
        keys = ("modules", "edges", "entry", "connected")
    elif base is None:
        raise ConfigError(
            f"vehicle type {name!r} gives no modules and is not built in")
    else:  # an override of a built-in type keeps its flow
        nodes, keys = base.graph.nodes, ("connected",)
    params: dict[str, dict] = {}
    for key, value in section.items():
        module, dot, pname = key.partition(".")
        if module not in (nodes if dot else keys):
            raise ConfigError(f"vehicle type {name!r}: {key!r} is not " + (
                "a parameter of a module in its flow" if dot else
                f"one of its keys ({', '.join(keys)})"))
        if dot:
            params.setdefault(module, {})[pname] = _parse_value(value)
    if "modules" in section:
        base = VehicleTypeSpec(
            name, FlowGraph(nodes, _parse_edges(section.get("edges", ""))),
            _names_list(section.get("entry", "")))
    try:  # configparser's boolean words
        connected = section.getboolean("connected", base.connected)
    except ValueError:
        raise ConfigError(f"vehicle type {name!r}: connected = "
                          f"{section['connected']!r} is not true/false, "
                          f"yes/no, on/off or 1/0") from None
    merged = {m: dict(p) for m, p in base.params.items()}
    for module, p in params.items():
        merged.setdefault(module, {}).update(p)
    return replace(base, params=merged, connected=connected)


def _number(raw: str, where: str, convert=float):
    """raw as a finite float, or as an int when convert is int; an int also
    takes a whole number written as a float, such as 2.0.  An error names
    the key as `where`."""
    if convert is int:
        try:
            return int(raw)
        except ValueError:
            pass
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where} = {raw!r} is not a finite number")
    if convert is float:
        return value
    if not value.is_integer():
        raise ConfigError(f"{where} = {raw!r} is not a whole number")
    return int(value)


def _whole(raw: str, where: str) -> int:
    return _number(raw, where, int)


def _degrees(raw: str, where: str) -> float:
    return math.radians(_number(raw, where))


def _text(raw: str, where: str) -> str:
    return raw


def parse_tick_range(raw: str, where: str = "ticks") -> tuple[int, int] | None:
    """Parse 'A:B' into the half-open range [A, B); empty text is None, the
    whole trace.  Each end is a whole number read like `seed`.  An error
    names the key as `where`."""
    if not raw:
        return None
    ends = raw.split(":")
    if len(ends) != 2:
        raise ConfigError(f"{where} = {raw!r} is not a tick range A:B")
    return (_whole(ends[0], where), _whole(ends[1], where))


# each key of [scenario] and [perception]: the field it sets and the reader
# of its text.  A key whose field is None is retired: it is read and dropped.
SCENARIO_KEYS = {
    "seed": ("seed", _whole),
    "ticks": ("tick_range", parse_tick_range),
    "trace": ("trace_path", _text),
    "trace_format": ("trace_format", _text),
    "out": ("out_dir", _text),
    "perception_radius": ("perception_radius", _number),
    "comm_range": ("comm_range", _number),
    "workers": ("workers", _whole),
    "default_length": ("default_length", _number),
    "default_width": ("default_width", _number),
    # the grid cell follows the two radii; perfbench's configs still write it
    "cell_size": (None, _number),
}
PERCEPTION_KEYS = {
    "fov_half_angle_deg": ("fov_half_angle", _degrees),
    "max_range": ("max_range", _number),
    "max_plate_angle_deg": ("max_plate_angle", _degrees),
    "plate_width": ("plate_width", _number),
}


def _read_section(section, keys: dict) -> dict:
    """The fields `section` sets, each key read as `keys` says; a key that
    `keys` does not list is an error that names the section and the key."""
    fields = {}
    for key, raw in section.items():
        if key not in keys:
            raise ConfigError(f"[{section.name}] {key!r} is not one of its "
                              f"keys ({', '.join(keys)})")
        name, read = keys[key]
        fields[name] = read(raw, f"[{section.name}] {key}")
    fields.pop(None, None)
    return fields


def parse_config(stream: IO[str],
                 overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Parse the INI-style scenario config.

    Sections: [scenario] top-level keys, [perception] camera settings,
    [mix] type-name = weight, and one [vehicle_type.NAME] per custom type
    (keys: modules, edges, entry, connected, plus module.param entries).
    Any other section, and a key that its section does not read, is an
    error.  `overrides` maps [scenario] keys to their text and replaces
    the stream's values, read the same way; a `trace` among them also
    drops the stream's `trace_format`, whose format was its trace's.
    """
    # no section header is empty, so [DEFAULT] is an unknown section below
    # instead of keys merged into every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keep case of type and module names
    try:
        parser.read_file(stream)
    except configparser.Error as exc:  # its message may span lines
        raise ConfigError("bad config file: " + " ".join(
            line.strip() for line in str(exc).splitlines())) from exc
    if overrides:
        parser.read_dict({"scenario": overrides})
        if "trace" in overrides:
            parser.remove_option("scenario", "trace_format")

    cfg = ScenarioConfig()
    builtin = builtin_vehicle_types()
    for name in parser.sections():
        section = parser[name]
        if name == "scenario":
            cfg = replace(cfg, **_read_section(section, SCENARIO_KEYS))
        elif name == "perception":
            cfg.perception = PerceptionConfig(**_read_section(
                section, PERCEPTION_KEYS))
        elif name == "mix":
            cfg.mix = tuple((key, _number(raw, f"[mix] {key}"))
                            for key, raw in section.items())
        elif name.startswith("vehicle_type."):
            type_name = name[len("vehicle_type."):]
            cfg.extra_types[type_name] = _parse_vehicle_type(
                type_name, section, builtin)
        else:
            raise ConfigError(f"unknown section [{name}] (want scenario, "
                              f"perception, mix or vehicle_type.NAME)")
    return cfg


def load_config(path: str,
                overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Read the config file at `path` (UTF-8, a leading byte order mark
    allowed) through parse_config, with its `overrides`."""
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            return parse_config(f, overrides)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path!r} is not UTF-8 text: {exc.reason} "
                              f"(byte 0x{exc.object[exc.start]:02x})"
                              ) from None

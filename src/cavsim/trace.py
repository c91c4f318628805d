"""Mobility trace ingestion: FCD-style XML, CSV, and synthetic traffic.

All downstream math uses one convention: world coordinates in meters,
headings in radians counterclockwise from +x, normalized to (-pi, pi].
Source conventions (e.g. FCD angles in degrees clockwise from north) are
converted here, at ingest, and nowhere else.

Each format has one streaming parser, a generator of TraceTicks that
validates every row as it reads it.  iter_trace streams a trace file tick
by tick through it, so a consumer holds one tick at a time; load_trace
reads the whole file into a list.  Both parsers remember the previous
tick's rows: a vehicle present one tick earlier reuses that state's id,
and each of its heading, length and width whose raw text is unchanged.
A held trace costs about 260 B a row when every value is new, about
165 B when only the heading changes and about 140 B when nothing but the
position does.
"""

from __future__ import annotations

import csv
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

from .errors import ConfigError, SchemaError, TraceParseError, ValidationError

TAU = 2.0 * math.pi

DEFAULT_LENGTH = 5.0
DEFAULT_WIDTH = 1.8

# a tick must fit the wire format's u32 gen_tick
MAX_TICK = 2 ** 32 - 1

CSV_COLUMNS = ("tick", "id", "x", "y", "heading", "length", "width")

# Every trace row passes one chained comparison,
# `0.0 * x * y * heading == 0.0 < length < _INF > width > 0.0`: 0 * v is 0
# for every finite v and NaN for NaN or +-inf, and NaN compares false.
_INF = math.inf

# Characters fed to the XML parser per call, as ElementTree.iterparse reads.
_CHUNK = 16 * 1024

# The window entry of a vehicle absent one tick earlier: its text matches
# nothing, not even an absent attribute's None.
_NEVER = object()
_UNSEEN = (_NEVER, _NEVER, _NEVER, None)


def normalize_angle(a: float) -> float:
    """Map an angle in radians into (-pi, pi]."""
    a = math.fmod(a, TAU)
    if a <= -math.pi:
        a += TAU
    elif a > math.pi:
        a -= TAU
    return a


@dataclass(slots=True)
class VehicleState:
    """Ground-truth pose and footprint of one vehicle at one tick.

    (x, y) is the center of the front bumper; heading is radians CCW
    from +x in (-pi, pi]; length/width are the rectangle dimensions.
    States are shared by the spatial index, perception and every module
    of the tick, and a state's unchanged values are shared with the same
    vehicle's state one tick earlier, so treat them as read-only.  (Not
    frozen: a frozen dataclass costs four times as much to build, and
    ingest builds one per trace row.)
    """

    id: str
    x: float
    y: float
    heading: float
    length: float = DEFAULT_LENGTH
    width: float = DEFAULT_WIDTH


@dataclass(frozen=True, slots=True)
class TraceTick:
    """All vehicle states at one integer simulation tick."""

    tick: int
    states: tuple[VehicleState, ...]


def _duplicate_id(tick: int, states: list[VehicleState]) -> ValidationError:
    seen = set()
    for s in states:
        if s.id in seen:
            break
        seen.add(s.id)
    return ValidationError(f"tick {tick}: duplicate vehicle id {s.id!r}")


class _Timesteps:
    """XMLParser target that collects, as each <timestep> closes, its time
    attribute and the attributes of its direct <vehicle> children."""

    def __init__(self):
        self.closed: list[tuple[str | None, list[dict]]] = []
        # per open element: its (time, vehicles) if a timestep, else None
        self._open: list[tuple[str | None, list[dict]] | None] = [None]

    def start(self, tag, attrib):
        parent = self._open[-1]
        if tag == "vehicle" and parent is not None:
            parent[1].append(attrib)
        self._open.append((attrib.get("time"), []) if tag == "timestep"
                          else None)

    def end(self, tag):
        step = self._open.pop()
        if step is not None:
            self.closed.append(step)


def _fcd_steps(stream: IO) -> Iterator[tuple[str | None, list[dict]]]:
    """(time, vehicle attribute dicts) of every <timestep>, in end-tag
    order, read _CHUNK characters at a time without building a tree.

    The timesteps a chunk completes are yielded before a parse error found
    later in that chunk is raised, but none completed by a closing parse
    that fails; both as ElementTree.iterparse does.
    """
    target = _Timesteps()
    parser = ET.XMLParser(target=target)
    closed = target.closed
    while chunk := stream.read(_CHUNK):
        try:
            parser.feed(chunk)
        except ET.ParseError as exc:
            yield from closed
            raise TraceParseError(str(exc), line=exc.position[0]) from exc
        yield from closed
        closed.clear()
    try:
        parser.close()
    except ET.ParseError as exc:
        raise TraceParseError(str(exc), line=exc.position[0]) from exc
    yield from closed


def _fcd_ticks(stream: IO, default_length: float,
               default_width: float) -> Iterator[TraceTick]:
    """Parse floating-car-data XML (nested timestep/vehicle elements).

    Fractional timestamps are floor-bucketed to integer ticks, which must
    lie in 0..MAX_TICK; when several timesteps land in the same bucket only
    the first is kept.  Source angles are degrees clockwise from north and
    get converted to radians CCW from +x.  Missing length/width attributes
    fall back to the defaults.  Only a direct child of a timestep counts as
    a vehicle.
    """
    last_time = None
    last_bucket = None
    prev: dict[str, tuple] = {}
    for raw, vehicles in _fcd_steps(stream):
        if raw is None:
            raise SchemaError("timestep element without time attribute")
        try:
            t = float(raw)
            bucket = int(math.floor(t))
        except (ValueError, OverflowError):
            raise ValidationError(
                f"timestep time {raw!r} is not a finite number") from None
        if last_time is not None and t <= last_time:
            raise ValidationError(
                f"non-monotonic timestamps: {t} after {last_time}")
        last_time = t
        if bucket == last_bucket:
            continue
        if not 0 <= bucket <= MAX_TICK:
            raise ValidationError(f"timestep time {raw!r}: tick {bucket} is "
                                  f"outside 0..{MAX_TICK}")
        last_bucket = bucket
        states = []
        cur = {}
        for attrs in vehicles:
            try:
                vid = attrs["id"]
                x = attrs["x"]
                y = attrs["y"]
                a = attrs["angle"]
            except KeyError as exc:
                raise SchemaError(f"vehicle element missing attribute "
                                  f"{exc.args[0]!r}") from None
            l = attrs.get("length")
            w = attrs.get("width")
            old_a, old_l, old_w, old = prev.get(vid, _UNSEEN)
            try:
                x = float(x)
                y = float(y)
                if a == old_a:  # checked when first read; as finite
                    angle = heading = old.heading
                else:
                    angle = float(a)
                    heading = None
                length = (old.length if l == old_l else
                          default_length if l is None else float(l))
                width = (old.width if w == old_w else
                         default_width if w is None else float(w))
            except ValueError as exc:
                raise ValidationError(f"vehicle {vid!r}: {exc}") from None
            if not 0.0 * x * y * angle == 0.0 < length < _INF > width > 0.0:
                raise ValidationError(f"vehicle {vid!r}: non-finite value "
                                      f"or non-positive dimensions")
            if not vid:
                raise ValidationError(f"vehicle {vid!r}: empty vehicle id")
            if heading is None:
                heading = normalize_angle(math.radians(90.0 - angle))
            if old is not None:
                vid = old.id
            state = VehicleState(vid, x, y, heading, length, width)
            states.append(state)
            cur[vid] = (a, l, w, state)
        if len(cur) != len(states):
            raise _duplicate_id(bucket, states)
        prev = cur
        yield TraceTick(bucket, tuple(states))


def _csv_ticks(stream: IO, default_length: float,
               default_width: float) -> Iterator[TraceTick]:
    """Parse the CSV trace schema: tick,id,x,y,heading,length,width.

    Columns may come in any order, and header names may be padded with
    spaces.  Headings are already radians and are renormalized into
    (-pi, pi].  Rows for one tick must be contiguous and tick groups
    strictly increasing, within 0..MAX_TICK.  Blank length/width cells
    fall back to the defaults, and blank lines are skipped.  A row with
    more or fewer fields than the header is an error; every row error
    names the line.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        return
    fields = [f.strip() for f in header]
    for col in CSV_COLUMNS:
        if col not in fields:
            raise SchemaError(f"missing column {col!r}")
    for col in fields:
        if col not in CSV_COLUMNS:
            raise SchemaError(f"unexpected column {col!r}")
        if fields.count(col) > 1:
            raise SchemaError(f"duplicate column {col!r}")
    n_fields = len(fields)
    i_tick, i_id, i_x, i_y, i_heading, i_length, i_width = (
        fields.index(col) for col in CSV_COLUMNS)
    pi = math.pi

    raw_tick = None
    tick = None
    states: list[VehicleState] = []
    # id -> (heading, length and width text, state) of the tick before
    # and of this one
    prev: dict[str, tuple] = {}
    cur: dict[str, tuple] = {}
    for row in reader:
        if len(row) != n_fields:
            if not row:
                continue
            raise ValidationError(f"row {reader.line_num}: {len(row)} fields, "
                                  f"header has {n_fields}")
        try:
            if row[i_tick] != raw_tick:
                raw_tick = row[i_tick]
                new_tick = int(raw_tick)
                if new_tick != tick:
                    if not 0 <= new_tick <= MAX_TICK:
                        raise ValidationError(
                            f"row {reader.line_num}: tick {new_tick} is "
                            f"outside 0..{MAX_TICK}")
                    if tick is not None:
                        if new_tick < tick:
                            raise ValidationError(
                                f"row {reader.line_num}: non-monotonic tick "
                                f"{new_tick} after {tick}")
                        if len(cur) != len(states):
                            raise _duplicate_id(tick, states)
                        yield TraceTick(tick, tuple(states))
                    tick = new_tick
                    states = []
                    prev, cur = cur, {}
            vid = row[i_id]
            h, l, w = row[i_heading], row[i_length], row[i_width]
            old_h, old_l, old_w, old = prev.get(vid, _UNSEEN)
            x = float(row[i_x])
            y = float(row[i_y])
            # an unchanged value was checked and normalized when first read
            heading = old.heading if h == old_h else float(h)
            length = (old.length if l == old_l else
                      float(l) if l.strip() else default_length)
            width = (old.width if w == old_w else
                     float(w) if w.strip() else default_width)
        except ValueError as exc:
            raise ValidationError(f"row {reader.line_num}: {exc}") from exc
        if not 0.0 * x * y * heading == 0.0 < length < _INF > width > 0.0:
            raise ValidationError(f"row {reader.line_num}: non-finite value "
                                  f"or non-positive dimensions")
        if not vid:
            raise ValidationError(f"row {reader.line_num}: empty vehicle id")
        if not -pi < heading <= pi:  # in range, normalize_angle is identity
            heading = normalize_angle(heading)
        if old is not None:
            vid = old.id
        state = VehicleState(vid, x, y, heading, length, width)
        states.append(state)
        cur[vid] = (h, l, w, state)
    if tick is not None:
        if len(cur) != len(states):
            raise _duplicate_id(tick, states)
        yield TraceTick(tick, tuple(states))


def write_csv(ticks: Iterable[TraceTick], stream: IO) -> None:
    """Serialize a trace to the CSV schema.

    Re-parsing yields an equal trace, except that vehicle-less ticks are
    dropped: the row-based schema cannot express them.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for tt in ticks:
        for s in tt.states:
            writer.writerow([tt.tick, s.id, repr(s.x), repr(s.y),
                             repr(s.heading), repr(s.length), repr(s.width)])


def synth_traffic(seed: int, n_vehicles: int, n_ticks: int,
                  area: float) -> list[TraceTick]:
    """Deterministic straight-lane traffic for tests and benchmarks.

    Vehicles drive axis-aligned lanes at constant speed and wrap around the
    square [0, area)^2.  Pure function of its arguments: the same seed
    always yields the identical trace.
    """
    if n_vehicles < 0:
        raise ConfigError("n_vehicles must be >= 0")
    if n_vehicles > 0 and area <= 0:
        raise ConfigError("area must be positive")
    rng = random.Random(f"synth:{seed}")
    lanes = []
    for i in range(n_vehicles):
        vid = f"v{i:05d}"
        horizontal = rng.random() < 0.5
        forward = rng.random() < 0.5
        fixed = rng.uniform(0.0, area)
        start = rng.uniform(0.0, area)
        speed = rng.uniform(5.0, 15.0)
        if horizontal:
            heading = 0.0 if forward else math.pi
        else:
            heading = 0.5 * math.pi if forward else -0.5 * math.pi
        sign = 1.0 if forward else -1.0
        lanes.append((vid, horizontal, sign, fixed, start, speed, heading))
    ticks = []
    for t in range(n_ticks):
        states = []
        for vid, horizontal, sign, fixed, start, speed, heading in lanes:
            offset = (start + sign * speed * t) % area if area > 0 else 0.0
            if horizontal:
                x, y = offset, fixed
            else:
                x, y = fixed, offset
            states.append(VehicleState(vid, x, y, heading))
        ticks.append(TraceTick(t, tuple(states)))
    return ticks


def iter_trace(path: str, fmt: str | None = None, *,
               default_length: float = DEFAULT_LENGTH,
               default_width: float = DEFAULT_WIDTH) -> Iterator[TraceTick]:
    """Stream a trace file tick by tick, guessing the format from the
    extension.

    The format is checked at the call; the file is opened at the first
    tick and closed when the generator is exhausted or closed.  A row is
    validated when its tick is read, so a malformed row late in the file
    raises only after the ticks before it have been yielded.
    """
    if fmt is None:
        lower = path.lower()
        if lower.endswith(".csv"):
            fmt = "csv"
        elif lower.endswith(".xml"):
            fmt = "fcd"
        else:
            raise ConfigError(f"cannot guess trace format of {path!r}")
    if fmt not in ("csv", "fcd"):
        raise ConfigError(f"unknown trace format {fmt!r}")
    ticks = _csv_ticks if fmt == "csv" else _fcd_ticks
    return _read_ticks(path, ticks, default_length, default_width)


def _read_ticks(path: str, ticks: Callable[..., Iterator[TraceTick]],
                default_length: float,
                default_width: float) -> Iterator[TraceTick]:
    # utf-8-sig skips a leading byte order mark, which is not part of the text
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        try:
            yield from ticks(f, default_length, default_width)
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"{path!r} is not UTF-8 text: {exc.reason} "
                                  f"(byte 0x{exc.object[exc.start]:02x})"
                                  ) from None


def load_trace(path: str, fmt: str | None = None, *,
               default_length: float = DEFAULT_LENGTH,
               default_width: float = DEFAULT_WIDTH) -> list[TraceTick]:
    """Load a whole trace file, guessing the format from the extension."""
    return list(iter_trace(path, fmt, default_length=default_length,
                           default_width=default_width))

"""Mobility trace ingestion: FCD-style XML, CSV, and synthetic traffic.

All downstream math uses one convention: world coordinates in meters,
headings in radians counterclockwise from +x, normalized to (-pi, pi].
Source conventions (e.g. FCD angles in degrees clockwise from north) are
converted here, at ingest, and nowhere else.
"""

from __future__ import annotations

import csv
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import ConfigError, SchemaError, TraceParseError, ValidationError

TAU = 2.0 * math.pi

DEFAULT_LENGTH = 5.0
DEFAULT_WIDTH = 1.8

CSV_COLUMNS = ("tick", "id", "x", "y", "heading", "length", "width")

# Every trace row passes one chained comparison,
# `0.0 * x * y * heading == 0.0 < length < _INF > width > 0.0`: 0 * v is 0
# for every finite v and NaN for NaN or +-inf, and NaN compares false.
_INF = math.inf


def normalize_angle(a: float) -> float:
    """Map an angle in radians into (-pi, pi]."""
    a = math.fmod(a, TAU)
    if a <= -math.pi:
        a += TAU
    elif a > math.pi:
        a -= TAU
    return a


@dataclass(frozen=True, slots=True)
class VehicleState:
    """Ground-truth pose and footprint of one vehicle at one tick.

    (x, y) is the center of the front bumper; heading is radians CCW
    from +x in (-pi, pi]; length/width are the rectangle dimensions.
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


def _check_unique_ids(tick: int, states: Iterable[VehicleState]) -> None:
    seen = set()
    for s in states:
        if s.id in seen:
            raise ValidationError(f"tick {tick}: duplicate vehicle id {s.id!r}")
        seen.add(s.id)


def parse_fcd(stream: IO, *, default_length: float = DEFAULT_LENGTH,
              default_width: float = DEFAULT_WIDTH) -> list[TraceTick]:
    """Parse floating-car-data XML (nested timestep/vehicle elements).

    Fractional timestamps are floor-bucketed to integer ticks; when several
    timesteps land in the same bucket only the first is kept.  Source angles
    are degrees clockwise from north and get converted to radians CCW from
    +x.  Missing length/width attributes fall back to the defaults.
    """
    ticks: list[TraceTick] = []
    last_time = None
    last_bucket = None
    try:
        for event, elem in ET.iterparse(stream, events=("end",)):
            if elem.tag != "timestep":
                continue
            raw = elem.get("time")
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
            if last_bucket is not None and bucket == last_bucket:
                elem.clear()
                continue
            last_bucket = bucket
            states = []
            for veh in elem:
                if veh.tag != "vehicle":
                    continue
                states.append(_fcd_vehicle(veh, default_length, default_width))
            _check_unique_ids(bucket, states)
            ticks.append(TraceTick(bucket, tuple(states)))
            elem.clear()
    except ET.ParseError as exc:
        raise TraceParseError(str(exc), line=exc.position[0]) from exc
    return ticks


def _fcd_vehicle(elem, default_length, default_width) -> VehicleState:
    attrs = elem.attrib
    for required in ("id", "x", "y", "angle"):
        if required not in attrs:
            raise SchemaError(f"vehicle element missing attribute {required!r}")
    try:
        x = float(attrs["x"])
        y = float(attrs["y"])
        angle = float(attrs["angle"])
        length = float(attrs["length"]) if "length" in attrs else default_length
        width = float(attrs["width"]) if "width" in attrs else default_width
    except ValueError as exc:
        raise ValidationError(f"vehicle {attrs['id']!r}: {exc}") from None
    if not 0.0 * x * y * angle == 0.0 < length < _INF > width > 0.0:
        raise ValidationError(f"vehicle {attrs['id']!r}: non-finite value "
                              f"or non-positive dimensions")
    return VehicleState(attrs["id"], x, y,
                        normalize_angle(math.radians(90.0 - angle)),
                        length, width)


def parse_csv(stream: IO, *, default_length: float = DEFAULT_LENGTH,
              default_width: float = DEFAULT_WIDTH) -> list[TraceTick]:
    """Parse the CSV trace schema: tick,id,x,y,heading,length,width.

    Headings are already radians and are renormalized into (-pi, pi].
    Rows for one tick must be contiguous and tick groups strictly
    increasing.  Blank length/width cells fall back to the defaults.
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        return []
    fields = [f.strip() for f in reader.fieldnames]
    for col in CSV_COLUMNS:
        if col not in fields:
            raise SchemaError(f"missing column {col!r}")
    for col in fields:
        if col not in CSV_COLUMNS:
            raise SchemaError(f"unexpected column {col!r}")

    ticks: list[TraceTick] = []
    cur_tick = None
    cur_states: list[VehicleState] = []

    def flush():
        if cur_tick is not None:
            _check_unique_ids(cur_tick, cur_states)
            ticks.append(TraceTick(cur_tick, tuple(cur_states)))

    for lineno, row in enumerate(reader, start=2):
        try:
            tick = int(row["tick"])
            x = float(row["x"])
            y = float(row["y"])
            heading = float(row["heading"])
            length = float(row["length"]) if (row["length"] or "").strip() else default_length
            width = float(row["width"]) if (row["width"] or "").strip() else default_width
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"row {lineno}: {exc}") from exc
        if not 0.0 * x * y * heading == 0.0 < length < _INF > width > 0.0:
            raise ValidationError(f"row {lineno}: non-finite value or "
                                  f"non-positive dimensions")
        vid = row["id"]
        if vid is None or vid == "":
            raise ValidationError(f"row {lineno}: empty vehicle id")
        if cur_tick is None or tick != cur_tick:
            if cur_tick is not None and tick < cur_tick:
                raise ValidationError(
                    f"row {lineno}: non-monotonic tick {tick} after {cur_tick}")
            flush()
            cur_tick = tick
            cur_states = []
        cur_states.append(VehicleState(vid, x, y, normalize_angle(heading),
                                       length, width))
    flush()
    return ticks


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


def load_trace(path: str, fmt: str | None = None, *,
               default_length: float = DEFAULT_LENGTH,
               default_width: float = DEFAULT_WIDTH) -> list[TraceTick]:
    """Load a trace file, guessing the format from the extension."""
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
    with open(path, "r", encoding="utf-8", newline="") as f:
        if fmt == "csv":
            return parse_csv(f, default_length=default_length,
                             default_width=default_width)
        return parse_fcd(f, default_length=default_length,
                         default_width=default_width)

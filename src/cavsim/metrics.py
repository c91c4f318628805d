"""Per-tick metrics: JSON-lines persistence, a byte-offset index, and the
report aggregations (average bandwidth, time-to-verify, cooperative
perception ratio).

One JSON line per tick holds the array of per-vehicle records; a text
index file maps every tick to the byte offset and length of its line so
individual ticks can be read without scanning.  Keys and float formatting
are fixed, so identical runs produce byte-identical files.

The whole-run aggregations take any iterable of tick lines, so a report
streams metrics.jsonl through iter_ticks; a one-tick report reads its one
line through the index (load_run with a tick).  Either way a report holds
one tick line in memory, not the run.

Per-vehicle record keys, in order:
    id, bytes_sent, local_objects, received_objects, all_objects,
    ttv, errors, x, y
bytes_sent and ttv are per-tick values; the object counts are accumulated
distinct-plate counts (all_objects is the size of the union of the local
and received sets).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable

from .errors import (ConfigError, ContractViolation, NotFoundError,
                     ValidationError)

METRICS_FILE = "metrics.jsonl"
INDEX_FILE = "metrics.idx"

# records encoded and written at a time, so a tick line is never held whole
WRITE_CHUNK = 256


@dataclass(slots=True)
class MetricsRecord:
    """One vehicle's counters for one tick."""

    tick: int
    vehicle_id: str
    bytes_sent: int = 0
    local_objects: int = 0
    received_objects: int = 0
    all_objects: int = 0
    ttv_events: dict[int, int] = field(default_factory=dict)
    errors: int = 0
    position: tuple[float, float] = (0.0, 0.0)

    def to_json_obj(self) -> dict:
        return {
            "id": self.vehicle_id,
            "bytes_sent": self.bytes_sent,
            "local_objects": self.local_objects,
            "received_objects": self.received_objects,
            "all_objects": self.all_objects,
            "ttv": {str(k): self.ttv_events[k] for k in sorted(self.ttv_events)},
            "errors": self.errors,
            "x": self.position[0],
            "y": self.position[1],
        }

    @classmethod
    def from_json_obj(cls, tick: int, obj: dict) -> "MetricsRecord":
        return cls(tick, obj["id"], obj["bytes_sent"], obj["local_objects"],
                   obj["received_objects"], obj["all_objects"],
                   {int(k): v for k, v in obj["ttv"].items()},
                   obj.get("errors", 0), (obj["x"], obj["y"]))


def record_json(r: MetricsRecord) -> str:
    """Direct JSON encoding of one record; byte-equal to dumping
    to_json_obj() with separators=(",", ":") but without the dict walk.
    The id goes through the encoder json.dumps uses for a str."""
    if r.ttv_events:
        ttv = "{" + ",".join(f'"{k}":{r.ttv_events[k]}'
                             for k in sorted(r.ttv_events)) + "}"
    else:
        ttv = "{}"
    return (f'{{"id":{encode_basestring_ascii(r.vehicle_id)},'
            f'"bytes_sent":{r.bytes_sent},"local_objects":{r.local_objects},'
            f'"received_objects":{r.received_objects},'
            f'"all_objects":{r.all_objects},"ttv":{ttv},"errors":{r.errors},'
            f'"x":{r.position[0]!r},"y":{r.position[1]!r}}}')


class MetricsWriter:
    """Append-only sink writing one JSON line and one index entry per tick.

    A line is encoded and written WRITE_CHUNK records at a time."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._data: IO[bytes] = open(os.path.join(directory, METRICS_FILE), "wb")
        self._index: IO[str] = open(os.path.join(directory, INDEX_FILE), "w",
                                    encoding="ascii")
        self._offset = 0
        self._last_tick = None

    def record_tick(self, tick: int, records: Iterable[MetricsRecord]) -> None:
        if self._last_tick is not None and tick <= self._last_tick:
            raise ContractViolation(
                f"ticks must be recorded in increasing order "
                f"({tick} after {self._last_tick})")
        self._last_tick = tick
        write = self._data.write
        length = write(f'{{"tick":{tick},"vehicles":['.encode("ascii"))
        records = iter(records)
        sep = ""
        while chunk := [record_json(r) for r in islice(records, WRITE_CHUNK)]:
            length += write((sep + ",".join(chunk)).encode("ascii"))
            sep = ","
        length += write(b"]}\n")
        self._index.write(f"{tick} {self._offset} {length}\n")
        self._offset += length

    def close(self) -> None:
        self._data.close()
        self._index.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_index(stream: IO[str]) -> list[tuple[int, int, int]]:
    """Parse the index file into (tick, offset, length) triples."""
    entries = []
    for n, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            tick, offset, length = map(int, line.split())
        except ValueError:
            raise ValidationError(f"{INDEX_FILE} line {n}: want 'tick offset "
                                  f"length', got {line!r}") from None
        entries.append((tick, offset, length))
    return entries


def seek_tick(index: list[tuple[int, int, int]], data: IO[bytes],
              tick: int) -> dict:
    """Read one tick's line through the index: O(1) reads after lookup."""
    for t, offset, length in index:
        if t == tick:
            data.seek(offset)
            return _json_line(data.read(length), f"the line of tick {tick}")
    raise NotFoundError(f"tick {tick} not in run")


def _json_line(line: str | bytes, where: str) -> dict:
    try:
        return json.loads(line)
    except ValueError:
        raise ValidationError(f"{METRICS_FILE}: {where} is not valid "
                              f"JSON") from None


def iter_ticks(stream: IO[str]):
    """Linear scan over a metrics JSONL stream."""
    for n, line in enumerate(stream, 1):
        line = line.strip()
        if line:
            yield _json_line(line, f"line {n}")


def open_run_file(run_dir: str, name: str, mode: str = "r") -> IO:
    """Open one file of a run directory (text files as ASCII); a missing
    file is a NotFoundError that names it."""
    path = os.path.join(run_dir, name)
    try:
        return open(path, mode, encoding=None if "b" in mode else "ascii")
    except FileNotFoundError:
        raise NotFoundError(f"no {name} in {run_dir!r}") from None


def run_index(run_dir: str) -> list[tuple[int, int, int]]:
    """The parsed metrics.idx of a run directory."""
    with open_run_file(run_dir, INDEX_FILE) as f:
        return read_index(f)


def load_run(run_dir: str, tick: int | None = None) -> list[dict]:
    """Load all tick lines of a run directory or, given a tick, only that
    tick's line, read through the index."""
    if tick is None:
        with open_run_file(run_dir, METRICS_FILE) as f:
            return list(iter_ticks(f))
    index = run_index(run_dir)
    with open_run_file(run_dir, METRICS_FILE, "rb") as f:
        return [seek_tick(index, f, tick)]


def avg_bandwidth(run: Iterable[dict]) -> list[tuple[int, float]]:
    """Per tick, the mean bytes_sent over vehicles active that tick."""
    out = []
    for entry in run:
        vehicles = entry["vehicles"]
        if vehicles:
            mean = sum(v["bytes_sent"] for v in vehicles) / len(vehicles)
        else:
            mean = 0.0
        out.append((entry["tick"], mean))
    return out


def ttv_distribution(run: list[dict], tick: int) -> dict[int, int]:
    """Element-wise sum of the vehicles' TTV histograms at one tick."""
    for entry in run:
        if entry["tick"] == tick:
            total: dict[int, int] = {}
            for v in entry["vehicles"]:
                for delay, count in v["ttv"].items():
                    d = int(delay)
                    total[d] = total.get(d, 0) + count
            return total
    raise NotFoundError(f"tick {tick} not in run data")


def ttv_distribution_total(run: Iterable[dict]) -> dict[int, int]:
    """TTV histogram summed over the whole run."""
    total: dict[int, int] = {}
    for entry in run:
        for v in entry["vehicles"]:
            for delay, count in v["ttv"].items():
                d = int(delay)
                total[d] = total.get(d, 0) + count
    return total


def check_cell_size(cell_size: float) -> None:
    """A CPR cell size must be a positive, finite number of meters."""
    if not 0.0 < cell_size < math.inf:
        raise ConfigError(f"cell size must be positive and finite, "
                          f"not {cell_size!r}")


def cpr(run: list[dict], tick: int,
        cell_size: float) -> dict[tuple[int, int], float]:
    """Cooperative perception ratio heatmap for one tick.

    Per spatial cell: sum of objects not perceived locally divided by the
    sum of locally perceived objects, over the vehicles positioned in the
    cell.  Cells with zero locally perceived objects are undefined and
    omitted.
    """
    check_cell_size(cell_size)
    for entry in run:
        if entry["tick"] == tick:
            remote: dict[tuple[int, int], int] = {}
            local: dict[tuple[int, int], int] = {}
            inv = 1.0 / cell_size
            for v in entry["vehicles"]:
                key = (math.floor(v["x"] * inv), math.floor(v["y"] * inv))
                remote[key] = remote.get(key, 0) + (v["all_objects"]
                                                    - v["local_objects"])
                local[key] = local.get(key, 0) + v["local_objects"]
            return {key: remote[key] / local[key]
                    for key in local if local[key] > 0}
    raise NotFoundError(f"tick {tick} not in run data")

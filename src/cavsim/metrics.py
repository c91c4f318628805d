"""Per-tick metrics: JSON-lines persistence, a byte-offset index, and the
report aggregations (average bandwidth, time-to-verify, cooperative
perception ratio).

One JSON line per tick holds the array of per-vehicle records; a text
index file maps every tick to the byte offset and length of its line so
individual ticks can be read without scanning.  Keys and float formatting
are fixed, so identical runs produce byte-identical files.

A finished run is read one tick line at a time.  The whole-run reports
stream metrics.jsonl through scan_bandwidth and scan_ttv_total, which read
a line in the writer's own form with regular expressions, without building
a dict per record, and decode any other line as JSON, so the result and
the errors are those of avg_bandwidth and the TTV sum over each decoded
line.  Both refuse a line that is not ASCII, and name it.  A one-tick
report reads its one line through the index (load_run), refuses it,
naming the tick, when it is not ASCII, and hands the decoded line to
ttv_distribution or cpr.  Either way a report holds one tick line in
memory, not the run.

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
import re
from functools import cache
from itertools import islice
from json.encoder import encode_basestring_ascii
from time import perf_counter
from typing import IO, Iterable

from .errors import (ConfigError, ContractViolation, NotFoundError,
                     ValidationError)

METRICS_FILE = "metrics.jsonl"
INDEX_FILE = "metrics.idx"

# records written at a time, so a tick line is never held whole
WRITE_CHUNK = 256


def record_json(ctx) -> str:
    """One vehicle's record for a tick, encoded from the SandboxContext
    its modules have just run in: its plate, counters and TTV events, and
    the position of its state.  The line is the one json.dumps gives for
    the record keys above with separators=(",", ":")."""
    return record_at(ctx.plate, record_counters(ctx), ctx.state)


def record_counters(ctx) -> str:
    """The part of ctx's record between the id and the position: the keys
    bytes_sent to errors, each value followed by a comma."""
    ttv_events = ctx.ttv_events
    if ttv_events:
        ttv = "{" + ",".join(f'"{k}":{ttv_events[k]}'
                             for k in sorted(ttv_events)) + "}"
    else:
        ttv = "{}"
    return (f'"bytes_sent":{ctx.bytes_sent},'
            f'"local_objects":{ctx.local_objects},'
            f'"received_objects":{ctx.received_objects},'
            f'"all_objects":{ctx.all_objects},"ttv":{ttv},'
            f'"errors":{ctx.errors},')


def record_at(plate: str, counters: str, state) -> str:
    """A record from its plate, its record_counters part and the state
    that gives its position.  The id goes through the encoder json.dumps
    uses for a str."""
    return (f'{{"id":{encode_basestring_ascii(plate)},{counters}'
            f'"x":{state.x!r},"y":{state.y!r}}}')


@cache
def _line_form():
    """The compiled patterns of a line exactly as MetricsWriter writes it:
    the line with its tick and body, one record, one ttv pair.  Compiled on
    first use, so a run never pays for them.

    Every int has at most 640 digits, the least int_max_str_digits Python
    allows, so json.loads reads it; x and y are JSON numbers with a
    fraction or an exponent, as a float's repr is; ids are JSON strings."""
    nat = "(?:0|[1-9][0-9]{0,639})"
    int_ = "(?:0|-?[1-9][0-9]{0,639})"
    real = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+)"
    text = (r'"[^"\\\x00-\x1f]*'
            r'(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*"')
    pair = f'"{int_}":{nat}'
    record = (
        rf'(\{{"id":{text},"bytes_sent":({nat}),"local_objects":{nat},'
        rf'"received_objects":{nat},"all_objects":{nat},'
        rf'"ttv":\{{((?:{pair}(?:,{pair})*)?)\}},"errors":{nat},'
        rf'"x":{real},"y":{real}\}})')
    return (re.compile(rf'\{{"tick":({int_}),"vehicles":\[(.*)\]\}}\n?')
            .fullmatch, re.compile(record).findall,
            re.compile(r'"(-?[0-9]+)":([0-9]+)').findall)


def scan_line(line: str) -> tuple[int, tuple[str, ...], list] | None:
    """Read a tick line in MetricsWriter's own form without building a
    dict per record: its tick, each record's bytes_sent as text, and the
    (delay, count) pairs of all its records' ttv, in line order.  None
    for any other line (blank, other spacing or key order, a non-finite
    position, a repeated ttv key, a non-int counter, a truncated record),
    which json.loads is left to read."""
    match_line, find_records, find_pairs = _line_form()
    m = match_line(line)
    if m is None:
        return None
    body = m[2]
    records = find_records(body)
    whole, sent, ttvs = zip(*records) if records else ((), (), ())
    # the records found must tile the body, so no byte of it went unread
    if ",".join(whole) != body:
        return None
    pairs = []
    for ttv in filter(None, ttvs):
        found = [(int(d), int(c)) for d, c in find_pairs(ttv)]
        if any(a[0] >= b[0] for a, b in zip(found, found[1:])):
            return None  # json.loads keeps the last of a repeated key
        pairs += found
    return int(m[1]), sent, pairs


class MetricsWriter:
    """Append-only sink writing one JSON line and one index entry per tick.

    It draws each tick's records, already encoded (record_json, or
    record_at for a run), from any iterable and writes them WRITE_CHUNK
    at a time.  `write_s` is the last record_tick's time spent writing,
    which leaves out the drawing of records (a run's agent phase)."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self._data: IO[bytes] = open(os.path.join(directory, METRICS_FILE), "wb")
        try:
            self._index: IO[str] = open(os.path.join(directory, INDEX_FILE),
                                        "w", encoding="ascii")
        except BaseException:
            self._data.close()
            raise
        self._offset = 0
        self._last_tick = None
        self.write_s = 0.0

    def record_tick(self, tick: int, records: Iterable[str]) -> None:
        if self._last_tick is not None and tick <= self._last_tick:
            raise ContractViolation(
                f"ticks must be recorded in increasing order "
                f"({tick} after {self._last_tick})")
        self._last_tick = tick
        write = self._data.write
        start = perf_counter()
        length = write(f'{{"tick":{tick},"vehicles":['.encode("ascii"))
        spent = perf_counter() - start
        records = iter(records)
        sep = ""
        # a record is never empty, so an empty chunk means the end
        while chunk := ",".join(islice(records, WRITE_CHUNK)):
            start = perf_counter()
            length += write((sep + chunk).encode("ascii"))
            spent += perf_counter() - start
            sep = ","
        start = perf_counter()
        length += write(b"]}\n")
        self._index.write(f"{tick} {self._offset} {length}\n")
        self._offset += length
        self.write_s = spent + perf_counter() - start

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
    """Read one tick's line through the index: O(1) reads after lookup.
    The entry is refused before the seek unless its offset lies in the
    data file and its length is positive and no longer than the file, so
    a read never asks for more bytes than the file holds; a line that the
    file cuts short is read as far as the file goes."""
    for t, offset, length in index:
        if t == tick:
            size = data.seek(0, os.SEEK_END)
            if not (0 <= offset < size and 0 < length <= size):
                raise ValidationError(f"{INDEX_FILE}: the entry of tick "
                                      f"{tick} frames no line of "
                                      f"{METRICS_FILE}")
            data.seek(offset)
            line = data.read(length)
            if not line.isascii():
                raise ValidationError(f"{METRICS_FILE}: the line of tick "
                                      f"{tick} is not ASCII text")
            return _json_line(line, f"the line of tick {tick}")
    raise NotFoundError(f"tick {tick} not in run")


def _json_line(line: str | bytes, where: str) -> dict:
    try:
        return json.loads(line)
    except ValueError:
        raise ValidationError(f"{METRICS_FILE}: {where} is not valid "
                              f"JSON") from None


def _decoded(line: str, n: int) -> tuple:
    """Line n of a metrics JSONL stream as JSON: one tick, or none for a
    blank line."""
    line = line.strip()
    return (_json_line(line, f"line {n}"),) if line else ()


def _lines(stream: IO[str]):
    """(n, line n) for each line of a metrics JSONL stream; a line that is
    not ASCII is an error that names it."""
    for n, line in enumerate(stream, 1):
        if not line.isascii():
            raise ValidationError(f"{METRICS_FILE}: line {n} is not ASCII "
                                  f"text")
        yield n, line


def open_run_file(run_dir: str, name: str, mode: str = "r") -> IO:
    """Open one file of a run directory; a missing file is a NotFoundError
    that names it.  Text files read as ASCII, each other byte as a
    character that is not ASCII either (a lone surrogate), so a reader
    can tell where in the file it is."""
    path = os.path.join(run_dir, name)
    text = "b" not in mode
    try:
        return open(path, mode, encoding="ascii" if text else None,
                    errors="surrogateescape" if text else None)
    except FileNotFoundError:
        raise NotFoundError(f"no {name} in {run_dir!r}") from None


def load_run(run_dir: str, tick: int | None) -> dict:
    """One tick's line of a run directory, read through the index: the
    last indexed tick's when tick is None."""
    with open_run_file(run_dir, INDEX_FILE) as f:
        index = read_index(f)
    if tick is None:
        if not index:
            raise NotFoundError("run has no ticks")
        tick = index[-1][0]
    with open_run_file(run_dir, METRICS_FILE, "rb") as f:
        return seek_tick(index, f, tick)


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


def scan_bandwidth(stream: IO[str]) -> list[tuple[int, float]]:
    """avg_bandwidth over the tick lines of a metrics JSONL stream, each
    read by scan_line or, where that refuses it, as JSON."""
    out = []
    for n, line in _lines(stream):
        scanned = scan_line(line)
        if scanned is None:
            out += avg_bandwidth(_decoded(line, n))
        else:
            tick, sent, _ = scanned
            out.append((tick, sum(map(int, sent)) / len(sent) if sent
                        else 0.0))
    return out


def ttv_distribution(entry: dict) -> dict[int, int]:
    """Element-wise sum of the vehicles' TTV histograms in one tick line."""
    return _add_ttv({}, _ttv_pairs((entry,)))


def scan_ttv_total(stream: IO[str]) -> dict[int, int]:
    """The TTV histogram summed over the tick lines of a metrics JSONL
    stream, each read by scan_line or, where that refuses it, as JSON."""
    total: dict[int, int] = {}
    for n, line in _lines(stream):
        scanned = scan_line(line)
        if scanned is None:
            _add_ttv(total, _ttv_pairs(_decoded(line, n)))
        else:
            _add_ttv(total, scanned[2])
    return total


def _ttv_pairs(run: Iterable[dict]):
    """The (delay, count) pairs of decoded tick lines' ttv, in order."""
    for entry in run:
        for v in entry["vehicles"]:
            for delay, count in v["ttv"].items():
                yield int(delay), count


def _add_ttv(total: dict, pairs: Iterable[tuple]) -> dict:
    for delay, count in pairs:
        total[delay] = total.get(delay, 0) + count
    return total


def check_cell_size(cell_size: float) -> None:
    """A CPR cell size must be a positive, finite number of meters whose
    reciprocal, which cpr multiplies positions by, is finite too."""
    if not 0.0 < cell_size < math.inf or 1.0 / cell_size == math.inf:
        raise ConfigError(f"cell size must be positive and finite, with a "
                          f"finite reciprocal, not {cell_size!r}")


def cpr(entry: dict, cell_size: float) -> dict[tuple[int, int], float]:
    """Cooperative perception ratio heatmap of one tick line.

    Per spatial cell: sum of objects not perceived locally divided by the
    sum of locally perceived objects, over the vehicles positioned in the
    cell.  Cells with zero locally perceived objects are undefined and
    omitted.  A finite position whose cell index overflows a float is a
    ConfigError on the cell size.
    """
    check_cell_size(cell_size)
    remote: dict[tuple[int, int], int] = {}
    local: dict[tuple[int, int], int] = {}
    inv = 1.0 / cell_size
    for v in entry["vehicles"]:
        try:
            key = (math.floor(v["x"] * inv), math.floor(v["y"] * inv))
        except OverflowError:
            if math.isinf(v["x"]) or math.isinf(v["y"]):
                raise
            raise ConfigError(
                f"cell size {cell_size!r} is too small: position "
                f"({v['x']!r}, {v['y']!r}) has no cell") from None
        remote[key] = remote.get(key, 0) + (v["all_objects"]
                                            - v["local_objects"])
        local[key] = local.get(key, 0) + v["local_objects"]
    return {key: remote[key] / local[key] for key in local if local[key] > 0}

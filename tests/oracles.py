"""Test-side oracles for what the program computes directly.

`MetricsRecord` with `to_json_obj`/`from_json_obj` is the record as a
plain value, and `finish_record` reads one from a `SandboxContext`: the
tests compare `metrics.record_json` with `json.dumps` of it.
`full_scan_locator` resolves a broadcast's recipients by scanning an
explicit station -> position table, against which the run's sweep-based
delivery is checked.  `decode_cpm` reads a wire payload back by the
format the README defines, against which `serialize_cpm` is checked.
`ttv_distribution_total` sums the TTV histograms of decoded tick lines,
against which the whole-run `ttv` report is checked.  `plate_modules`
follows the documented plate bookkeeping of `object_store` and
`proof_verify` with plain sets, against which the two modules are
checked.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from cavsim.sandbox import SandboxContext


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


def finish_record(ctx: SandboxContext) -> MetricsRecord:
    """The record a vehicle's context holds after its tick."""
    pos = (ctx.state.x, ctx.state.y) if ctx.state is not None else (0.0, 0.0)
    return MetricsRecord(ctx.tick, ctx.plate, ctx.bytes_sent,
                         ctx.local_objects, ctx.received_objects,
                         ctx.all_objects, ctx.ttv_events, ctx.errors, pos)


def full_scan_locator(positions: dict[int, tuple[float, float]],
                      comm_range: float):
    """Reference locator over an explicit station -> position table of
    the send tick: the sender's position is positions[origin]."""
    r2 = comm_range * comm_range

    def locate(origin):
        ox, oy = positions[origin]
        out = []
        for station, (x, y) in positions.items():
            dx = x - ox
            dy = y - oy
            if dx * dx + dy * dy <= r2:
                out.append(station)
        return out

    return locate


def ttv_distribution_total(run) -> dict[int, int]:
    """The TTV histogram summed over decoded tick lines: delay -> count."""
    total: dict[int, int] = {}
    for line in run:
        for v in line["vehicles"]:
            for delay, count in v["ttv"].items():
                total[int(delay)] = total.get(int(delay), 0) + count
    return total


def plate_modules(own: str, provers_required: int, stream):
    """Per (tick, inbox) of `stream`, what `object_store` and
    `proof_verify` report: (local, received, union counts, TTV events as
    a list of (delay, count) in insertion order).  Plates come from every
    object of every CPM but the vehicle's own; a wire CPM is a proof of
    each of its plates by its sender, and a plate is verified, once, when
    it holds `provers_required` distinct provers."""
    local, received = set(), set()
    first_seen, provers, verified = {}, {}, set()
    out = []
    for tick, inbox in stream:
        ttv: dict[int, int] = {}
        for cpm in inbox:
            for obj in cpm.objects:
                plate = obj.plate
                if plate == own:
                    continue
                (local if cpm.local else received).add(plate)
                first_seen.setdefault(plate, tick)
                if cpm.local or plate in verified:
                    continue
                provers.setdefault(plate, set()).add(cpm.sender_station)
                if len(provers[plate]) >= provers_required:
                    verified.add(plate)
                    delay = tick - first_seen[plate]
                    ttv[delay] = ttv.get(delay, 0) + 1
        out.append((len(local), len(received), len(local | received),
                    list(ttv.items())))
    return out


_WIRE_HEADER = struct.Struct("<IIdddH")
_WIRE_OBJECT = struct.Struct("<IdddI")


def decode_cpm(data: bytes):
    """(sender_station, gen_tick, (x, y, heading), [(plate_code, x, y,
    heading, observed_tick), ...]) of a wire payload; AssertionError
    unless its length is exactly what its object count says."""
    station, tick, x, y, heading, count = _WIRE_HEADER.unpack_from(data)
    assert len(data) == _WIRE_HEADER.size + _WIRE_OBJECT.size * count
    objects = [_WIRE_OBJECT.unpack_from(data, offset) for offset in
               range(_WIRE_HEADER.size, len(data), _WIRE_OBJECT.size)]
    return station, tick, (x, y, heading), objects

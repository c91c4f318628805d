"""Single-hop broadcast network with a canonical wire format.

Propagation is lossless unit-disk: a broadcast reaches every station
within communication range of the sender's position at send time
(inclusive boundary), exactly one tick later.  There is no channel model,
contention, or loss; the point is deterministic data flow and byte
accounting, not radio realism.

Wire format (little-endian, bit-exact):
    u32 sender_station, u32 gen_tick, f64 x, f64 y, f64 heading,
    u16 object_count, then per object:
    u32 plate_code, f64 x, f64 y, f64 heading, u32 observed_tick.
A CPM's `local` flag and private extensions are in-vehicle only:
shb_broadcast strips both, so neither reaches a recipient or the wire.
Plate strings map to dense u32 codes through the plate registry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import ConfigError, NotFoundError, ValidationError
from .identity import PlateRegistry
from .messages import Cpm, PerceivedObject

_HEADER = struct.Struct("<IIdddH")
_OBJECT = struct.Struct("<IdddI")

HEADER_SIZE = _HEADER.size
OBJECT_SIZE = _OBJECT.size

MAX_OBJECTS = 0xFFFF


def cpm_wire_size(cpm: Cpm) -> int:
    """Serialized length in bytes (in-vehicle parts excluded by definition)."""
    return HEADER_SIZE + OBJECT_SIZE * len(cpm.objects)


def _check_object_count(cpm: Cpm) -> None:
    if len(cpm.objects) > MAX_OBJECTS:
        raise ValidationError(f"too many objects for the wire: {len(cpm.objects)}")


def serialize_cpm(cpm: Cpm, registry: PlateRegistry) -> bytes:
    """Canonical wire encoding; unseen plates are interned on the fly."""
    _check_object_count(cpm)
    x, y, heading = cpm.sender_pose
    parts = [_HEADER.pack(cpm.sender_station, cpm.gen_tick, x, y, heading,
                          len(cpm.objects))]
    intern = registry.intern
    for o in cpm.objects:
        parts.append(_OBJECT.pack(intern(o.plate), o.x, o.y, o.heading,
                                  o.observed_tick))
    return b"".join(parts)


def deserialize_cpm(data: bytes, registry: PlateRegistry) -> Cpm:
    """Decode a wire payload; fails on truncation or trailing bytes."""
    if len(data) < HEADER_SIZE:
        raise ValidationError("truncated CPM header")
    station, tick, x, y, heading, count = _HEADER.unpack_from(data)
    expected = HEADER_SIZE + OBJECT_SIZE * count
    if len(data) != expected:
        raise ValidationError(
            f"CPM length {len(data)} does not match object count {count}")
    objects = []
    offset = HEADER_SIZE
    for _ in range(count):
        code, ox, oy, oh, otick = _OBJECT.unpack_from(data, offset)
        objects.append(PerceivedObject(registry.name_of(code), ox, oy, oh, otick))
        offset += OBJECT_SIZE
    return Cpm(station, tick, (x, y, heading), tuple(objects), {})


@dataclass(slots=True)
class PendingDelivery:
    """One sealed broadcast awaiting delivery at send_tick + 1.

    Its wire `payload` is encoded each time it is read, not at seal: a run
    delivers the CPM itself and never reads it, so the plate registry
    interns only the plates of payloads that something encodes.  Not
    frozen, which would make it several times as costly to build, and so
    not hashable; treat it as read-only.
    """

    cpm: Cpm
    origin: int
    origin_pos: tuple[float, float]
    send_tick: int
    registry: PlateRegistry = field(repr=False, compare=False)

    @property
    def payload(self) -> bytes:
        return serialize_cpm(self.cpm, self.registry)


class NetworkSim:
    """Collects broadcasts during a tick and delivers them the next tick.

    Broadcast calls only append to a buffer.  seal() orders the buffer
    deterministically (sender station, then that sender's send order);
    step() resolves recipients and hands out inboxes.
    """

    def __init__(self, comm_range: float, registry: PlateRegistry):
        if comm_range <= 0:
            raise ConfigError("comm_range must be positive")
        self.comm_range = comm_range
        self.registry = registry
        self._positions: dict[int, tuple[float, float]] = {}
        self._buffer: list[tuple[int, int, int, tuple[float, float], Cpm]] = []
        self._seq: dict[int, int] = {}
        self._pending: list[tuple[PendingDelivery, int]] = []

    def update_positions(self, positions: dict[int, tuple[float, float]]) -> None:
        """Replace the station position table for the current tick.

        The network takes ownership of `positions`: it is kept, not
        copied, so the caller must not change it afterwards.
        """
        self._positions = positions

    def shb_broadcast(self, sender: int, cpm: Cpm, tick: int) -> int:
        """Queue a single-hop broadcast; returns the wire byte length.

        The local flag and extensions are stripped.  The sender position
        is captured now so recipients are resolved against send-time
        geometry.
        """
        pos = self._positions.get(sender)
        if pos is None:
            raise NotFoundError(f"station {sender} has no registered position")
        cpm = cpm.without_extensions()
        size = cpm_wire_size(cpm)
        seq = self._seq.get(sender, 0)
        self._seq[sender] = seq + 1
        self._buffer.append((sender, seq, tick, pos, cpm))
        return size

    def seal(self) -> None:
        """Queue the buffered broadcasts for delivery in deterministic
        order; a CPM with more objects than the wire can count fails here."""
        buffered = self._buffer
        self._buffer = []
        self._seq = {}
        buffered.sort(key=lambda e: (e[0], e[1]))
        for sender, seq, tick, pos, cpm in buffered:
            _check_object_count(cpm)
            self._pending.append(
                (PendingDelivery(cpm, sender, pos, tick, self.registry), seq))

    def pending_deliveries(self) -> list[PendingDelivery]:
        """Sealed, not yet delivered broadcasts (for inspection/tests)."""
        return [entry[0] for entry in self._pending]

    def step(self, tick: int, locator) -> dict[int, list[Cpm]]:
        """Deliver everything sent before `tick` and return the inboxes.

        locator(delivery) is called with each due PendingDelivery and must
        yield the stations within comm_range of delivery.origin_pos,
        evaluated against send-time positions; the sender itself is always
        excluded.  Inboxes are ordered by (send tick, sender station, send
        order).
        """
        self.seal()
        due = []
        later = []
        for entry in self._pending:
            if entry[0].send_tick < tick:
                due.append(entry)
            else:
                later.append(entry)
        self._pending = later
        due.sort(key=lambda e: (e[0].send_tick, e[0].origin, e[1]))
        inboxes: dict[int, list[Cpm]] = {}
        for delivery, _seq in due:
            cpm = delivery.cpm
            origin = delivery.origin
            for station in locator(delivery):
                if station == origin:
                    continue
                box = inboxes.get(station)
                if box is None:
                    inboxes[station] = [cpm]
                else:
                    box.append(cpm)
        return inboxes


def full_scan_locator(positions: dict[int, tuple[float, float]],
                      comm_range: float):
    """Reference locator over an explicit station->position table."""
    r2 = comm_range * comm_range

    def locate(delivery):
        ox, oy = delivery.origin_pos
        out = []
        for station, (x, y) in positions.items():
            dx = x - ox
            dy = y - oy
            if dx * dx + dy * dy <= r2:
                out.append(station)
        return out

    return locate

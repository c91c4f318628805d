"""Single-hop broadcast network with a canonical wire format.

Propagation is lossless unit-disk: a broadcast reaches every station
within communication range of the sender's position at send time
(inclusive boundary), exactly one tick later.  The network holds no
positions: whoever steps it resolves recipients (a run reads its
neighbour sweep of the send tick).  There is no channel model,
contention, or loss; the point is deterministic data flow and byte
accounting, not radio realism.

Wire format (little-endian, bit-exact):
    u32 sender_station, u32 gen_tick, f64 x, f64 y, f64 heading,
    u16 object_count, then per object:
    u32 plate_code, f64 x, f64 y, f64 heading, u32 observed_tick.
A CPM's `local` flag is in-vehicle only: shb_broadcast clears it, so it
never reaches a recipient or the wire.  Plate strings map to dense u32
codes through a plate registry.  A run needs only the encoded length,
cpm_wire_size; serialize_cpm defines the bytes it counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import ValidationError
from .identity import PlateRegistry
from .messages import Cpm

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


@dataclass(slots=True)
class PendingDelivery:
    """One sealed broadcast awaiting delivery at send_tick + 1.

    Not frozen, which would make it several times as costly to build, and
    so not hashable; treat it as read-only.
    """

    cpm: Cpm
    origin: int
    send_tick: int


class NetworkSim:
    """Collects broadcasts during a tick and delivers them the next tick.

    Broadcast calls only append to a buffer.  seal() queues it for
    delivery in send order; step() resolves recipients and hands out
    inboxes.
    """

    def __init__(self):
        self._buffer: list[tuple[int, int, Cpm]] = []
        self._pending: list[PendingDelivery] = []

    def shb_broadcast(self, sender: int, cpm: Cpm, tick: int) -> int:
        """Queue a single-hop broadcast; returns the wire byte length.

        The local flag is cleared.  Recipients are resolved at delivery,
        by the locator, against send-time geometry.
        """
        cpm = cpm.without_local()
        self._buffer.append((sender, tick, cpm))
        return cpm_wire_size(cpm)

    def seal(self) -> None:
        """Queue the buffered broadcasts for delivery in send order; a
        CPM with more objects than the wire can count fails here."""
        buffered = self._buffer
        self._buffer = []
        for sender, tick, cpm in buffered:
            _check_object_count(cpm)
            self._pending.append(PendingDelivery(cpm, sender, tick))

    def pending_deliveries(self) -> list[PendingDelivery]:
        """Sealed, not yet delivered broadcasts (for inspection/tests)."""
        return list(self._pending)

    def step(self, tick: int, locator) -> dict[int, list[Cpm]]:
        """Deliver everything sent before `tick` and return the inboxes.

        locator(delivery) is called with each due PendingDelivery and must
        yield the stations within comm_range of the sender (station
        delivery.origin), evaluated against send-time positions; the
        sender itself is always excluded.  Inboxes are ordered by (send
        tick, sender station, send order), whatever seals fell between.
        """
        self.seal()
        due = []
        later = []
        for delivery in self._pending:
            if delivery.send_tick < tick:
                due.append(delivery)
            else:
                later.append(delivery)
        self._pending = later
        # stable: one sender's broadcasts of one tick keep their send order
        due.sort(key=lambda d: (d.send_tick, d.origin))
        inboxes: dict[int, list[Cpm]] = {}
        for delivery in due:
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

"""Single-hop broadcast network with a canonical wire format.

Propagation is lossless unit-disk: a broadcast reaches every station
within communication range of the sender's position at send time
(inclusive boundary), exactly one tick later.  The network holds no
positions: recipients are resolved when the tick's broadcasts are
sealed, by a locator that a run answers from that tick's neighbour
sweep, and the next step hands the inboxes out, as a mapping on which a
station with no inbox is a KeyError.  There is no channel model,
contention, or loss; the point is deterministic data flow and byte
accounting, not radio realism.

Wire format (little-endian, bit-exact):
    u32 sender_station, u32 gen_tick, f64 x, f64 y, f64 heading,
    u16 object_count, then per object:
    u32 plate_code, f64 x, f64 y, f64 heading, u32 observed_tick.
shb_broadcast is the network's one intake, and the one place a wire CPM
is made: it refuses a CPM with more objects than the u16 count can hold
(ValidationError, raised in the sending module, so it is that vehicle's
error), then builds the CPM it delivers from the sent one's fields: its
objects as a tuple, the in-vehicle `local` flag cleared, so the flag
never reaches a recipient or the wire, and the plate mask of those
objects from the network's plate registry, whatever mask the sender set
(an object with no plate to code fails the sender the same way, so no
recipient gets it).  The sender's CPM is left as it was.  Past the
intake, a buffered CPM is only filed.  Plate strings map to dense u32
codes through a plate registry, the run's one table.  A run needs only
the encoded length, cpm_wire_size; serialize_cpm defines the bytes it
counts.
"""

from __future__ import annotations

import struct
from collections import defaultdict

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


class NetworkSim:
    """Collects a tick's broadcasts and delivers them the next tick.

    A broadcast is checked and rebuilt as a wire CPM, with its plate
    mask, as it is taken in, then appended to a buffer.  seal(locator)
    files each delivery of a buffered broadcast into its recipient's
    inbox, a list in a defaultdict; step() hands out, and clears, the
    inboxes sealed since the last step, as a mapping with no default.
    `registry` is the plate registry the masks are built from (a fresh
    one by default).
    """

    def __init__(self, registry: PlateRegistry | None = None):
        self.registry = PlateRegistry() if registry is None else registry
        self._buffer: list[tuple[int, Cpm]] = []
        self._inboxes: defaultdict[int, list[Cpm]] = defaultdict(list)

    def shb_broadcast(self, sender: int, cpm: Cpm) -> int:
        """Buffer a single-hop broadcast; returns the wire byte length.

        A CPM with more objects than the wire can count raises
        ValidationError, and one with an object that has no plate to code
        raises as the registry does; either buffers nothing.  What is
        buffered, and delivered, is a new CPM: the sent one's header, its
        objects as a tuple, local False and the mask of those objects.
        Recipients are resolved at the seal.
        """
        _check_object_count(cpm)
        objects = tuple(cpm.objects)
        cpm = Cpm(cpm.sender_station, cpm.gen_tick, cpm.sender_pose,
                  objects, False, self.registry.mask(objects))
        self._buffer.append((sender, cpm))
        return cpm_wire_size(cpm)

    def seal(self, locator) -> None:
        """Resolve the buffered broadcasts' recipients, in order of sender
        station and then send order.

        locator(origin) must yield the stations within comm_range of
        station origin at send time; the sender itself is excluded.
        """
        buffered = self._buffer
        self._buffer = []
        # stable: one sender's broadcasts keep their send order
        buffered.sort(key=lambda b: b[0])
        inboxes = self._inboxes
        for origin, cpm in buffered:
            for station in locator(origin):
                if station != origin:
                    inboxes[station].append(cpm)

    def step(self) -> dict[int, list[Cpm]]:
        """The inboxes sealed since the last step, {station: [Cpm, ...]};
        a station with no inbox is a KeyError."""
        inboxes = self._inboxes
        self._inboxes = defaultdict(list)
        inboxes.default_factory = None
        return inboxes

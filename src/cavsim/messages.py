"""Message shapes shared by perception, networking, and vehicle modules.

A collective perception message (CPM) is the single data shape flowing
both on the V2X network and between in-vehicle modules.  One part of a
CPM is in-vehicle only: the `local` flag, set on a CPM the vehicle's own
camera produced.  The network clears it as it takes a CPM in, so it
never reaches a recipient or the wire.

A CPM also carries `mask`, derived data: an int with bit c set for
each object whose plate has code c in the run's plate registry
(identity.py).  Only the network sets it: its intake builds every CPM it
delivers, mask included, from the objects the sent CPM carries, and
ignores any mask the sender set.  A CPM made in the vehicle has none; the
object store builds its mask as it reads it.  It plays no part in
equality, repr or the wire.

PerceivedObject and Cpm are plain slots dataclasses, not frozen ones:
a frozen dataclass costs several times as much to build, and these are
built per perceived object and per broadcast.  A value may be shared by
many modules and recipients, so treat it as read-only.  Not being
frozen, neither is hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class PerceivedObject:
    """One observed vehicle: numberplate plus ground-truth pose.

    Read-only by convention (see the module docstring).
    """

    plate: str
    x: float
    y: float
    heading: float
    observed_tick: int


@dataclass(slots=True)
class Cpm:
    """Collective perception message.

    Read-only by convention (see the module docstring).  `local` marks a
    CPM produced inside the vehicle; it never leaves the vehicle.  `mask`
    is the objects' plate mask on a CPM the network delivers, else None;
    only the network sets it.
    """

    sender_station: int
    gen_tick: int
    sender_pose: tuple[float, float, float]
    objects: tuple[PerceivedObject, ...] = ()
    local: bool = False
    mask: int | None = field(default=None, compare=False, repr=False)

"""Identity bookkeeping: plate <-> station match table and plate codes.

Matching a numberplate to a V2X station identity is an open problem in the
real world; the simulator sidesteps it with a ground-truth match table
that a run keeps for its whole length: a vehicle is added when it spawns
and removed when it despawns.  Plates are the opaque trace
vehicle ids; stations are dense integers assigned at spawn (0 is reserved
for "no station").  The plate registry gives every plate string a dense
integer code, its order of first interning: a run keeps one, interns each
trace id at its vehicle's first spawn and any other plate (a fabricated
one) when a CPM first carries it, so one string has one code whenever it
first appears.  The wire format carries the codes, and a CPM's plate
mask has bit c set for each of its plates of code c.
"""

from __future__ import annotations

from .errors import NotFoundError


class PlateRegistry:
    """Append-only interning table plate string -> dense wire code."""

    def __init__(self):
        self._codes: dict[str, int] = {}

    def intern(self, plate: str) -> int:
        code = self._codes.get(plate)
        if code is None:
            code = self._codes[plate] = len(self._codes)
        return code

    def mask(self, objects) -> int:
        """The plate mask of `objects` (PerceivedObjects): bit c set for
        each plate of code c; plates not seen yet are interned."""
        codes = self._codes
        mask = 0
        for o in objects:
            code = codes.get(o.plate)
            if code is None:
                code = self.intern(o.plate)
            mask |= 1 << code
        return mask

    def __len__(self) -> int:
        return len(self._codes)


class MatchTable:
    """Ground-truth bijection between alive plates and stations.

    Connected vehicles map to their station, unconnected vehicles are
    present with no station.  The table starts empty and follows spawns
    and despawns through add and remove.
    """

    def __init__(self):
        self._station_of: dict[str, int | None] = {}
        self._plate_of: dict[int, str] = {}

    def add(self, plate: str, station: int | None) -> None:
        self._station_of[plate] = station
        if station is not None:
            self._plate_of[station] = plate

    def remove(self, plate: str) -> None:
        if (station := self._station_of.pop(plate)) is not None:
            del self._plate_of[station]

    def station_of(self, plate: str) -> int | None:
        try:
            return self._station_of[plate]
        except KeyError:
            raise NotFoundError(f"unknown plate {plate!r}") from None

    def stations_of(self, vehicles) -> list[int]:
        """The stations of the connected ones among `vehicles` (anything
        with the `id` of a plate in the table, such as trace states), in
        order: one lookup each, for a broadcast's recipients, which are
        resolved from the sweep of its tick when that tick is sealed."""
        station_of = self._station_of
        return [station for v in vehicles
                if (station := station_of[v.id]) is not None]

    def plate_of(self, station: int) -> str:
        try:
            return self._plate_of[station]
        except KeyError:
            raise NotFoundError(f"unknown station {station}") from None

    def __len__(self) -> int:
        """Number of connected vehicles currently alive."""
        return len(self._plate_of)

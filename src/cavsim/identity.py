"""Identity bookkeeping: plate <-> station match table and plate codes.

Matching a numberplate to a V2X station identity is an open problem in the
real world; the simulator sidesteps it with a ground-truth match table
rebuilt from the vehicle registry each tick.  Plates are the opaque trace
vehicle ids; stations are dense integers assigned at spawn (0 is reserved
for "no station").  The plate registry assigns every plate string a dense
integer code for the wire format; codes are append-only for the lifetime
of a run so old messages always decode.
"""

from __future__ import annotations

from .errors import NotFoundError


class PlateRegistry:
    """Append-only interning table plate string <-> dense wire code."""

    def __init__(self):
        self._codes: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, plate: str) -> int:
        code = self._codes.get(plate)
        if code is None:
            code = len(self._names)
            self._codes[plate] = code
            self._names.append(plate)
        return code

    def code_of(self, plate: str) -> int:
        code = self._codes.get(plate)
        if code is None:
            raise NotFoundError(f"unregistered plate {plate!r}")
        return code

    def name_of(self, code: int) -> str:
        if 0 <= code < len(self._names):
            return self._names[code]
        raise NotFoundError(f"unknown plate code {code}")

    def __len__(self) -> int:
        return len(self._names)


class MatchTable:
    """Ground-truth bijection between alive plates and stations.

    Built from the full alive-vehicle registry: connected vehicles map to
    their station, unconnected vehicles are present with no station.  The
    table takes ownership of `stations_by_plate`: it is kept, not copied,
    so the caller must not change it afterwards.
    """

    def __init__(self, stations_by_plate: dict[str, int | None]):
        self._station_of = stations_by_plate
        self._plate_of: dict[int, str] = {}
        for plate, station in self._station_of.items():
            if station is not None:
                self._plate_of[station] = plate

    def station_of(self, plate: str) -> int | None:
        try:
            return self._station_of[plate]
        except KeyError:
            raise NotFoundError(f"unknown plate {plate!r}") from None

    def stations_of(self, vehicles) -> list[int]:
        """The stations of the connected ones among `vehicles` (anything
        with the `id` of a plate in the table, such as trace states), in
        order: one lookup each, for a whole delivery's recipients."""
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

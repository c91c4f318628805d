import pytest

from cavsim.errors import NotFoundError
from cavsim.identity import MatchTable, PlateRegistry


def test_registry_interning_stable():
    reg = PlateRegistry()
    a = reg.intern("veh-a")
    b = reg.intern("veh-b")
    assert a != b
    assert reg.intern("veh-a") == a
    assert reg.name_of(a) == "veh-a"
    assert reg.code_of("veh-b") == b
    assert len(reg) == 2


def test_registry_unknown():
    reg = PlateRegistry()
    with pytest.raises(NotFoundError):
        reg.code_of("nope")
    with pytest.raises(NotFoundError):
        reg.name_of(17)


def test_match_connected_vehicle():
    table = MatchTable({"a": 1, "b": 2, "u": None})
    assert table.station_of("a") == 1
    assert table.plate_of(2) == "b"


def test_match_unconnected_is_none():
    table = MatchTable({"a": 1, "u": None})
    assert table.station_of("u") is None


def test_match_unknown_plate_and_station():
    table = MatchTable({"a": 1})
    with pytest.raises(NotFoundError):
        table.station_of("ghost")
    with pytest.raises(NotFoundError):
        table.plate_of(99)  # despawned / never assigned


def test_match_mutual_inverse():
    table = MatchTable({f"v{i}": i for i in range(1, 20)})
    for station in range(1, 20):
        assert table.station_of(table.plate_of(station)) == station


def test_match_size_counts_connected_only():
    table = MatchTable({"a": 1, "b": 2, "c": 3, "u1": None, "u2": None})
    assert len(table) == 3


def test_stations_of_keeps_order_and_skips_unconnected():
    from cavsim.trace import VehicleState

    table = MatchTable({"a": 3, "u": None, "b": 1, "c": 7})
    vehicles = [VehicleState(p, 0.0, 0.0, 0.0) for p in ("c", "u", "a", "b")]
    assert table.stations_of(vehicles) == [7, 3, 1]
    assert table.stations_of([]) == []
    assert [table.station_of(v.id) for v in vehicles] == [7, None, 3, 1]

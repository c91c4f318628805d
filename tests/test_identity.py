import pytest

from cavsim.errors import NotFoundError
from cavsim.identity import MatchTable, PlateRegistry
from cavsim.sandbox import MODULES, FlowGraph, VehicleTypeSpec, register_module
from cavsim.scenario import ScenarioConfig, run
from cavsim.trace import TraceTick, VehicleState
from conftest import table_of


def test_registry_interning_stable():
    reg = PlateRegistry()
    a = reg.intern("veh-a")
    b = reg.intern("veh-b")
    assert (a, b) == (0, 1)  # codes follow the order of first interning
    assert reg.intern("veh-a") == a
    assert reg.intern("veh-b") == b
    assert len(reg) == 2


def test_match_connected_vehicle():
    table = table_of({"a": 1, "b": 2, "u": None})
    assert table.station_of("a") == 1
    assert table.plate_of(2) == "b"


def test_match_unconnected_is_none():
    table = table_of({"a": 1, "u": None})
    assert table.station_of("u") is None


def test_match_unknown_plate_and_station():
    table = table_of({"a": 1})
    with pytest.raises(NotFoundError):
        table.station_of("ghost")
    with pytest.raises(NotFoundError):
        table.plate_of(99)  # despawned / never assigned


def test_match_mutual_inverse():
    table = table_of({f"v{i}": i for i in range(1, 20)})
    for station in range(1, 20):
        assert table.station_of(table.plate_of(station)) == station


def test_match_size_counts_connected_only():
    table = table_of({"a": 1, "b": 2, "c": 3, "u1": None, "u2": None})
    assert len(table) == 3


def test_stations_of_keeps_order_and_skips_unconnected():
    from cavsim.trace import VehicleState

    table = table_of({"a": 3, "u": None, "b": 1, "c": 7})
    vehicles = [VehicleState(p, 0.0, 0.0, 0.0) for p in ("c", "u", "a", "b")]
    assert table.stations_of(vehicles) == [7, 3, 1]
    assert table.stations_of([]) == []
    assert [table.station_of(v.id) for v in vehicles] == [7, None, 3, 1]


def test_match_add_and_remove():
    table = MatchTable()
    table.add("a", 1)
    table.add("u", None)
    assert (table.station_of("a"), table.plate_of(1)) == (1, "a")
    assert table.station_of("u") is None and len(table) == 1
    table.remove("a")
    table.remove("u")
    assert len(table) == 0
    with pytest.raises(NotFoundError):
        table.station_of("a")
    with pytest.raises(NotFoundError):
        table.plate_of(1)
    with pytest.raises(NotFoundError):
        table.station_of("u")


# --- the run's one table -----------------------------------------------------

class ProbeModule:
    """Entry module that logs what its vehicle's context shows each tick:
    (tick, plate, station, station_of(plate), the senders of its network
    inbox, and plate_of of every station logged so far, None where that
    raises NotFoundError)."""

    def __init__(self, log):
        self.log = log

    def process(self, inbox, ctx):
        plates = {}
        for entry in self.log:
            station = entry[2]
            if station not in plates:
                try:
                    plates[station] = ctx.plate_of(station)
                except NotFoundError:
                    plates[station] = None
        self.log.append((ctx.tick, ctx.plate, ctx.station,
                         ctx.station_of(ctx.plate),
                         [cpm.sender_station for cpm in inbox], plates))
        return []


def beacon_run(tmp_path, ticks):
    """Run `ticks` ({tick: {id: (x, y)}}) with every vehicle a connected
    beacon (a header-only broadcast every tick) that runs ProbeModule;
    returns {(tick, plate): log entry}."""
    beacon = VehicleTypeSpec("Beacon", FlowGraph(("spam_tx", "probe")),
                             ("probe",), True, {"spam_tx": {"k": 0}})
    trace = [TraceTick(t, tuple(VehicleState(vid, x, y, 0.0)
                                for vid, (x, y) in states.items()))
             for t, states in sorted(ticks.items())]
    log = []
    register_module("probe", lambda: ProbeModule(log))
    try:
        run(ScenarioConfig(out_dir=str(tmp_path / "out"),
                           mix=(("Beacon", 1.0),),
                           extra_types={"Beacon": beacon}), trace=trace)
    finally:
        del MODULES["probe"]
    return {(entry[0], entry[1]): entry for entry in log}


def test_vehicle_that_comes_back_gets_a_new_station(tmp_path):
    near = {"a": (0.0, 0.0), "b": (20.0, 0.0)}
    log = beacon_run(tmp_path, {0: near, 1: near, 2: {"b": (20.0, 0.0)},
                                3: near})
    first = log[0, "a"][2]
    assert log[1, "a"][2] == first and log[1, "a"][3] == first
    again = log[3, "a"][2]
    assert again is not None and again != first
    assert log[3, "a"][3] == again  # station_of follows the new station
    assert log[1, "b"][5][first] == "a"
    assert log[2, "b"][5][first] is None  # despawned: NotFoundError
    assert log[3, "b"][5][first] is None
    assert log[3, "b"][5][again] == "a"
    assert log[3, "a"][5][first] is None


def test_despawned_sender_still_reaches_its_last_neighbours(tmp_path):
    # s broadcasts at ticks 0 and 1 and is gone at tick 2; its tick-1 CPM
    # still reaches r, which stayed, and not far, which was out of range
    # at tick 1 and is near at tick 2
    log = beacon_run(tmp_path, {
        0: {"s": (0.0, 0.0), "r": (50.0, 0.0), "far": (250.0, 0.0)},
        1: {"s": (0.0, 0.0), "r": (50.0, 0.0), "far": (290.0, 100.0)},
        2: {"r": (50.0, 0.0), "far": (10.0, 0.0)},
    })
    s, r, far = (log[0, p][2] for p in ("s", "r", "far"))
    assert log[1, "r"][4] == [s, far]
    assert log[2, "r"][4] == [s, far]
    assert log[2, "far"][4] == [r]
    assert log[2, "r"][5][s] is None  # the sender's station is gone now


def test_broadcasts_cross_a_tick_gap_once(tmp_path):
    # the trace skips ticks 2 and 3: tick 1's broadcasts arrive at tick 4,
    # once, at tick 1's comm-range neighbours only; c, which came into
    # range only by tick 4, receives nothing, and neither does anyone
    # from tick 0, when all three were out of range
    log = beacon_run(tmp_path, {
        0: {"a": (0.0, 0.0), "b": (1000.0, 0.0), "c": (2000.0, 0.0)},
        1: {"a": (0.0, 0.0), "b": (50.0, 0.0), "c": (2000.0, 0.0)},
        4: {"a": (0.0, 0.0), "b": (50.0, 0.0), "c": (100.0, 0.0)},
    })
    a, b = (log[0, p][2] for p in ("a", "b"))
    assert [log[1, p][4] for p in ("a", "b", "c")] == [[], [], []]
    assert log[4, "a"][4] == [b]
    assert log[4, "b"][4] == [a]
    assert log[4, "c"][4] == []
    assert sorted(log) == [(t, p) for t in (0, 1, 4) for p in ("a", "b", "c")]

import math
import random

import pytest

from cavsim.errors import NotFoundError, ValidationError
from cavsim.identity import PlateRegistry
from cavsim.messages import Cpm, PerceivedObject
from cavsim.network import (HEADER_SIZE, OBJECT_SIZE, NetworkSim,
                            cpm_wire_size, deserialize_cpm, full_scan_locator,
                            serialize_cpm)


def make_cpm(station=1, tick=0, objects=(), ext=None):
    return Cpm(station, tick, (1.0, 2.0, 0.5), tuple(objects), ext or {})


def obj(plate, tick=0):
    return PerceivedObject(plate, 10.0, -3.5, 0.25, tick)


def test_wire_sizes():
    assert HEADER_SIZE == 34
    assert OBJECT_SIZE == 32
    assert cpm_wire_size(make_cpm()) == 34
    assert cpm_wire_size(make_cpm(objects=[obj("a"), obj("b")])) == 34 + 64


def test_serialize_roundtrip():
    reg = PlateRegistry()
    cpm = make_cpm(objects=[obj("a"), obj("b", 3)])
    data = serialize_cpm(cpm, reg)
    assert len(data) == cpm_wire_size(cpm)
    assert deserialize_cpm(data, reg) == cpm


def test_serialize_is_canonical():
    reg = PlateRegistry()
    cpm = make_cpm(objects=[obj("a")])
    data = serialize_cpm(cpm, reg)
    again = serialize_cpm(deserialize_cpm(data, reg), reg)
    assert again == data


def test_deserialize_rejects_garbage():
    reg = PlateRegistry()
    with pytest.raises(ValidationError):
        deserialize_cpm(b"\x00" * 10, reg)
    data = serialize_cpm(make_cpm(objects=[obj("a")]), reg)
    with pytest.raises(ValidationError):
        deserialize_cpm(data + b"\x00", reg)
    with pytest.raises(ValidationError):
        deserialize_cpm(data[:-1], reg)


def test_deserialize_unknown_plate_code():
    reg = PlateRegistry()
    data = serialize_cpm(make_cpm(objects=[obj("a")]), reg)
    with pytest.raises(NotFoundError):
        deserialize_cpm(data, PlateRegistry())


def network_with(positions, comm_range=300.0):
    net = NetworkSim(comm_range, PlateRegistry())
    net.update_positions(positions)
    return net


def test_unregistered_sender():
    net = network_with({1: (0.0, 0.0)})
    with pytest.raises(NotFoundError):
        net.shb_broadcast(2, make_cpm(station=2), 0)


def test_empty_cpm_header_only_byte_count():
    net = network_with({1: (0.0, 0.0), 2: (10.0, 0.0)})
    size = net.shb_broadcast(1, make_cpm(station=1), 0)
    assert size == 34
    inboxes = net.step(1, full_scan_locator({1: (0.0, 0.0), 2: (10.0, 0.0)},
                                            300.0))
    assert [c.sender_station for c in inboxes[2]] == [1]
    assert 1 not in inboxes


def test_extensions_stripped_before_wire():
    net = network_with({1: (0.0, 0.0), 2: (10.0, 0.0)})
    cpm = make_cpm(station=1, ext={"secret": b"xyz"})
    size = net.shb_broadcast(1, cpm, 0)
    assert size == 34  # extensions add nothing to the wire
    net.seal()
    (pd,) = net.pending_deliveries()
    assert len(pd.payload) == 34
    inboxes = net.step(1, full_scan_locator({2: (10.0, 0.0)}, 300.0))
    assert inboxes[2][0].extensions == {}


def test_message_values_have_no_instance_dict():
    net = network_with({1: (0.0, 0.0)})
    net.shb_broadcast(1, make_cpm(station=1, objects=[obj("a")]), 0)
    net.seal()
    (pd,) = net.pending_deliveries()
    for value in (obj("a"), make_cpm(), pd):
        assert not hasattr(value, "__dict__")


def test_no_station_in_range_still_credits_bytes():
    net = network_with({1: (0.0, 0.0), 2: (10_000.0, 0.0)})
    size = net.shb_broadcast(1, make_cpm(station=1), 0)
    assert size > 0
    inboxes = net.step(1, full_scan_locator({1: (0.0, 0.0),
                                             2: (10_000.0, 0.0)}, 300.0))
    assert inboxes == {}


def test_boundary_distance_inclusive():
    positions = {1: (0.0, 0.0), 2: (300.0, 0.0)}
    net = network_with(positions)
    net.shb_broadcast(1, make_cpm(station=1), 0)
    inboxes = net.step(1, full_scan_locator(positions, 300.0))
    assert list(inboxes) == [2]


def test_one_tick_latency():
    positions = {1: (0.0, 0.0), 2: (10.0, 0.0)}
    net = network_with(positions)
    locator = full_scan_locator(positions, 300.0)
    assert net.step(0, locator) == {}
    net.shb_broadcast(1, make_cpm(station=1, tick=0), 0)
    # still nothing in the same tick
    assert net.step(0, locator) == {}
    inboxes = net.step(1, locator)
    assert len(inboxes[2]) == 1
    # delivered exactly once
    assert net.step(2, locator) == {}


def test_three_station_cluster():
    positions = {1: (0.0, 0.0), 2: (5.0, 0.0), 3: (0.0, 5.0)}
    net = network_with(positions)
    for st in (1, 2, 3):
        net.shb_broadcast(st, make_cpm(station=st, tick=0), 0)
    inboxes = net.step(1, full_scan_locator(positions, 300.0))
    assert {st: len(box) for st, box in inboxes.items()} == {1: 2, 2: 2, 3: 2}
    for st, box in inboxes.items():
        senders = [c.sender_station for c in box]
        assert st not in senders
        assert senders == sorted(senders)


def test_conservation_random():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(1, 15)
        positions = {i: (rng.uniform(0, 600), rng.uniform(0, 600))
                     for i in range(1, n + 1)}
        comm = rng.uniform(50, 300)
        net = NetworkSim(comm, PlateRegistry())
        net.update_positions(positions)
        expected = 0
        senders = rng.sample(sorted(positions), rng.randint(0, n))
        for st in senders:
            net.shb_broadcast(st, make_cpm(station=st, tick=0), 0)
            sx, sy = positions[st]
            expected += sum(
                1 for other, (x, y) in positions.items()
                if other != st and math.hypot(x - sx, y - sy) <= comm)
        inboxes = net.step(1, full_scan_locator(positions, comm))
        assert sum(len(b) for b in inboxes.values()) == expected


def test_byte_accounting_reproducible():
    reg = PlateRegistry()
    net = NetworkSim(300.0, reg)
    positions = {1: (0.0, 0.0), 2: (1.0, 0.0)}
    net.update_positions(positions)
    credited = 0
    credited += net.shb_broadcast(1, make_cpm(station=1, objects=[obj("a")]), 0)
    credited += net.shb_broadcast(1, make_cpm(station=1,
                                              objects=[obj("b"), obj("c")]), 0)
    net.seal()
    replayed = sum(len(pd.payload) for pd in net.pending_deliveries()
                   if pd.origin == 1)
    assert credited == replayed == (34 + 32) + (34 + 64)


def test_send_time_positions_used():
    # recipient resolution uses the locator (send-time geometry), not the
    # current position table
    net = network_with({1: (0.0, 0.0), 2: (10.0, 0.0)})
    net.shb_broadcast(1, make_cpm(station=1), 0)
    # station 2 has "moved away" by delivery time; locator still answers
    # with send-time positions
    send_time = full_scan_locator({1: (0.0, 0.0), 2: (10.0, 0.0)}, 300.0)
    net.update_positions({1: (0.0, 0.0), 2: (9999.0, 0.0)})
    inboxes = net.step(1, send_time)
    assert list(inboxes) == [2]


def test_too_many_objects_rejected():
    reg = PlateRegistry()
    objects = tuple(obj(f"p{i}") for i in range(70000))
    with pytest.raises(ValidationError):
        serialize_cpm(make_cpm(objects=objects), reg)

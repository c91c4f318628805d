import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cavsim.errors import ValidationError
from cavsim.identity import PlateRegistry
from cavsim.messages import Cpm, PerceivedObject
from cavsim.network import (HEADER_SIZE, MAX_OBJECTS, OBJECT_SIZE,
                            NetworkSim, cpm_wire_size, serialize_cpm)
from oracles import decode_cpm, full_scan_locator


def make_cpm(station=1, tick=0, objects=()):
    return Cpm(station, tick, (1.0, 2.0, 0.5), tuple(objects))


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
    assert decode_cpm(data) == (1, 0, (1.0, 2.0, 0.5), [
        (reg.intern("a"), 10.0, -3.5, 0.25, 0),
        (reg.intern("b"), 10.0, -3.5, 0.25, 3)])


def test_serialize_is_canonical():
    reg = PlateRegistry()
    cpm = make_cpm(objects=[obj("a"), obj("b", 3), obj("a", 1)])
    data = serialize_cpm(cpm, reg)
    station, tick, pose, objects = decode_cpm(data)
    plate_of = {reg.intern(p): p for p in ("a", "b")}
    again = Cpm(station, tick, pose, tuple(
        PerceivedObject(plate_of[code], *rest) for code, *rest in objects))
    assert again == cpm
    assert serialize_cpm(again, reg) == data


_finite = st.floats(allow_nan=False, allow_infinity=False)
_u32 = st.integers(0, 2**32 - 1)


@st.composite
def _cpms(draw):
    # a small pool of plates, so that objects repeat plates
    pool = draw(st.lists(st.text(max_size=6), min_size=1, max_size=8))
    objects = draw(st.lists(st.builds(
        PerceivedObject, st.sampled_from(pool), _finite, _finite, _finite,
        _u32), max_size=50))
    return Cpm(draw(_u32), draw(_u32), draw(st.tuples(_finite, _finite,
                                                      _finite)),
               tuple(objects))


@settings(deadline=None)
@given(st.lists(_cpms(), min_size=1, max_size=3))
def test_wire_size_is_encoded_length(cpms):
    reg = PlateRegistry()
    for cpm in cpms:
        data = serialize_cpm(cpm, reg)
        assert len(data) == cpm_wire_size(cpm)
        assert decode_cpm(data) == (
            cpm.sender_station, cpm.gen_tick, cpm.sender_pose,
            [(reg.intern(o.plate), o.x, o.y, o.heading, o.observed_tick)
             for o in cpm.objects])
    plates = {o.plate for cpm in cpms for o in cpm.objects}
    assert len(reg) == len(plates)


def delivered(net, locator):
    """Seal the buffered broadcasts with `locator`, then step."""
    net.seal(locator)
    return net.step()


def test_empty_cpm_header_only_byte_count():
    net = NetworkSim()
    size = net.shb_broadcast(1, make_cpm(station=1))
    assert size == 34
    inboxes = delivered(net, full_scan_locator({1: (0.0, 0.0),
                                                2: (10.0, 0.0)}, 300.0))
    assert [c.sender_station for c in inboxes[2]] == [1]
    assert 1 not in inboxes


def test_message_values_have_no_instance_dict():
    for value in (obj("a"), make_cpm()):
        assert not hasattr(value, "__dict__")


def test_no_station_in_range_still_credits_bytes():
    net = NetworkSim()
    size = net.shb_broadcast(1, make_cpm(station=1))
    assert size > 0
    inboxes = delivered(net, full_scan_locator({1: (0.0, 0.0),
                                                2: (10_000.0, 0.0)}, 300.0))
    assert inboxes == {}


def test_boundary_distance_inclusive():
    positions = {1: (0.0, 0.0), 2: (300.0, 0.0)}
    net = NetworkSim()
    net.shb_broadcast(1, make_cpm(station=1))
    inboxes = delivered(net, full_scan_locator(positions, 300.0))
    assert list(inboxes) == [2]


def test_one_tick_latency():
    positions = {1: (0.0, 0.0), 2: (10.0, 0.0)}
    net = NetworkSim()
    locator = full_scan_locator(positions, 300.0)
    assert net.step() == {}
    net.shb_broadcast(1, make_cpm(station=1, tick=0))
    # nothing before the seal that ends the tick
    assert net.step() == {}
    net.seal(locator)
    inboxes = net.step()
    assert len(inboxes[2]) == 1
    # delivered exactly once
    net.seal(locator)
    assert net.step() == {}


def test_three_station_cluster():
    positions = {1: (0.0, 0.0), 2: (5.0, 0.0), 3: (0.0, 5.0)}
    net = NetworkSim()
    for st in (1, 2, 3):
        net.shb_broadcast(st, make_cpm(station=st, tick=0))
    inboxes = delivered(net, full_scan_locator(positions, 300.0))
    assert {st: len(box) for st, box in inboxes.items()} == {1: 2, 2: 2, 3: 2}
    for st, box in inboxes.items():
        senders = [c.sender_station for c in box]
        assert st not in senders
        assert senders == sorted(senders)


def test_send_order_kept_across_seals():
    # a sender's broadcasts arrive in send order, also across seals; in
    # one seal other senders come by station number, and a later seal's
    # broadcasts come after all of them
    positions = {1: (0.0, 0.0), 2: (10.0, 0.0), 3: (0.0, 10.0)}
    locator = full_scan_locator(positions, 300.0)
    net = NetworkSim()
    for st, plate in ((3, "x"), (1, "a"), (3, "y"), (1, "b")):
        net.shb_broadcast(st, make_cpm(station=st, objects=[obj(plate)]))
    net.seal(locator)
    net.shb_broadcast(1, make_cpm(station=1, objects=[obj("c")]))
    net.seal(locator)
    inboxes = net.step()
    assert [c.objects[0].plate for c in inboxes[2]] == ["a", "b", "x", "y",
                                                        "c"]


def test_conservation_random():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(1, 15)
        positions = {i: (rng.uniform(0, 600), rng.uniform(0, 600))
                     for i in range(1, n + 1)}
        comm = rng.uniform(50, 300)
        net = NetworkSim()
        expected = 0
        senders = rng.sample(sorted(positions), rng.randint(0, n))
        for st in senders:
            net.shb_broadcast(st, make_cpm(station=st, tick=0))
            sx, sy = positions[st]
            expected += sum(
                1 for other, (x, y) in positions.items()
                if other != st and math.hypot(x - sx, y - sy) <= comm)
        inboxes = delivered(net, full_scan_locator(positions, comm))
        assert sum(len(b) for b in inboxes.values()) == expected


def test_byte_accounting_reproducible():
    reg = PlateRegistry()
    net = NetworkSim()
    credited = 0
    credited += net.shb_broadcast(1, make_cpm(station=1, objects=[obj("a")]))
    credited += net.shb_broadcast(1, make_cpm(station=1,
                                              objects=[obj("b"), obj("c")]))
    inboxes = delivered(net, full_scan_locator({1: (0.0, 0.0),
                                                2: (10.0, 0.0)}, 300.0))
    replayed = sum(len(serialize_cpm(cpm, reg)) for cpm in inboxes[2])
    assert credited == replayed == (34 + 32) + (34 + 64)


def test_send_time_positions_used():
    # recipients are resolved at the seal, from the locator's send-time
    # geometry; the network keeps no position table of its own
    positions = {1: (0.0, 0.0), 2: (10.0, 0.0)}
    net = NetworkSim()
    net.shb_broadcast(1, make_cpm(station=1))
    net.seal(full_scan_locator(positions, 300.0))
    # station 2 has moved away by the step; it still receives
    positions[2] = (10_000.0, 0.0)
    assert list(net.step()) == [2]


def test_shb_broadcast_rejects_too_many_objects():
    net = NetworkSim()
    one = obj("p")
    # the intake refuses the broadcast, and buffers nothing
    with pytest.raises(ValidationError):
        net.shb_broadcast(1, make_cpm(station=1,
                                      objects=(one,) * (MAX_OBJECTS + 1)))
    net.seal(full_scan_locator({1: (0.0, 0.0), 2: (10.0, 0.0)}, 300.0))
    assert net.step() == {}
    # a CPM at the limit goes out
    full = make_cpm(station=1, objects=(one,) * MAX_OBJECTS)
    assert net.shb_broadcast(1, full) == 34 + 32 * 65535
    net.seal(full_scan_locator({1: (0.0, 0.0), 2: (10.0, 0.0)}, 300.0))
    assert net.step() == {2: [full]}


def test_delivered_objects_are_a_tuple_of_the_sent_ones():
    net = NetworkSim()
    sent = [obj("a"), obj("b")]
    cpm = Cpm(1, 0, (1.0, 2.0, 0.5), sent)
    net.shb_broadcast(1, cpm)
    inboxes = delivered(net, full_scan_locator({1: (0.0, 0.0), 2: (10.0, 0.0),
                                                3: (0.0, 10.0)}, 300.0))
    for station in (2, 3):
        got = inboxes[station][0]
        assert type(got.objects) is tuple
        assert got.objects == tuple(sent)
        assert got.objects is not sent
    # a later edit of the sender's list reaches no recipient
    sent.append(obj("c"))
    assert len(inboxes[2][0].objects) == 2


def test_too_many_objects_rejected():
    reg = PlateRegistry()
    objects = tuple(obj(f"p{i}") for i in range(70000))
    with pytest.raises(ValidationError):
        serialize_cpm(make_cpm(objects=objects), reg)

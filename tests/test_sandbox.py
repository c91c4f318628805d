import math
from dataclasses import replace

import pytest

from cavsim.errors import SchemaError, SimError
from cavsim.identity import MatchTable, PlateRegistry
from cavsim.messages import Cpm, PerceivedObject, local_cpm
from cavsim.network import NetworkSim, full_scan_locator, serialize_cpm
from cavsim.sandbox import (MODULES, FlowGraph, SandboxContext,
                            VehicleTypeSpec, build_vehicle,
                            builtin_vehicle_types, register_module,
                            tick_vehicle, validate_flow)
from cavsim.trace import VehicleState


def obj(plate, tick=0):
    return PerceivedObject(plate, 1.0, 2.0, 0.0, tick)


def wire_cpm(station, tick, objects):
    return Cpm(station, tick, (0.0, 0.0, 0.0), tuple(objects), {})


def make_ctx(tick=0, plate="ego", station=1, percept=(), net=None, match=None,
             inrange=(), seed=0):
    if net is None:
        positions = {station: (0.0, 0.0)} if station else {}
        for i, st in enumerate(inrange):
            positions[st] = (1.0 + i, 0.0)
        net = NetworkSim(300.0, PlateRegistry())
        net.update_positions(positions)
    state = VehicleState(plate, 0.0, 0.0, 0.0)
    return SandboxContext(tick, plate, station, state, percept, net,
                          match or MatchTable({plate: station}), 300.0, seed)


# --- flow graphs -----------------------------------------------------------

def test_validate_empty_flow():
    assert validate_flow(FlowGraph()) == []


def test_validate_chain():
    g = FlowGraph(("camera", "cpm_tx"), {"camera": ("cpm_tx",)})
    assert validate_flow(g) == ["camera", "cpm_tx"]


def test_validate_declaration_order_ties():
    g = FlowGraph(("a", "b", "c", "d"), {"a": ("d",), "b": ("d",)})
    assert validate_flow(g) == ["a", "b", "c", "d"]


def test_validate_cycle_names_edge():
    g = FlowGraph(("a", "b"), {"a": ("b",), "b": ("a",)})
    with pytest.raises(SchemaError) as exc:
        validate_flow(g)
    msg = str(exc.value)
    assert "cycle" in msg and "'a'" in msg and "'b'" in msg


def test_validate_cycle_with_downstream_node():
    # d hangs off the cycle; the reported edge must be a real cycle edge
    g = FlowGraph(("d", "a", "b", "c"),
                  {"a": ("b",), "b": ("c",), "c": ("a", "d")})
    with pytest.raises(SchemaError) as exc:
        validate_flow(g)
    msg = str(exc.value)
    assert "'d'" not in msg
    assert any(f"'{u}' -> '{v}'" in msg
               for u, v in (("a", "b"), ("b", "c"), ("c", "a")))


def test_validate_self_loop():
    with pytest.raises(SchemaError) as exc:
        validate_flow(FlowGraph(("a",), {"a": ("a",)}))
    assert "'a' -> 'a'" in str(exc.value)


def test_validate_unknown_module():
    with pytest.raises(SchemaError):
        validate_flow(FlowGraph(("a",), {"a": ("ghost",)}))
    with pytest.raises(SchemaError):
        validate_flow(FlowGraph(("a",), {"ghost": ("a",)}))


def test_spec_rejects_bad_entry():
    with pytest.raises(SchemaError):
        VehicleTypeSpec("t", FlowGraph(("rx",), {}), entry=("nope",))


def test_build_unknown_module():
    spec = VehicleTypeSpec.__new__(VehicleTypeSpec)  # bypass validation
    object.__setattr__(spec, "name", "bad")
    object.__setattr__(spec, "graph", FlowGraph(("mystery",), {}))
    object.__setattr__(spec, "entry", ())
    object.__setattr__(spec, "connected", True)
    object.__setattr__(spec, "params", {})
    object.__setattr__(spec, "_order", ("mystery",))
    object.__setattr__(spec, "_preds", {"mystery": ()})
    with pytest.raises(SchemaError):
        build_vehicle(spec, "v", 1)


# --- built-in types --------------------------------------------------------

def test_builtin_types_complete():
    types = builtin_vehicle_types()
    assert set(types) >= {"UnconnectedVehicle", "ConnectedVehicle",
                          "PoTVehicle", "SpamAttacker", "ReplayAttacker",
                          "SilenceAttacker"}
    assert not types["UnconnectedVehicle"].connected
    for name in ("ConnectedVehicle", "PoTVehicle", "SpamAttacker",
                 "ReplayAttacker", "SilenceAttacker"):
        assert types[name].connected


def test_dummy_vehicle_zero_deltas():
    v = build_vehicle(builtin_vehicle_types()["DummyVehicle"], "d", None)
    ctx = make_ctx(plate="d", station=None)
    n, rec = tick_vehicle(v, (), ctx)
    assert n == 0
    assert rec.bytes_sent == 0
    assert rec.local_objects == rec.received_objects == rec.all_objects == 0
    assert rec.ttv_events == {} and rec.errors == 0


def test_unconnected_vehicle_counts_local_only():
    v = build_vehicle(builtin_vehicle_types()["UnconnectedVehicle"], "u", None)
    ctx = make_ctx(plate="u", station=None, percept=(obj("a"), obj("b")))
    _, rec = tick_vehicle(v, (), ctx)
    assert rec.bytes_sent == 0
    assert rec.local_objects == 2
    assert rec.received_objects == 0
    assert rec.all_objects == 2


def test_connected_vehicle_two_peer_end_to_end():
    reg = PlateRegistry()
    net = NetworkSim(300.0, reg)
    positions = {1: (0.0, 0.0), 2: (10.0, 0.0)}
    net.update_positions(positions)
    match = MatchTable({"a": 1, "b": 2, "c": None})
    types = builtin_vehicle_types()
    va = build_vehicle(types["ConnectedVehicle"], "a", 1)
    vb = build_vehicle(types["ConnectedVehicle"], "b", 2)

    # tick 0: A perceives c and broadcasts; B sees nothing
    ctx_a = make_ctx(0, "a", 1, percept=(obj("c"),), net=net, match=match)
    n_a, rec_a = tick_vehicle(va, (), ctx_a)
    assert n_a == 1 and rec_a.bytes_sent == 34 + 32
    ctx_b = make_ctx(0, "b", 2, percept=(), net=net, match=match)
    _, rec_b = tick_vehicle(vb, (), ctx_b)
    assert rec_b.bytes_sent == 0 and rec_b.all_objects == 0

    # tick 1: the broadcast arrives at B
    inboxes = net.step(1, full_scan_locator(positions, 300.0))
    assert [c.sender_station for c in inboxes[2]] == [1]
    ctx_b1 = make_ctx(1, "b", 2, percept=(), net=net, match=match)
    _, rec_b1 = tick_vehicle(vb, inboxes[2], ctx_b1)
    assert rec_b1.received_objects == 1
    assert rec_b1.all_objects == 1


def test_object_store_union_and_self_exclusion():
    v = build_vehicle(builtin_vehicle_types()["ConnectedVehicle"], "me", 1)
    percept = (obj("x"), obj("me"))  # own plate never counts
    inbox = [wire_cpm(9, 0, [obj("x"), obj("y"), obj("me")])]
    ctx = make_ctx(0, "me", 1, percept=percept)
    _, rec = tick_vehicle(v, inbox, ctx)
    assert rec.local_objects == 1          # {x}
    assert rec.received_objects == 2       # {x, y}
    assert rec.all_objects == 2            # union {x, y}
    # counts accumulate and stay monotone
    ctx2 = make_ctx(1, "me", 1, percept=(obj("z"),))
    _, rec2 = tick_vehicle(v, (), ctx2)
    assert rec2.local_objects == 2 and rec2.all_objects == 3


def test_spam_attacker_emits_k_objects():
    types = builtin_vehicle_types()
    net = NetworkSim(300.0, PlateRegistry())
    net.update_positions({5: (0.0, 0.0)})
    v = build_vehicle(types["SpamAttacker"], "s", 5)
    ctx = make_ctx(0, "s", 5, net=net)
    n, rec = tick_vehicle(v, (), ctx)
    assert n == 1
    assert rec.bytes_sent == 34 + 5 * 32
    net.seal()
    (pd,) = net.pending_deliveries()
    assert len(pd.payload) == 34 + 5 * 32
    # fake objects lie within comm range of the sender
    from cavsim.network import deserialize_cpm
    cpm = deserialize_cpm(pd.payload, net.registry)
    assert len(cpm.objects) == 5
    assert len({o.plate for o in cpm.objects}) == 5
    for o in cpm.objects:
        assert math.hypot(o.x, o.y) <= 300.0


def test_spam_attacker_deterministic_per_seed():
    types = builtin_vehicle_types()

    def one(seed):
        net = NetworkSim(300.0, PlateRegistry())
        net.update_positions({5: (0.0, 0.0)})
        v = build_vehicle(types["SpamAttacker"], "s", 5)
        ctx = make_ctx(3, "s", 5, net=net, seed=seed)
        tick_vehicle(v, (), ctx)
        net.seal()
        return net.pending_deliveries()[0].payload

    assert one(1) == one(1)
    assert one(1) != one(2)


def test_silence_attacker_never_broadcasts():
    v = build_vehicle(builtin_vehicle_types()["SilenceAttacker"], "q", 3)
    for tick in range(5):
        ctx = make_ctx(tick, "q", 3, percept=(obj("a"),),
                       inrange=(8,))
        inbox = [wire_cpm(8, tick - 1, [obj("z")])] if tick else ()
        n, rec = tick_vehicle(v, inbox, ctx)
        assert n == 0 and rec.bytes_sent == 0
    # but it does listen and perceive
    assert rec.local_objects == 1 and rec.received_objects == 1


def test_replay_attacker_byte_identical():
    reg = PlateRegistry()
    net = NetworkSim(300.0, reg)
    net.update_positions({7: (0.0, 0.0), 8: (5.0, 0.0)})
    v = build_vehicle(builtin_vehicle_types()["ReplayAttacker"], "r", 7)

    seen = wire_cpm(8, 0, [obj("a"), obj("b", 1)])
    original_payload = serialize_cpm(seen, reg)
    ctx = make_ctx(1, "r", 7, percept=(obj("c"),), net=net)
    n, rec = tick_vehicle(v, [seen], ctx)
    assert n == 1  # replays = 1 per tick
    net.seal()
    (pd,) = net.pending_deliveries()
    candidates = {original_payload,
                  serialize_cpm(local_cpm(7, 1, (0.0, 0.0, 0.0),
                                          (obj("c"),)).without_extensions(),
                                reg)}
    assert pd.payload in candidates


def test_replay_attacker_replays_own_camera_cpm_as_wire_cpm():
    reg = PlateRegistry()
    net = NetworkSim(300.0, reg)
    net.update_positions({7: (0.0, 0.0), 8: (5.0, 0.0)})
    v = build_vehicle(builtin_vehicle_types()["ReplayAttacker"], "r", 7)
    ctx = make_ctx(1, "r", 7, percept=(obj("c"),), net=net)
    n, _ = tick_vehicle(v, (), ctx)  # the camera CPM is the only candidate
    assert n == 1
    (stored,) = v.modules["replay_tx"].buffer
    assert stored.local is False and stored.extensions == {}
    net.seal()
    (pd,) = net.pending_deliveries()
    assert pd.cpm.local is False
    assert pd.payload == serialize_cpm(
        wire_cpm(7, 1, [obj("c")]), reg)
    inboxes = net.step(2, full_scan_locator({8: (5.0, 0.0)}, 300.0))
    assert inboxes[8][0].local is False


def test_replay_attacker_history_and_rate_params():
    spec = builtin_vehicle_types()["ReplayAttacker"]
    assert spec.params["replay_tx"] == {"history": 50, "replays": 1}
    custom = VehicleTypeSpec(
        "Replay3", spec.graph, spec.entry, True,
        {"replay_tx": {"history": 2, "replays": 3}})
    net = NetworkSim(300.0, PlateRegistry())
    net.update_positions({7: (0.0, 0.0)})
    v = build_vehicle(custom, "r", 7)
    inbox = [wire_cpm(8, 0, [obj(f"p{i}")]) for i in range(5)]
    ctx = make_ctx(1, "r", 7, net=net)
    n, _ = tick_vehicle(v, inbox, ctx)
    assert n == 2  # history caps the buffer below the replay rate
    assert len(v.modules["replay_tx"].buffer) == 2


def test_pot_vehicle_ttv_two_provers():
    types = builtin_vehicle_types()
    v = build_vehicle(types["PoTVehicle"], "me", 1)
    # tick 0: sees target locally, first_seen = 0
    ctx0 = make_ctx(0, "me", 1, percept=(obj("tgt"),))
    _, rec0 = tick_vehicle(v, (), ctx0)
    assert rec0.ttv_events == {}
    assert rec0.bytes_sent > 0  # broadcasts its perception
    # tick 1: first prover
    ctx1 = make_ctx(1, "me", 1, percept=())
    _, rec1 = tick_vehicle(v, [wire_cpm(7, 0, [obj("tgt")])], ctx1)
    assert rec1.ttv_events == {}
    # tick 2: second, distinct prover -> verified, delay 2 - 0
    ctx2 = make_ctx(2, "me", 1, percept=())
    _, rec2 = tick_vehicle(v, [wire_cpm(8, 1, [obj("tgt")])], ctx2)
    assert rec2.ttv_events == {2: 1}
    # repeat proofs change nothing
    ctx3 = make_ctx(3, "me", 1, percept=())
    _, rec3 = tick_vehicle(v, [wire_cpm(9, 2, [obj("tgt")])], ctx3)
    assert rec3.ttv_events == {}


def test_pot_same_prover_twice_insufficient():
    v = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me", 1)
    for tick in range(4):
        ctx = make_ctx(tick, "me", 1)
        _, rec = tick_vehicle(v, [wire_cpm(7, tick, [obj("tgt")])], ctx)
        assert rec.ttv_events == {}


def test_pot_proofs_about_self_ignored():
    v = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me", 1)
    _, rec0 = tick_vehicle(v, [wire_cpm(7, 0, [obj("me")])], make_ctx(0, "me", 1))
    _, rec1 = tick_vehicle(v, [wire_cpm(8, 1, [obj("me")])], make_ctx(1, "me", 1))
    assert rec0.ttv_events == {} and rec1.ttv_events == {}


def test_pot_first_seen_via_network():
    v = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me", 1)
    # never seen locally; two proofs arrive at the same tick
    ctx = make_ctx(5, "me", 1)
    _, rec = tick_vehicle(v, [wire_cpm(7, 4, [obj("t")]),
                              wire_cpm(8, 4, [obj("t")])], ctx)
    assert rec.ttv_events == {0: 1}


def test_proof_token_extension_roundtrip():
    from cavsim.messages import ProofToken

    token = ProofToken.create(7, "veh-42", 13)
    key, value = token.extension_entry()
    assert key == "proof/veh-42"
    assert ProofToken.from_extension(key, value) == token
    # nonce is deterministic for (prover, target, tick)
    assert ProofToken.create(7, "veh-42", 13) == token
    assert ProofToken.create(8, "veh-42", 13) != token


def test_proof_gen_attaches_extensions_once():
    v = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me", 1)
    gen = v.modules["proof_gen"]
    out = gen.process([local_cpm(1, 0, (0, 0, 0), (obj("a"), obj("b")))],
                      make_ctx(0, "me", 1))
    keys = set(out[0].extensions)
    assert "proof/a" in keys and "proof/b" in keys
    # already proved plates are not re-proved
    out2 = gen.process([local_cpm(1, 1, (0, 0, 0), (obj("a"), obj("c")))],
                       make_ctx(1, "me", 1))
    keys2 = set(out2[0].extensions)
    assert "proof/c" in keys2 and "proof/a" not in keys2


def test_proof_gen_keeps_local_flag():
    gen = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me",
                        1).modules["proof_gen"]
    (out,) = gen.process([local_cpm(1, 0, (0, 0, 0), (obj("a"),))],
                         make_ctx(0, "me", 1))
    assert out.extensions and out.local is True  # dataclasses.replace


def test_local_cpm_broadcast_arrives_plain():
    net = NetworkSim(300.0, PlateRegistry())
    net.update_positions({1: (0.0, 0.0), 2: (5.0, 0.0)})
    ctx = make_ctx(0, "ego", 1, net=net)
    cpm = replace(local_cpm(1, 0, (0.0, 0.0, 0.0), (obj("a"),)),
                  extensions={"proof/a": b"token"})
    assert cpm.local is True
    assert ctx.broadcast(cpm) == 34 + 32
    inboxes = net.step(1, full_scan_locator({2: (5.0, 0.0)}, 300.0))
    (got,) = inboxes[2]
    assert got.local is False and got.extensions == {}
    assert got == wire_cpm(1, 0, [obj("a")])
    # a CPM with nothing to strip goes out as it is
    plain = wire_cpm(1, 0, [obj("a")])
    assert plain.without_extensions() is plain


class BoomModule:
    def process(self, inbox, ctx):
        raise RuntimeError("kaboom")


def test_module_failure_contained():
    register_module("boom", BoomModule)
    try:
        spec = VehicleTypeSpec(
            "Exploder", FlowGraph(("camera", "boom", "object_store"),
                                  {"camera": ("boom",),
                                   "boom": ("object_store",)}))
        v = build_vehicle(spec, "x", 1)
        ctx = make_ctx(0, "x", 1, percept=(obj("a"),))
        n, rec = tick_vehicle(v, (), ctx)
        assert rec.errors == 1
        # downstream module never ran this tick
        assert rec.all_objects == 0
    finally:
        del MODULES["boom"]


def test_module_failure_keeps_earlier_broadcasts():
    # cpm_tx broadcasts, then boom raises: the CPM already queued goes out
    # on the next tick, and modules after the failure do not run
    register_module("boom", BoomModule)
    try:
        spec = VehicleTypeSpec(
            "LateExploder",
            FlowGraph(("camera", "cpm_tx", "boom", "object_store"),
                      {"camera": ("cpm_tx", "boom"),
                       "boom": ("object_store",)}))
        v = build_vehicle(spec, "a", 1)
        net = NetworkSim(300.0, PlateRegistry())
        positions = {1: (0.0, 0.0), 2: (10.0, 0.0)}
        net.update_positions(positions)
        ctx = make_ctx(0, "a", 1, percept=(obj("c"),), net=net,
                       match=MatchTable({"a": 1, "b": 2, "c": None}))
        n, rec = tick_vehicle(v, (), ctx)
        assert rec.errors == 1
        assert n == 1 and rec.bytes_sent == 34 + 32
        assert rec.all_objects == 0
        inboxes = net.step(1, full_scan_locator(positions, 300.0))
        assert [c.sender_station for c in inboxes[2]] == [1]
        assert [o.plate for o in inboxes[2][0].objects] == ["c"]
    finally:
        del MODULES["boom"]


class RecordingModule:
    def __init__(self):
        self.sizes = []

    def process(self, inbox, ctx):
        self.sizes.append(len(inbox))
        return list(inbox)


def test_inbox_is_concatenation_of_predecessor_outboxes():
    register_module("record", RecordingModule)
    try:
        spec = VehicleTypeSpec(
            "Fan", FlowGraph(("camera", "rx", "record"),
                             {"camera": ("record",), "rx": ("record",)}),
            entry=("rx",))
        v = build_vehicle(spec, "x", 1)
        inbox = [wire_cpm(9, 0, [obj("a")]), wire_cpm(8, 0, [obj("b")])]
        tick_vehicle(v, inbox, make_ctx(0, "x", 1, percept=(obj("z"),)))
        # camera emits 1 cpm, rx forwards the 2 network messages
        assert v.modules["record"].sizes == [3]
    finally:
        del MODULES["record"]


def test_broadcast_without_station_raises():
    ctx = make_ctx(0, "u", None)
    with pytest.raises(SimError):
        ctx.broadcast(wire_cpm(0, 0, []))


def test_ctx_identity_lookups():
    match = MatchTable({"a": 1, "u": None})
    ctx = make_ctx(0, "a", 1, match=match)
    assert ctx.station_of("u") is None
    assert ctx.plate_of(1) == "a"


# --- per-type sharing --------------------------------------------------------

def test_vehicles_of_one_type_share_routing_tables():
    spec = builtin_vehicle_types()["ConnectedVehicle"]
    a = build_vehicle(spec, "a", 1)
    b = build_vehicle(spec, "b", 2)
    assert a.entry is b.entry and a.entry == frozenset({"rx"})
    assert a.order is b.order and a.preds is b.preds


@pytest.mark.parametrize("name", ["camera", "object_store", "cpm_tx", "rx",
                                  "proof_gen", "proof_verify", "spam_tx",
                                  "replay_tx"])
def test_builtin_modules_have_no_instance_dict(name):
    assert not hasattr(MODULES[name](), "__dict__")



def test_step_table_is_the_types_and_in_topological_order():
    spec = builtin_vehicle_types()["PoTVehicle"]
    a = build_vehicle(spec, "a", 1)
    b = build_vehicle(spec, "b", 2)
    assert a.steps is b.steps
    assert [name for name, _, _ in a.steps] == validate_flow(spec.graph)
    assert list(a.steps) == [(name, name in a.entry, a.preds[name])
                             for name in a.order]

import gc
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from cavsim.errors import SchemaError, SimError
from cavsim.identity import PlateRegistry
from cavsim.messages import Cpm, PerceivedObject
from cavsim.network import NetworkSim, serialize_cpm
from cavsim.sandbox import (MODULES, FlowGraph, ObjectStoreModule,
                            ProofVerifyModule, SandboxContext,
                            VehicleTypeSpec, build_vehicle,
                            builtin_vehicle_types, predecessors,
                            register_module, tick_vehicle, validate_flow)
from cavsim.trace import VehicleState
from conftest import table_of
from oracles import (decode_cpm, finish_record, full_scan_locator,
                     plate_modules)


def obj(plate, tick=0):
    return PerceivedObject(plate, 1.0, 2.0, 0.0, tick)


def wire_cpm(station, tick, objects):
    return Cpm(station, tick, (0.0, 0.0, 0.0), tuple(objects))


def camera_cpm(station, tick, objects):
    """A CPM as the camera module produces it: flagged local."""
    return Cpm(station, tick, (0.0, 0.0, 0.0), tuple(objects), True)


# the plate registry of the run that a test's contexts stand for: a
# vehicle's plate masks hold across its ticks only under one registry
CODES = PlateRegistry()


class CountingNet(NetworkSim):
    """A network that counts the broadcasts sent through it."""

    def __init__(self):
        super().__init__(CODES)
        self.sent = 0

    def shb_broadcast(self, sender, cpm):
        self.sent += 1
        return super().shb_broadcast(sender, cpm)


# station 0 is "no station", so it is never a sender
LISTENER = 0


def delivered(net):
    """The broadcasts buffered in `net`, as a listener in range of every
    sender receives them: sealed, then stepped."""
    net.seal(lambda origin: [LISTENER])
    return net.step().get(LISTENER, [])


def make_ctx(tick=0, plate="ego", station=1, percept=(), net=None, match=None,
             seed=0):
    if net is None:
        net = CountingNet()
    state = VehicleState(plate, 0.0, 0.0, 0.0)
    return SandboxContext(tick, plate, station, state, percept, net,
                          match or table_of({plate: station}), 300.0, seed)


def run_vehicle(v, inbox, ctx):
    """tick_vehicle, then (broadcasts it sent, the record its context
    holds); the broadcasts stay buffered in the context's CountingNet."""
    net = ctx._net
    before = net.sent
    tick_vehicle(v, inbox, ctx)
    return net.sent - before, finish_record(ctx)


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


# A reference for the flow compile by the in-degree rule (Kahn's
# algorithm, ties by declaration order): the name checks in edge order,
# then placing modules by counting each edge, repeats included.

def reference_order(graph):
    nodes = list(graph.nodes)
    if len(set(nodes)) != len(nodes):
        raise SchemaError("duplicate module name in flow")
    indeg = {n: 0 for n in nodes}
    for src, dsts in graph.edges.items():
        if src not in indeg:
            raise SchemaError(f"edge from unknown module {src!r}")
        for dst in dsts:
            if dst not in indeg:
                raise SchemaError(f"edge to unknown module {dst!r}")
            indeg[dst] += 1
    order = []
    while len(order) < len(nodes):
        ready = [n for n in nodes if n not in order and indeg[n] == 0]
        if not ready:
            raise SchemaError("flow graph has a cycle")
        order.append(ready[0])
        for dst in graph.edges.get(ready[0], ()):
            indeg[dst] -= 1
    return order


def reference_predecessors(graph):
    preds = {n: [] for n in graph.nodes}
    for src in graph.nodes:
        for dst in graph.edges.get(src, ()):
            preds[dst].append(src)
    return {n: tuple(p) for n, p in preds.items()}


def reference_steps(graph, entry):
    order = reference_order(graph)
    for e in entry:
        if e not in graph.nodes:
            raise SchemaError(f"entry module {e!r} not in flow")
    preds = reference_predecessors(graph)
    return tuple((n, n in entry, tuple(order.index(p) for p in preds[n]))
                 for n in order)


CYCLE_EDGE = re.compile(r"flow graph has a cycle through edge "
                        r"'(\w+)' -> '(\w+)'")


def on_a_cycle(graph, src, dst):
    """True when src -> dst is an edge and src is reachable from dst."""
    if dst not in graph.edges.get(src, ()):
        return False
    seen, todo = set(), [dst]
    while todo:
        n = todo.pop()
        if n == src:
            return True
        if n not in seen:
            seen.add(n)
            todo.extend(graph.edges.get(n, ()))
    return False


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def random_flow(rng):
    """A small flow with repeated edges, edges listed in another order
    than the nodes, and now and then a duplicate or unknown name or a
    back edge that may close a cycle."""
    nodes = rng.sample("abcdefgh", rng.randint(0, 7))
    rank = {n: i for i, n in enumerate(rng.sample(nodes, len(nodes)))}
    edges = {}
    for src in rng.sample(nodes, len(nodes)):
        later = [d for d in nodes if rank[d] > rank[src]]
        if rng.random() < 0.1:
            later = list(nodes)
        if later and rng.random() < 0.7:
            edges[src] = tuple(rng.choice(later)
                               for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.03:
        edges[rng.choice(["x", "y"])] = tuple(nodes[:1])
    if nodes and rng.random() < 0.03:
        src = rng.choice(nodes)
        edges[src] = edges.get(src, ()) + ("z",)
    if nodes and rng.random() < 0.03:
        nodes.insert(rng.randrange(len(nodes) + 1), rng.choice(nodes))
    entry = tuple(rng.sample(nodes, rng.randint(0, min(2, len(nodes)))))
    if rng.random() < 0.03:
        entry += ("w",)
    return FlowGraph(tuple(nodes), edges), entry


def steps(graph, entry):
    return VehicleTypeSpec("t", graph, entry)._steps


def test_flow_compile_matches_the_in_degree_reference():
    rng = random.Random(20240)
    seen = {}
    for _ in range(6000):
        graph, entry = random_flow(rng)
        assert (outcome(predecessors, graph)
                == outcome(reference_predecessors, graph)), graph
        for got, want in ((outcome(validate_flow, graph),
                           outcome(reference_order, graph)),
                          (outcome(steps, graph, entry),
                           outcome(reference_steps, graph, entry))):
            if want[1] == "flow graph has a cycle":
                match = CYCLE_EDGE.fullmatch(got[1])
                assert got[0] == "SchemaError" and match, (graph, got)
                assert on_a_cycle(graph, *match.groups()), (graph, got)
            else:
                assert got == want, (graph, entry)
        kind = want[0] if want[0] == "ok" else want[1].split(" '")[0]
        seen[kind] = seen.get(kind, 0) + 1
    assert seen["ok"] > 3000 and seen["flow graph has a cycle"] > 300, seen
    assert all(seen.get(kind, 0) > 20 for kind in (
        "duplicate module name in flow", "edge from unknown module",
        "edge to unknown module", "entry module")), seen


CYCLIC_FLOWS = [
    (("a", "b", "c", "d", "e"),
     {"a": ("b",), "b": ("c",), "c": ("a", "d"), "d": ("e",)}),
    (("rx", "camera", "object_store", "cpm_tx"),
     {"camera": ("object_store",), "object_store": ("cpm_tx",),
      "cpm_tx": ("camera", "rx")}),
    (("p", "q", "r", "s", "t"),
     {"p": ("q", "s"), "q": ("r",), "r": ("p",), "s": ("t",), "t": ("s",)}),
]

CYCLE_MESSAGES = r"""
import json, sys
from cavsim.sandbox import FlowGraph, validate_flow
for nodes, edges in json.loads(sys.argv[1]):
    try:
        validate_flow(FlowGraph(tuple(nodes), {k: tuple(v)
                                              for k, v in edges.items()}))
    except Exception as exc:
        print(exc)
"""


def test_cycle_error_is_the_same_under_every_hash_seed():
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.path.join(os.path.dirname(
                       os.path.dirname(os.path.abspath(__file__))), "src"))
        proc = subprocess.run([sys.executable, "-c", CYCLE_MESSAGES,
                               json.dumps(CYCLIC_FLOWS)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
    lines = outputs.pop().splitlines()
    # walking back from the first pending module through first pending
    # predecessors: a <- c <- b <- a, rx <- cpm_tx <- object_store <-
    # camera <- cpm_tx, p <- r <- q <- p
    assert [CYCLE_EDGE.fullmatch(line).groups() for line in lines] == [
        ("a", "b"), ("cpm_tx", "camera"), ("p", "q")]
    for (nodes, edges), line in zip(CYCLIC_FLOWS, lines):
        match = CYCLE_EDGE.fullmatch(line)
        assert match and on_a_cycle(FlowGraph(nodes, edges),
                                    *match.groups()), line


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
    n, rec = run_vehicle(v, (), ctx)
    assert n == 0
    assert rec.bytes_sent == 0
    assert rec.local_objects == rec.received_objects == rec.all_objects == 0
    assert rec.ttv_events == {} and rec.errors == 0


def test_unconnected_vehicle_counts_local_only():
    v = build_vehicle(builtin_vehicle_types()["UnconnectedVehicle"], "u", None)
    ctx = make_ctx(plate="u", station=None, percept=(obj("a"), obj("b")))
    _, rec = run_vehicle(v, (), ctx)
    assert rec.bytes_sent == 0
    assert rec.local_objects == 2
    assert rec.received_objects == 0
    assert rec.all_objects == 2


def test_connected_vehicle_two_peer_end_to_end():
    net = CountingNet()
    positions = {1: (0.0, 0.0), 2: (10.0, 0.0)}
    match = table_of({"a": 1, "b": 2, "c": None})
    types = builtin_vehicle_types()
    va = build_vehicle(types["ConnectedVehicle"], "a", 1)
    vb = build_vehicle(types["ConnectedVehicle"], "b", 2)

    # tick 0: A perceives c and broadcasts; B sees nothing
    ctx_a = make_ctx(0, "a", 1, percept=(obj("c"),), net=net, match=match)
    n_a, rec_a = run_vehicle(va, (), ctx_a)
    assert n_a == 1 and rec_a.bytes_sent == 34 + 32
    ctx_b = make_ctx(0, "b", 2, percept=(), net=net, match=match)
    _, rec_b = run_vehicle(vb, (), ctx_b)
    assert rec_b.bytes_sent == 0 and rec_b.all_objects == 0

    # tick 1: the broadcast arrives at B
    net.seal(full_scan_locator(positions, 300.0))
    inboxes = net.step()
    assert [c.sender_station for c in inboxes[2]] == [1]
    ctx_b1 = make_ctx(1, "b", 2, percept=(), net=net, match=match)
    _, rec_b1 = run_vehicle(vb, inboxes[2], ctx_b1)
    assert rec_b1.received_objects == 1
    assert rec_b1.all_objects == 1


def test_object_store_union_and_self_exclusion():
    v = build_vehicle(builtin_vehicle_types()["ConnectedVehicle"], "me", 1)
    percept = (obj("x"), obj("me"))  # own plate never counts
    inbox = [wire_cpm(9, 0, [obj("x"), obj("y"), obj("me")])]
    ctx = make_ctx(0, "me", 1, percept=percept)
    _, rec = run_vehicle(v, inbox, ctx)
    assert rec.local_objects == 1          # {x}
    assert rec.received_objects == 2       # {x, y}
    assert rec.all_objects == 2            # union {x, y}
    # counts accumulate and stay monotone
    ctx2 = make_ctx(1, "me", 1, percept=(obj("z"),))
    _, rec2 = run_vehicle(v, (), ctx2)
    assert rec2.local_objects == 2 and rec2.all_objects == 3


def random_inboxes(rng, own, ticks):
    """(tick, inbox) pairs of local and wire CPMs in random order, over a
    small pool of plates that holds `own` and of senders, so that plates
    and senders repeat within and across ticks."""
    plates = [own] + [f"p{i}" for i in range(rng.randint(1, 12))]
    senders = range(2, 3 + rng.randint(0, 4))
    tick = rng.randint(0, 3)
    for _ in range(ticks):
        tick += rng.randint(1, 3)
        inbox = []
        for _ in range(rng.randint(0, 5)):
            objects = [obj(rng.choice(plates), tick)
                       for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.4:
                inbox.append(camera_cpm(1, tick, objects))
            else:
                inbox.append(wire_cpm(rng.choice(senders), tick - 1, objects))
        yield tick, inbox


@pytest.mark.parametrize("required", [1, 2, 3, 4])
def test_plate_modules_match_set_reference(required):
    verified = 0
    for seed in range(15):
        rng = random.Random(required * 1000 + seed)
        stream = list(random_inboxes(rng, "me", 25))
        store, verify = ObjectStoreModule(), ProofVerifyModule(required)
        got = []
        for tick, inbox in stream:
            ctx = make_ctx(tick, "me", 1)
            assert store.process(inbox, ctx) == []
            assert verify.process(inbox, ctx) == []
            got.append((ctx.local_objects, ctx.received_objects,
                        ctx.all_objects, list(ctx.ttv_events.items())))
        assert got == plate_modules("me", required, stream), seed
        # a verified plate is marked None in first_seen
        verified += list(verify.first_seen.values()).count(None)
    assert verified  # the streams do reach verification


def plates_in(mask, plates):
    """The ones among `plates` whose bit in CODES is set in `mask`."""
    return {p for p in plates if mask >> CODES.intern(p) & 1}


def test_plate_maps_are_not_tracked_by_the_collector():
    v = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me", 1)
    ctx = make_ctx(0, "me", 1, percept=(obj("x"), obj("y"), obj("me")))
    inbox = [wire_cpm(9, 0, [obj("x"), obj("z")]), wire_cpm(8, 0, [obj("x")])]
    _, rec = run_vehicle(v, inbox, ctx)
    store, verify = v.modules["object_store"], v.modules["proof_verify"]
    # the own plate's bit is set in both masks and never counts
    plates = ("me", "x", "y", "z")
    assert plates_in(store.local, plates) == {"me", "x", "y"}
    assert plates_in(store.received, plates) == {"me", "x", "z"}
    assert (rec.local_objects, rec.received_objects, rec.all_objects) == \
        (2, 2, 3)
    assert verify.first_seen == {"x": None, "y": 0, "z": 0}  # x verified
    for plates in (store.local, store.received, verify.first_seen):
        assert not gc.is_tracked(plates)
    # a verified plate keeps no provers; one prover is held as its station
    assert verify.provers == {"z": 9}


def test_store_size_follows_the_codes_it_knows():
    """A store's masks are as wide as the highest plate code it knows, not
    an entry per plate: knowing 4,000 plates takes what knowing the one
    with the highest code does, about a byte per 8 codes."""
    reg = PlateRegistry()
    plates = [f"p{i}" for i in range(4000)]
    for plate in ["me"] + plates:
        reg.intern(plate)
    net = NetworkSim(reg)

    def store_bytes(known):
        store = ObjectStoreModule()
        ctx = make_ctx(0, "me", 1, net=net)
        store.process([wire_cpm(9, 0, [obj(p) for p in known])], ctx)
        assert ctx.received_objects == len(known)
        return sys.getsizeof(store.local) + sys.getsizeof(store.received)

    full, one = store_bytes(plates), store_bytes(plates[-1:])
    assert full == one
    assert full < 4001 // 8 + 100
    assert store_bytes(plates[:1]) < 100


def test_spam_attacker_emits_k_objects():
    types = builtin_vehicle_types()
    reg = PlateRegistry()
    net = CountingNet()
    v = build_vehicle(types["SpamAttacker"], "s", 5)
    ctx = make_ctx(0, "s", 5, net=net)
    n, rec = run_vehicle(v, (), ctx)
    assert n == 1
    assert rec.bytes_sent == 34 + 5 * 32
    (cpm,) = delivered(net)
    payload = serialize_cpm(cpm, reg)
    assert len(payload) == 34 + 5 * 32
    # fake objects lie within comm range of the sender
    _, _, _, objects = decode_cpm(payload)
    assert len(objects) == 5
    assert len({code for code, *_ in objects}) == 5
    for _, x, y, _, _ in objects:
        assert math.hypot(x, y) <= 300.0


def test_spam_attacker_deterministic_per_seed():
    types = builtin_vehicle_types()

    def one(seed):
        net = NetworkSim()
        v = build_vehicle(types["SpamAttacker"], "s", 5)
        ctx = make_ctx(3, "s", 5, net=net, seed=seed)
        tick_vehicle(v, (), ctx)
        return serialize_cpm(delivered(net)[0], PlateRegistry())

    assert one(1) == one(1)
    assert one(1) != one(2)


def test_silence_attacker_never_broadcasts():
    v = build_vehicle(builtin_vehicle_types()["SilenceAttacker"], "q", 3)
    for tick in range(5):
        ctx = make_ctx(tick, "q", 3, percept=(obj("a"),))
        inbox = [wire_cpm(8, tick - 1, [obj("z")])] if tick else ()
        n, rec = run_vehicle(v, inbox, ctx)
        assert n == 0 and rec.bytes_sent == 0
    # but it does listen and perceive
    assert rec.local_objects == 1 and rec.received_objects == 1


def test_replay_attacker_byte_identical():
    reg = PlateRegistry()
    net = CountingNet()
    v = build_vehicle(builtin_vehicle_types()["ReplayAttacker"], "r", 7)

    seen = wire_cpm(8, 0, [obj("a"), obj("b", 1)])
    original_payload = serialize_cpm(seen, reg)
    ctx = make_ctx(1, "r", 7, percept=(obj("c"),), net=net)
    n, rec = run_vehicle(v, [seen], ctx)
    assert n == 1  # replays = 1 per tick
    (cpm,) = delivered(net)
    assert cpm.local is False
    candidates = {original_payload,
                  serialize_cpm(wire_cpm(7, 1, [obj("c")]), reg)}
    assert serialize_cpm(cpm, reg) in candidates


def test_replay_attacker_replays_own_camera_cpm_as_wire_cpm():
    reg = PlateRegistry()
    net = CountingNet()
    v = build_vehicle(builtin_vehicle_types()["ReplayAttacker"], "r", 7)
    ctx = make_ctx(1, "r", 7, percept=(obj("c"),), net=net)
    n, _ = run_vehicle(v, (), ctx)  # the camera CPM is the only candidate
    assert n == 1
    # the buffer holds the camera CPM as given; the network clears its flag
    (stored,) = v.modules["replay_tx"].buffer
    assert stored.local is True
    net.seal(full_scan_locator({7: (0.0, 0.0), 8: (5.0, 0.0)}, 300.0))
    (got,) = net.step()[8]
    assert got.local is False
    assert serialize_cpm(got, reg) == serialize_cpm(
        wire_cpm(7, 1, [obj("c")]), reg)


def test_replay_attacker_history_and_rate_params():
    spec = builtin_vehicle_types()["ReplayAttacker"]
    assert spec.params["replay_tx"] == {"history": 50, "replays": 1}
    custom = VehicleTypeSpec(
        "Replay3", spec.graph, spec.entry, True,
        {"replay_tx": {"history": 2, "replays": 3}})
    net = CountingNet()
    v = build_vehicle(custom, "r", 7)
    inbox = [wire_cpm(8, 0, [obj(f"p{i}")]) for i in range(5)]
    ctx = make_ctx(1, "r", 7, net=net)
    n, _ = run_vehicle(v, inbox, ctx)
    assert n == 2  # history caps the buffer below the replay rate
    assert len(v.modules["replay_tx"].buffer) == 2


def test_pot_vehicle_ttv_two_provers():
    types = builtin_vehicle_types()
    v = build_vehicle(types["PoTVehicle"], "me", 1)
    # tick 0: sees target locally, first_seen = 0
    ctx0 = make_ctx(0, "me", 1, percept=(obj("tgt"),))
    _, rec0 = run_vehicle(v, (), ctx0)
    assert rec0.ttv_events == {}
    assert rec0.bytes_sent > 0  # broadcasts its perception
    # tick 1: first prover
    ctx1 = make_ctx(1, "me", 1, percept=())
    _, rec1 = run_vehicle(v, [wire_cpm(7, 0, [obj("tgt")])], ctx1)
    assert rec1.ttv_events == {}
    # tick 2: second, distinct prover -> verified, delay 2 - 0
    ctx2 = make_ctx(2, "me", 1, percept=())
    _, rec2 = run_vehicle(v, [wire_cpm(8, 1, [obj("tgt")])], ctx2)
    assert rec2.ttv_events == {2: 1}
    # repeat proofs change nothing
    ctx3 = make_ctx(3, "me", 1, percept=())
    _, rec3 = run_vehicle(v, [wire_cpm(9, 2, [obj("tgt")])], ctx3)
    assert rec3.ttv_events == {}


def test_pot_same_prover_twice_insufficient():
    v = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me", 1)
    for tick in range(4):
        ctx = make_ctx(tick, "me", 1)
        _, rec = run_vehicle(v, [wire_cpm(7, tick, [obj("tgt")])], ctx)
        assert rec.ttv_events == {}


def test_pot_proofs_about_self_ignored():
    v = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me", 1)
    _, rec0 = run_vehicle(v, [wire_cpm(7, 0, [obj("me")])], make_ctx(0, "me", 1))
    _, rec1 = run_vehicle(v, [wire_cpm(8, 1, [obj("me")])], make_ctx(1, "me", 1))
    assert rec0.ttv_events == {} and rec1.ttv_events == {}


def test_pot_first_seen_via_network():
    v = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me", 1)
    # never seen locally; two proofs arrive at the same tick
    ctx = make_ctx(5, "me", 1)
    _, rec = run_vehicle(v, [wire_cpm(7, 4, [obj("t")]),
                             wire_cpm(8, 4, [obj("t")])], ctx)
    assert rec.ttv_events == {0: 1}


def test_proof_gen_forwards_its_inbox_unchanged():
    gen = build_vehicle(builtin_vehicle_types()["PoTVehicle"], "me",
                        1).modules["proof_gen"]
    inbox = [camera_cpm(1, 0, [obj("a"), obj("b")]),
             wire_cpm(9, 0, [obj("c")])]
    out = gen.process(inbox, make_ctx(0, "me", 1))
    assert len(out) == len(inbox)
    assert all(a is b for a, b in zip(out, inbox))
    assert gen.process([], make_ctx(1, "me", 1)) == []


def test_local_cpm_broadcast_arrives_plain():
    net = NetworkSim()
    ctx = make_ctx(0, "ego", 1, net=net)
    cpm = camera_cpm(1, 0, [obj("a")])
    assert ctx.broadcast(cpm) == 34 + 32
    # a CPM with nothing to clear is delivered as a copy the network made
    plain = wire_cpm(1, 0, [obj("b")])
    assert ctx.broadcast(plain) == 34 + 32
    net.seal(full_scan_locator({1: (0.0, 0.0), 2: (5.0, 0.0)}, 300.0))
    got, copied = net.step()[2]
    assert got.local is False
    assert got == wire_cpm(1, 0, [obj("a")])
    assert copied == plain and copied is not plain
    # the sender's own CPMs are left as they were
    assert cpm.local is True
    assert cpm.mask is None and plain.mask is None


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
        n, rec = run_vehicle(v, (), ctx)
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
        net = CountingNet()
        positions = {1: (0.0, 0.0), 2: (10.0, 0.0)}
        ctx = make_ctx(0, "a", 1, percept=(obj("c"),), net=net,
                       match=table_of({"a": 1, "b": 2, "c": None}))
        n, rec = run_vehicle(v, (), ctx)
        assert rec.errors == 1
        assert n == 1 and rec.bytes_sent == 34 + 32
        assert rec.all_objects == 0
        net.seal(full_scan_locator(positions, 300.0))
        inboxes = net.step()
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


class GenModule:
    """Returns its outbox as a generator, or as a tuple."""

    def __init__(self, kind="generator"):
        self.kind = kind

    def process(self, inbox, ctx):
        cpms = [wire_cpm(9, 0, [obj("a")])]
        return (c for c in cpms) if self.kind == "generator" else tuple(cpms)


@pytest.mark.parametrize("kind", ["generator", "tuple"])
def test_outbox_that_is_not_a_list_is_its_module_error(monkeypatch, kind):
    """A generator would feed only the first successor that drains it: an
    outbox is a list or None, and anything else fails its module."""
    for name, factory in (("gen", GenModule), ("sink1", RecordingModule),
                          ("sink2", RecordingModule)):
        monkeypatch.setitem(MODULES, name, factory)
    spec = VehicleTypeSpec(
        "Gen", FlowGraph(("gen", "sink1", "sink2"),
                         {"gen": ("sink1", "sink2")}),
        params={"gen": {"kind": kind}})
    v = build_vehicle(spec, "x", 1)
    ctx = make_ctx(0, "x", 1)
    tick_vehicle(v, (), ctx)
    assert ctx.errors == 1
    assert v.modules["sink1"].sizes == v.modules["sink2"].sizes == []


class NoneModule:
    def process(self, inbox, ctx):
        return None


def test_outbox_none_passes_nothing_and_is_no_error(monkeypatch):
    monkeypatch.setitem(MODULES, "none", NoneModule)
    monkeypatch.setitem(MODULES, "sink", RecordingModule)
    spec = VehicleTypeSpec(
        "Quiet", FlowGraph(("camera", "none", "sink"),
                           {"camera": ("none",), "none": ("sink",)}))
    v = build_vehicle(spec, "x", 1)
    ctx = make_ctx(0, "x", 1, percept=(obj("a"),))
    tick_vehicle(v, (), ctx)
    assert ctx.errors == 0
    # the camera's CPM stops at the module that returned None
    assert v.modules["sink"].sizes == [0]


def test_broadcast_without_station_raises():
    ctx = make_ctx(0, "u", None)
    with pytest.raises(SimError):
        ctx.broadcast(wire_cpm(0, 0, []))


def test_ctx_identity_lookups():
    match = table_of({"a": 1, "u": None})
    ctx = make_ctx(0, "a", 1, match=match)
    assert ctx.station_of("u") is None
    assert ctx.plate_of(1) == "a"


# --- per-type step tables, per-vehicle modules -------------------------------

def test_vehicles_of_one_type_share_routing_tables():
    spec = builtin_vehicle_types()["ConnectedVehicle"]
    a = build_vehicle(spec, "a", 1)
    b = build_vehicle(spec, "b", 2)
    assert a.steps is b.steps
    assert [name for name, is_entry, _ in a.steps if is_entry] == ["rx"]


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
    order = validate_flow(spec.graph)
    assert [name for name, _, _ in a.steps] == order
    preds = predecessors(spec.graph)
    assert list(a.steps) == [(name, name in spec.entry,
                              tuple(order.index(p) for p in preds[name]))
                             for name in order]


@pytest.mark.parametrize("type_name", sorted(builtin_vehicle_types()))
def test_vehicles_build_their_own_modules(type_name):
    spec = builtin_vehicle_types()[type_name]
    a = build_vehicle(spec, "a", 1).modules
    b = build_vehicle(spec, "b", 2).modules
    assert a.keys() == b.keys() == set(spec.graph.nodes)
    assert not {id(m) for m in a.values()} & {id(m) for m in b.values()}
    for name in spec.graph.nodes:
        assert type(a[name]) is type(b[name]) is MODULES[name]


class SlotModule:
    __slots__ = ("seen",)

    def __init__(self):
        self.seen = 0

    def process(self, inbox, ctx):
        self.seen += 1
        return []


class EmptyModule:
    __slots__ = ()

    def process(self, inbox, ctx):
        return []


class EmptyChild(EmptyModule):
    pass  # no __slots__ of its own, so its instances have a __dict__


class SlottedChild(EmptyModule):
    __slots__ = ("extra",)


@pytest.mark.parametrize("factory", [EmptyModule, SlotModule, EmptyChild,
                                     SlottedChild, RecordingModule])
def test_every_factory_builds_per_vehicle(factory):
    register_module("probe", factory)
    try:
        spec = VehicleTypeSpec("P", FlowGraph(("probe",), {}))
        a, b = (build_vehicle(spec, p, None).modules["probe"]
                for p in "ab")
        assert a is not b
        assert type(a) is factory
    finally:
        del MODULES["probe"]


class EmptyTwin(EmptyModule):
    __slots__ = ()


def test_reregistered_module_is_not_served_from_the_old_instance():
    # each vehicle gets the factory registered when it is built
    spec = VehicleTypeSpec("P", FlowGraph(("probe",), {}))

    def built(plate):
        return build_vehicle(spec, plate, None).modules["probe"]

    made = []
    try:
        for factory in (EmptyModule, EmptyTwin, EmptyChild, EmptyModule):
            register_module("probe", factory)
            a, b = built("a"), built("b")
            assert type(a) is type(b) is factory
            made += [a, b]
    finally:
        del MODULES["probe"]
    assert len({id(m) for m in made}) == len(made)


@pytest.mark.parametrize("type_name", ["PoTVehicle", "ReplayAttacker"])
def test_modules_maps_each_name_to_the_instance_that_runs(type_name,
                                                          monkeypatch):
    ran = []
    for name, cls in MODULES.items():
        def spy(self, inbox, ctx, process=cls.process, name=name):
            ran.append((name, self))
            return process(self, inbox, ctx)
        monkeypatch.setattr(cls, "process", spy)
    spec = builtin_vehicle_types()[type_name]
    build_vehicle(spec, "other", 2)
    v = build_vehicle(spec, "me", 1)
    tick_vehicle(v, [wire_cpm(9, 0, [obj("a")])],
                 make_ctx(0, "me", 1, percept=(obj("b"),)))
    assert [name for name, _ in ran] == validate_flow(spec.graph)
    assert all(v.modules[name] is module for name, module in ran)
    assert list(v.modules) == [name for name, _ in ran]

"""Per-vehicle module sandbox.

Each vehicle's on-board unit is a DAG of small modules exchanging
CPM-shaped values.  A module sees only its inbox plus the explicitly
provided context APIs (perception, broadcast, identity lookup, seeded
RNG); it holds no reference to world state, so vehicles are isolated from
each other except through delivered messages.  Vehicle types are
declarative: a list of modules, an adjacency list of edges, the entry
modules that receive the network inbox, and per-module parameters.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .errors import SchemaError, SimError
from .messages import Cpm, PerceivedObject, ProofToken, local_cpm
from .metrics import MetricsRecord
from .trace import normalize_angle


# ---------------------------------------------------------------------------
# Flow graphs

@dataclass(frozen=True)
class FlowGraph:
    """Adjacency-list DAG of named modules."""

    nodes: tuple[str, ...] = ()
    edges: dict[str, tuple[str, ...]] = field(default_factory=dict)


def validate_flow(graph: FlowGraph) -> list[str]:
    """Topological order with ties broken by declaration order.

    Raises SchemaError for duplicate/unknown module names and names one
    offending edge when the graph has a cycle.
    """
    nodes = list(graph.nodes)
    known = set(nodes)
    if len(known) != len(nodes):
        raise SchemaError("duplicate module name in flow")
    indeg = {n: 0 for n in nodes}
    for src, dsts in graph.edges.items():
        if src not in known:
            raise SchemaError(f"edge from unknown module {src!r}")
        for dst in dsts:
            if dst not in known:
                raise SchemaError(f"edge to unknown module {dst!r}")
            indeg[dst] += 1
    order = []
    remaining = dict(indeg)
    pending = list(nodes)
    while pending:
        picked = None
        for n in pending:
            if remaining[n] == 0:
                picked = n
                break
        if picked is None:
            cycle_edge = _find_cycle_edge(graph, set(pending))
            raise SchemaError(
                f"flow graph has a cycle through edge "
                f"{cycle_edge[0]!r} -> {cycle_edge[1]!r}")
        pending.remove(picked)
        order.append(picked)
        for dst in graph.edges.get(picked, ()):
            remaining[dst] -= 1
    return order


def _find_cycle_edge(graph: FlowGraph, stuck: set[str]) -> tuple[str, str]:
    """One edge on a cycle among the nodes a stalled topological sort left.

    Nodes without successors inside the set are stripped first (they merely
    hang off the cycle); every remaining node has an in-set successor, so
    walking successors must revisit a node.
    """
    core = set(stuck)
    changed = True
    while changed:
        changed = False
        for n in list(core):
            if not any(d in core for d in graph.edges.get(n, ())):
                core.discard(n)
                changed = True
    node = next(iter(core))
    seen = {node}
    while True:
        nxt = next(d for d in graph.edges.get(node, ()) if d in core)
        if nxt in seen:
            return (node, nxt)
        seen.add(nxt)
        node = nxt


def predecessors(graph: FlowGraph) -> dict[str, tuple[str, ...]]:
    """Predecessor lists in node declaration order."""
    preds = {n: [] for n in graph.nodes}
    for src in graph.nodes:
        for dst in graph.edges.get(src, ()):
            preds[dst].append(src)
    return {n: tuple(p) for n, p in preds.items()}


# ---------------------------------------------------------------------------
# Sandbox context

class SandboxContext:
    """The only window a vehicle module has onto the world.

    Carries the current tick, the vehicle's own identity and pose, the
    cached perception result, bound simulator APIs, and the per-tick
    metric scratchpad.  The RNG is seeded from (scenario seed, vehicle id,
    tick) so results never depend on scheduling.
    """

    __slots__ = ("tick", "plate", "station", "state", "comm_range",
                 "bytes_sent", "broadcasts", "errors", "ttv_events",
                 "local_objects", "received_objects", "all_objects",
                 "_percept", "_net", "_match", "_seed", "_rng")

    def __init__(self, tick, plate, station, state, percept=(), net=None,
                 match=None, comm_range=300.0, seed=0):
        self.tick = tick
        self.plate = plate
        self.station = station
        self.state = state
        self.comm_range = comm_range
        self.bytes_sent = 0
        self.broadcasts = 0
        self.errors = 0
        self.ttv_events = {}
        self.local_objects = 0
        self.received_objects = 0
        self.all_objects = 0
        self._percept = percept
        self._net = net
        self._match = match
        self._seed = seed
        self._rng = None

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(f"{self._seed}:{self.plate}:{self.tick}")
        return self._rng

    def perceive(self) -> tuple[PerceivedObject, ...]:
        return self._percept

    def broadcast(self, cpm: Cpm) -> int:
        if self.station is None:
            raise SimError(f"vehicle {self.plate!r} has no V2X station")
        if self._net is None:
            raise SimError("no network attached to this context")
        size = self._net.shb_broadcast(self.station, cpm, self.tick)
        self.bytes_sent += size
        self.broadcasts += 1
        return size

    def station_of(self, plate: str):
        if self._match is None:
            raise SimError("no match table attached to this context")
        return self._match.station_of(plate)

    def plate_of(self, station: int) -> str:
        if self._match is None:
            raise SimError("no match table attached to this context")
        return self._match.plate_of(station)

    def record_ttv(self, delay: int) -> None:
        self.ttv_events[delay] = self.ttv_events.get(delay, 0) + 1

    def set_object_counts(self, local: int, received: int, total: int) -> None:
        self.local_objects = local
        self.received_objects = received
        self.all_objects = total

    def finish_record(self) -> MetricsRecord:
        pos = (self.state.x, self.state.y) if self.state is not None else (0.0, 0.0)
        return MetricsRecord(self.tick, self.plate, self.bytes_sent,
                             self.local_objects, self.received_objects,
                             self.all_objects, self.ttv_events, self.errors,
                             pos)


# ---------------------------------------------------------------------------
# OBU modules

class CameraModule:
    """Wraps the perception result of the tick into a locally tagged CPM.

    Emits nothing on ticks without perceived objects.
    """

    __slots__ = ()

    def process(self, inbox, ctx):
        objs = ctx.perceive()
        if not objs:
            return []
        pose = (ctx.state.x, ctx.state.y, ctx.state.heading)
        return [local_cpm(ctx.station, ctx.tick, pose, objs)]


class ObjectStoreModule:
    """Accumulates distinct plates known locally and via the network.

    The vehicle's own plate never counts.  The union size is maintained
    incrementally so per-tick cost stays proportional to new plates.
    """

    __slots__ = ("local", "received", "_union")

    def __init__(self):
        self.local = set()
        self.received = set()
        self._union = 0

    def process(self, inbox, ctx):
        own = ctx.plate
        local = self.local
        received = self.received
        for cpm in inbox:
            if cpm.is_local_source():
                for obj in cpm.objects:
                    p = obj.plate
                    if p == own or p in local:
                        continue
                    local.add(p)
                    if p not in received:
                        self._union += 1
            else:
                for obj in cpm.objects:
                    p = obj.plate
                    if p == own or p in received:
                        continue
                    received.add(p)
                    if p not in local:
                        self._union += 1
        ctx.set_object_counts(len(local), len(received), self._union)
        return []


class CpmTxModule:
    """Assembles one wire CPM per tick from local perceptions.

    Broadcasts only on ticks with at least one locally perceived object.
    """

    __slots__ = ()

    def process(self, inbox, ctx):
        objects = []
        for cpm in inbox:
            objects.extend(cpm.objects)
        if objects:
            pose = (ctx.state.x, ctx.state.y, ctx.state.heading)
            ctx.broadcast(Cpm(ctx.station, ctx.tick, pose, tuple(objects), {}))
        return []


class RxModule:
    """Entry module: forwards the network inbox into the flow."""

    __slots__ = ()

    def process(self, inbox, ctx):
        return list(inbox)


class ProofGenModule:
    """Attaches an observation proof for every newly perceived plate."""

    __slots__ = ("proved",)

    def __init__(self):
        self.proved = set()

    def process(self, inbox, ctx):
        out = []
        for cpm in inbox:
            tokens = {}
            for obj in cpm.objects:
                if obj.plate in self.proved:
                    continue
                self.proved.add(obj.plate)
                token = ProofToken.create(ctx.station or 0, obj.plate, ctx.tick)
                key, value = token.extension_entry()
                tokens[key] = value
            if tokens:
                ext = dict(cpm.extensions)
                ext.update(tokens)
                cpm = replace(cpm, extensions=ext)
            out.append(cpm)
        return out


class ProofVerifyModule:
    """Cross-verifies received observations and records time-to-verify.

    On the wire a proof rides as the object entry itself, so every received
    object counts as a proof by its sender about the object's plate.  A
    plate becomes verified once proofs from two distinct provers are held;
    the recorded delay is verification tick minus the tick the plate was
    first seen (locally or via the network).  Proofs about the vehicle's
    own plate are ignored.
    """

    PROVERS_REQUIRED = 2

    __slots__ = ("provers_required", "first_seen", "provers", "verified")

    def __init__(self, provers_required: int = PROVERS_REQUIRED):
        self.provers_required = provers_required
        self.first_seen = {}
        self.provers = {}
        self.verified = set()

    def process(self, inbox, ctx):
        own = ctx.plate
        tick = ctx.tick
        for cpm in inbox:
            if cpm.is_local_source():
                for obj in cpm.objects:
                    if obj.plate != own and obj.plate not in self.first_seen:
                        self.first_seen[obj.plate] = tick
                continue
            sender = cpm.sender_station
            for obj in cpm.objects:
                plate = obj.plate
                if plate == own:
                    continue
                if plate not in self.first_seen:
                    self.first_seen[plate] = tick
                if plate in self.verified:
                    continue
                provers = self.provers.get(plate)
                if provers is None:
                    provers = self.provers[plate] = set()
                provers.add(sender)
                if len(provers) >= self.provers_required:
                    self.verified.add(plate)
                    ctx.record_ttv(tick - self.first_seen[plate])
        return []


class SpamTxModule:
    """Broadcasts k fabricated objects per tick at random nearby positions."""

    __slots__ = ("k",)

    def __init__(self, k: int = 5):
        self.k = int(k)

    def process(self, inbox, ctx):
        rng = ctx.rng
        sx, sy = ctx.state.x, ctx.state.y
        station = ctx.station
        tick = ctx.tick
        objects = []
        for i in range(self.k):
            r = ctx.comm_range * math.sqrt(rng.random())
            theta = rng.uniform(-math.pi, math.pi)
            objects.append(PerceivedObject(
                f"spam:{station}:{tick}:{i}",
                sx + r * math.cos(theta), sy + r * math.sin(theta),
                normalize_angle(rng.uniform(-math.pi, math.pi)), tick))
        pose = (sx, sy, ctx.state.heading)
        ctx.broadcast(Cpm(station, tick, pose, tuple(objects), {}))
        return []


class ReplayTxModule:
    """Stores the last `history` CPMs seen and rebroadcasts `replays` per tick.

    Both received messages and the vehicle's own perception CPMs are
    candidates; replayed payloads are byte-identical to the stored message.
    """

    __slots__ = ("buffer", "replays")

    def __init__(self, history: int = 50, replays: int = 1):
        self.buffer = deque(maxlen=int(history))
        self.replays = int(replays)

    def process(self, inbox, ctx):
        for cpm in inbox:
            self.buffer.append(cpm.without_extensions())
        if self.buffer:
            count = min(self.replays, len(self.buffer))
            picks = ctx.rng.sample(range(len(self.buffer)), count)
            for idx in sorted(picks):
                ctx.broadcast(self.buffer[idx])
        return []


MODULES: dict[str, Callable[..., Any]] = {
    "camera": CameraModule,
    "object_store": ObjectStoreModule,
    "cpm_tx": CpmTxModule,
    "rx": RxModule,
    "proof_gen": ProofGenModule,
    "proof_verify": ProofVerifyModule,
    "spam_tx": SpamTxModule,
    "replay_tx": ReplayTxModule,
}


def register_module(name: str, factory: Callable[..., Any]) -> None:
    """Register an additional OBU module implementation."""
    MODULES[name] = factory


# ---------------------------------------------------------------------------
# Vehicle types

@dataclass(frozen=True)
class VehicleTypeSpec:
    """Declarative vehicle type: flow graph, entry modules, parameters."""

    name: str
    graph: FlowGraph
    entry: tuple[str, ...] = ()
    connected: bool = True
    params: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self):
        order = validate_flow(self.graph)
        known = set(self.graph.nodes)
        for e in self.entry:
            if e not in known:
                raise SchemaError(f"entry module {e!r} not in flow")
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_preds", predecessors(self.graph))
        object.__setattr__(self, "_entry_set", frozenset(self.entry))

    @property
    def order(self) -> tuple[str, ...]:
        return self._order

    @property
    def preds(self) -> dict[str, tuple[str, ...]]:
        return self._preds

    @property
    def entry_set(self) -> frozenset[str]:
        """The entry modules as a set, shared by every vehicle of the type."""
        return self._entry_set


def builtin_vehicle_types() -> dict[str, VehicleTypeSpec]:
    """The built-in vehicle types, keyed by name."""

    def spec(name, modules, edges, entry=(), connected=True, params=None):
        return VehicleTypeSpec(
            name, FlowGraph(tuple(modules),
                            {k: tuple(v) for k, v in edges.items()}),
            tuple(entry), connected, params or {})

    return {
        "UnconnectedVehicle": spec(
            "UnconnectedVehicle",
            ["camera", "object_store"],
            {"camera": ["object_store"]},
            connected=False),
        "ConnectedVehicle": spec(
            "ConnectedVehicle",
            ["camera", "cpm_tx", "rx", "object_store"],
            {"camera": ["cpm_tx", "object_store"], "rx": ["object_store"]},
            entry=["rx"]),
        "PoTVehicle": spec(
            "PoTVehicle",
            ["camera", "proof_gen", "cpm_tx", "rx", "proof_verify",
             "object_store"],
            {"camera": ["proof_gen", "object_store", "proof_verify"],
             "proof_gen": ["cpm_tx"],
             "rx": ["object_store", "proof_verify"]},
            entry=["rx"]),
        "SpamAttacker": spec(
            "SpamAttacker",
            ["spam_tx"], {},
            params={"spam_tx": {"k": 5}}),
        "ReplayAttacker": spec(
            "ReplayAttacker",
            ["camera", "rx", "replay_tx"],
            {"camera": ["replay_tx"], "rx": ["replay_tx"]},
            entry=["rx"],
            params={"replay_tx": {"history": 50, "replays": 1}}),
        "SilenceAttacker": spec(
            "SilenceAttacker",
            ["camera", "rx", "object_store"],
            {"camera": ["object_store"], "rx": ["object_store"]},
            entry=["rx"]),
        "DummyVehicle": spec("DummyVehicle", [], {}, connected=False),
    }


class Vehicle:
    """One instantiated vehicle: module instances plus routing tables."""

    __slots__ = ("plate", "station", "type_name", "modules", "order",
                 "preds", "entry", "uses_camera")

    def __init__(self, plate, station, type_name, modules, order, preds, entry):
        self.plate = plate
        self.station = station
        self.type_name = type_name
        self.modules = modules
        self.order = order
        self.preds = preds
        self.entry = entry
        self.uses_camera = "camera" in modules


def build_vehicle(spec: VehicleTypeSpec, plate: str,
                  station: int | None) -> Vehicle:
    """Instantiate a vehicle with fresh module state; the routing tables
    are the type's own, shared by all its vehicles."""
    modules = {}
    for name in spec.graph.nodes:
        factory = MODULES.get(name)
        if factory is None:
            raise SchemaError(f"unknown module {name!r}")
        modules[name] = factory(**spec.params.get(name, {}))
    return Vehicle(plate, station, spec.name, modules, spec.order,
                   spec.preds, spec.entry_set)


def tick_vehicle(vehicle: Vehicle, network_inbox,
                 ctx: SandboxContext) -> tuple[int, MetricsRecord]:
    """Run the vehicle's modules once each, in topological order.

    Each module's inbox is the concatenation of its predecessors'
    outboxes, with the network inbox prepended for entry modules.  A
    module failure aborts this vehicle's tick only: the error is counted
    in the metrics record and the simulation carries on.  Broadcasts that
    modules made before the failure stand and go out next tick.
    """
    outboxes: dict[str, list] = {}
    try:
        for name in vehicle.order:
            inbox = list(network_inbox) if name in vehicle.entry else []
            for pred in vehicle.preds[name]:
                inbox.extend(outboxes[pred])
            out = vehicle.modules[name].process(inbox, ctx)
            outboxes[name] = out if out is not None else []
    except Exception:
        ctx.errors += 1
    return ctx.broadcasts, ctx.finish_record()

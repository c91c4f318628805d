"""Per-vehicle module sandbox.

Each vehicle's on-board unit is a DAG of small modules exchanging
CPM-shaped values.  A module sees only its inbox plus the explicitly
provided context APIs (perception, broadcast, identity lookup, seeded
RNG); it holds no reference to world state, so vehicles are isolated from
each other except through delivered messages.  Vehicle types are
declarative: a list of modules, an adjacency list of edges, the entry
modules that receive the network inbox, and per-module parameters.

Each vehicle, a respawned one included, gets every module built fresh
from the factory registered under its name at that moment; it shares
only its type's step table with the other vehicles of its type.

A module's process(inbox, ctx) returns its outbox: a list, or None for
no messages; anything else fails the module, as does a broadcast that
the network refuses (more objects than the wire can count).  Each
module's inbox is a list built fresh for it, so a module may pass it on
as its outbox (rx and proof_gen do).  A vehicle perceives when one of
its modules is not of a built-in class that never calls ctx.perceive();
the name a module is registered under plays no part.

Plates reach the object store as plate masks (see messages.py): the
network builds the mask of every CPM it delivers, from that CPM's objects,
and the store builds the mask of a CPM its own vehicle made.  So a module
that edits the objects of a CPM it received changes no other vehicle's
object counts, and a sender cannot hand recipients a mask that disagrees
with its objects; the proof verifier still reads each object's plate.
A delivered CPM is shared by its recipients, mask included, so treat it
as read-only.  ctx.plate_mask() and ctx.plate_code() answer from the
run's one plate registry.

A module class may declare `idle = True`.  It promises that when its
inbox is empty and its vehicle perceives nothing, `process()` returns
nothing, broadcasts nothing, records no TTV, raises nothing and leaves
the module's state unchanged, and that whatever it writes into the
context then depends only on that state.  A run reuses the last record
of a vehicle whose modules all declare it on such a quiet tick (see
scenario.py); a module without the declaration runs every tick.
"""

from __future__ import annotations

import math
import random
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import SchemaError, SimError
from .messages import Cpm, PerceivedObject
from .network import MAX_OBJECTS
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
    edge on a cycle when the graph has one.
    """
    return _compile_flow(graph)[0]


def predecessors(graph: FlowGraph) -> dict[str, tuple[str, ...]]:
    """Predecessor lists in node declaration order."""
    preds = {n: [] for n in graph.nodes}
    for src in graph.nodes:
        for dst in graph.edges.get(src, ()):
            preds[dst].append(src)
    return {n: tuple(p) for n, p in preds.items()}


def _compile_flow(graph: FlowGraph):
    """(validate_flow's order, predecessors) of a flow in one pass.

    Each step places the first pending module, in declaration order, whose
    predecessors are all placed.  When none is ready, every pending module
    has a pending predecessor, so walking back from the first pending one
    must repeat a module: the edge from it to the module walked just
    before it lies on a cycle.
    """
    known = set(graph.nodes)
    if len(known) != len(graph.nodes):
        raise SchemaError("duplicate module name in flow")
    for src, dsts in graph.edges.items():
        if src not in known:
            raise SchemaError(f"edge from unknown module {src!r}")
        for dst in dsts:
            if dst not in known:
                raise SchemaError(f"edge to unknown module {dst!r}")
    preds = predecessors(graph)
    order = []
    pending = dict.fromkeys(graph.nodes)
    while pending:
        for n in pending:
            if not any(p in pending for p in preds[n]):
                break
        else:
            n, walk = next(iter(pending)), []
            while n not in walk:
                walk.append(n)
                n = next(p for p in preds[n] if p in pending)
            raise SchemaError(f"flow graph has a cycle through edge "
                              f"{n!r} -> {walk[-1]!r}")
        del pending[n]
        order.append(n)
    return order, preds


# ---------------------------------------------------------------------------
# Sandbox context

class SandboxContext:
    """The only window a vehicle module has onto the world.

    Carries the current tick, the vehicle's own identity and pose, the
    cached perception result, bound simulator APIs, and the per-tick
    metric scratchpad, which metrics.record_counters encodes once the
    vehicle's modules have run.  The RNG is seeded from (scenario seed,
    vehicle id, tick) so results never depend on scheduling.
    """

    __slots__ = ("tick", "plate", "station", "state", "comm_range",
                 "bytes_sent", "errors", "ttv_events",
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
        size = self._net.shb_broadcast(self.station, cpm)
        self.bytes_sent += size
        return size

    def station_of(self, plate: str):
        return self._match.station_of(plate)

    def plate_code(self, plate: str) -> int:
        """The plate's code in the run's plate registry (interned if
        new)."""
        return self._net.registry.intern(plate)

    def plate_mask(self, objects) -> int:
        """The plate mask of `objects` in the run's plate registry: bit c
        set for each plate of code c (see messages.py)."""
        return self._net.registry.mask(objects)

    def plate_of(self, station: int) -> str:
        return self._match.plate_of(station)

    def record_ttv(self, delay: int) -> None:
        self.ttv_events[delay] = self.ttv_events.get(delay, 0) + 1

    def set_object_counts(self, local: int, received: int, total: int) -> None:
        self.local_objects = local
        self.received_objects = received
        self.all_objects = total


# ---------------------------------------------------------------------------
# OBU modules

def _whole(key: str, value, least: int, most: int = sys.maxsize) -> int:
    """A count parameter as an int; ValueError unless it is a whole
    number from `least` to `most` (a bool is not a count)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or not least <= n <= most \
            or isinstance(value, bool):
        raise ValueError(f"{key} must be a whole number from {least} to "
                         f"{most}, not {value!r}")
    return n


class CameraModule:
    """Wraps the perception result of the tick into a local CPM; the
    object store builds its plate mask.

    Emits nothing on ticks without perceived objects.
    """

    idle = True
    __slots__ = ()

    def process(self, inbox, ctx):
        objs = ctx.perceive()
        if not objs:
            return []
        pose = (ctx.state.x, ctx.state.y, ctx.state.heading)
        # station 0 stands for none: a local CPM never reaches the wire
        return [Cpm(ctx.station or 0, ctx.tick, pose, objs, True)]


class ObjectStoreModule:
    """Accumulates distinct plates known locally and via the network.

    `local` and `received` are plate masks (see messages.py): one OR per
    CPM, never a walk over its objects, and a store's size follows the
    highest code it knows.  A CPM without a mask (a local one, from the
    camera or a custom sensor) gets one here, held only in the OR.  The
    vehicle's own plate never counts: its bit is set in both masks from
    the first call on (0 in both stands for a store that knows nothing
    yet), and each count is one less than its mask's bits.
    """

    idle = True
    __slots__ = ("local", "received")

    def __init__(self):
        self.local = 0
        self.received = 0

    def process(self, inbox, ctx):
        local, received = self.local, self.received
        if not local:
            local = received = 1 << ctx.plate_code(ctx.plate)
        for cpm in inbox:
            mask = cpm.mask
            if mask is None:
                mask = ctx.plate_mask(cpm.objects)
            if cpm.local:
                local |= mask
            else:
                received |= mask
        self.local = local
        self.received = received
        ctx.set_object_counts(local.bit_count() - 1, received.bit_count() - 1,
                              (local | received).bit_count() - 1)
        return []


class CpmTxModule:
    """Assembles one wire CPM per tick from local perceptions; the
    network builds its plate mask.

    Broadcasts only on ticks with at least one locally perceived object.
    """

    idle = True
    __slots__ = ()

    def process(self, inbox, ctx):
        objects = []
        for cpm in inbox:
            objects.extend(cpm.objects)
        if objects:
            pose = (ctx.state.x, ctx.state.y, ctx.state.heading)
            ctx.broadcast(Cpm(ctx.station, ctx.tick, pose, tuple(objects)))
        return []


class RxModule:
    """Entry module: forwards the network inbox into the flow."""

    idle = True
    __slots__ = ()

    def process(self, inbox, ctx):
        return inbox


class ProofGenModule:
    """Forwards the vehicle's perceptions, unchanged, to its CPM sender.

    On the wire the object entry itself is the observation proof (see
    ProofVerifyModule), so a prover needs nothing added to its CPM."""

    idle = True
    __slots__ = ()

    def process(self, inbox, ctx):
        return inbox


class ProofVerifyModule:
    """Cross-verifies received observations and records time-to-verify.

    On the wire a proof rides as the object entry itself, so every received
    object counts as a proof by its sender about the object's plate.  A
    plate becomes verified once proofs from two distinct provers are held;
    the recorded delay is verification tick minus the tick the plate was
    first seen (locally or via the network).  Proofs about the vehicle's
    own plate are ignored.

    `first_seen` maps each plate seen to the tick it was first seen, or
    to None once it is verified.  `provers` holds, per plate proved but
    not yet verified, its one prover's station, or the set of its provers
    once there are more; a plate's entry goes when it is verified.
    """

    PROVERS_REQUIRED = 2

    idle = True
    __slots__ = ("provers_required", "first_seen", "provers")

    def __init__(self, provers_required: int = PROVERS_REQUIRED):
        self.provers_required = _whole("provers_required",
                                       provers_required, 1)
        self.first_seen = {}
        self.provers = {}

    def process(self, inbox, ctx):
        own = ctx.plate
        tick = ctx.tick
        first_seen = self.first_seen
        provers = self.provers
        for cpm in inbox:
            # a local CPM is a CPM with no sender: it proves nothing
            sender = None if cpm.local else cpm.sender_station
            for obj in cpm.objects:
                plate = obj.plate
                if plate == own:
                    continue
                seen = first_seen.setdefault(plate, tick)
                if sender is None or seen is None:
                    continue
                held = provers.get(plate, sender)
                if type(held) is set:
                    held.add(sender)
                elif held != sender:
                    held = {held, sender}
                n = len(held) if type(held) is set else 1
                if n >= self.provers_required:
                    provers.pop(plate, None)
                    first_seen[plate] = None
                    ctx.record_ttv(tick - seen)
                else:
                    provers[plate] = held
        return []


class SpamTxModule:
    """Broadcasts k fabricated objects per tick at random nearby positions;
    k is at most the wire's object count limit."""

    __slots__ = ("k",)

    def __init__(self, k: int = 5):
        self.k = _whole("k", k, 0, MAX_OBJECTS)

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
        ctx.broadcast(Cpm(station, tick, pose, tuple(objects)))
        return []


class ReplayTxModule:
    """Stores the last `history` CPMs seen and rebroadcasts `replays` per tick.

    Both received messages and the vehicle's own perception CPMs are
    candidates, stored as given; replayed payloads are byte-identical to
    the stored message, since the network clears a local CPM's flag.
    """

    __slots__ = ("buffer", "replays")

    def __init__(self, history: int = 50, replays: int = 1):
        self.buffer = deque(maxlen=_whole("history", history, 1))
        self.replays = _whole("replays", replays, 0)

    def process(self, inbox, ctx):
        self.buffer.extend(inbox)
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


# the built-in module classes that never call ctx.perceive()
_BLIND = frozenset({ObjectStoreModule, CpmTxModule, RxModule, ProofGenModule,
                    ProofVerifyModule, SpamTxModule, ReplayTxModule})


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
        order, preds = _compile_flow(self.graph)
        for e in self.entry:
            if e not in preds:
                raise SchemaError(f"entry module {e!r} not in flow")
        at = {name: i for i, name in enumerate(order)}
        # the steps tick_vehicle walks, shared by every vehicle of the
        # type: (module, is entry, indices of its predecessors' steps)
        object.__setattr__(self, "_steps", tuple(
            (name, name in self.entry, tuple(at[p] for p in preds[name]))
            for name in order))


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
    """One instantiated vehicle: its modules, in a tuple in its type's step
    order, plus the type's steps.

    `perceives` is true when some module is not of a built-in class that
    never calls ctx.perceive(); `idle` is true when every module declares
    `idle`; `quiet` is the metrics.record_counters part of the vehicle's
    last record when that tick was quiet and ended without error, else
    None."""

    __slots__ = ("plate", "station", "type_name", "parts", "steps",
                 "perceives", "idle", "quiet")

    def __init__(self, plate, station, type_name, modules, steps):
        self.plate = plate
        self.station = station
        self.type_name = type_name
        self.parts = tuple([modules[name] for name, _, _ in steps])
        self.steps = steps
        self.perceives = any(type(m) not in _BLIND for m in self.parts)
        self.idle = all(getattr(m, "idle", False) for m in self.parts)
        self.quiet = None

    @property
    def modules(self) -> dict[str, Any]:
        """Module name -> the instance tick_vehicle runs, in step order."""
        return {name: m for (name, _, _), m in zip(self.steps, self.parts)}


def build_vehicle(spec: VehicleTypeSpec, plate: str,
                  station: int | None) -> Vehicle:
    """Instantiate a vehicle with every module built fresh from the
    factory registered for its name; the step table is the type's own."""
    modules = {}
    for name in spec.graph.nodes:
        factory = MODULES.get(name)
        if factory is None:
            raise SchemaError(f"unknown module {name!r}")
        modules[name] = factory(**spec.params.get(name, {}))
    return Vehicle(plate, station, spec.name, modules, spec._steps)


def tick_vehicle(vehicle: Vehicle, network_inbox,
                 ctx: SandboxContext) -> None:
    """Run the vehicle's modules once each, in topological order.

    Each module's inbox is a fresh list: the concatenation of its
    predecessors' outboxes, with the network inbox prepended for entry
    modules.  A module's outbox is a list or None (no messages); anything
    else is that module's failure.  The tick's counters land in ctx.  A
    module failure aborts this vehicle's tick only: the error is counted
    in ctx.errors and the simulation carries on.  Broadcasts that modules
    made before the failure stand and go out next tick; one that the
    network refused (too many objects) is that module's failure.
    """
    outboxes: list[list] = []
    parts = vehicle.parts
    try:
        for _, is_entry, preds in vehicle.steps:
            inbox = list(network_inbox) if is_entry else []
            for i in preds:
                inbox.extend(outboxes[i])
            # steps and parts share their order
            out = parts[len(outboxes)].process(inbox, ctx)
            if out.__class__ is not list:
                if out is not None:
                    raise TypeError("an outbox is a list or None")
                out = []
            outboxes.append(out)
    except Exception:
        ctx.errors += 1

"""Span tracer for the traced run: wraps the public names the tick loop
calls and turns the recorded spans into per-layer metrics.

Each wrapped call records a span (name, start, end, parent, tick, info) in
a per-thread list, with `parent` the index of the enclosing span of the
same thread (-1 at top level) and `tick` the index of the tick the probed
trace was in.  Spans stay in memory until the run ends; they are tuples of
atoms, which the garbage collector stops tracking, so holding hundreds of
thousands of them does not slow the traced run's collections.

A span's self time is its duration minus the time its child spans cover;
the loop's own time per tick is the tick span minus the union of the
top-level spans of every thread inside it (the agent phase runs on pool
threads when workers > 1).
"""

from __future__ import annotations

import threading
import time

from workloads import ALL_TYPES

perf = time.perf_counter

NEIGHBOUR_BUCKETS = (("n0", 0, 0), ("n1_4", 1, 4), ("n5_16", 5, 16),
                     ("n17_64", 17, 64), ("n65_up", 65, None))
CANDIDATE_BUCKETS = (("c2_4", 2, 4), ("c5_16", 5, 16), ("c17_up", 17, None))


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list[list]] = []
        self.tick = -1
        self.candidates = 0  # views that reached the occlusion stage

    def _state(self):
        loc = self._local
        try:
            return loc.spans, loc.stack
        except AttributeError:
            loc.spans, loc.stack = [], []
            with self._lock:
                self.threads.append(loc.spans)
            return loc.spans, loc.stack

    def wrap(self, name, fn, info=None):
        """`fn` with a span named `name` around every call.

        `info(args, result)` stores a value with the span (a neighbour
        count, a vehicle type, a byte count, ...).
        """
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer._state()
            index = len(spans)
            spans.append(None)  # filled in when the call returns
            parent = stack[-1] if stack else -1
            tick = tracer.tick
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf(), parent, tick, None)
                stack.pop()
                raise
            end = perf()
            stack.pop()
            spans[index] = (name, start, end, parent, tick,
                            None if info is None else info(args, result))
            return result

        return traced

    def count_calls(self, fn):
        """`fn` that counts its successful calls in self.candidates."""
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.candidates += 1
            return result

        return counted

    def set_tick(self, index: int) -> None:
        self.tick = index


def install(tracer: Tracer, cavsim) -> dict:
    """Wrap the layer boundaries of an imported cavsim package in place.

    Returns {"registries": [...]} which collects every PlateRegistry the
    run creates, so its final size can be read after the run.
    """
    scenario = cavsim.scenario
    perception = cavsim.perception
    network = cavsim.network
    found = {"registries": []}

    def n_result(args, result):
        return len(result)

    def keep_registry(args, result):
        found["registries"].append(result)

    wrapped = {
        "rebuild": ("spatial.rebuild", None),
        "get_nearby_vehicles": ("spatial.get_nearby_vehicles", n_result),
        "query_radius": ("spatial.query_radius", None),
        "perceive": ("perception.perceive",
                     lambda a, r: (len(a[1]), len(r))),
        "tick_vehicle": ("sandbox.tick_vehicle", lambda a, r: a[0].type_name),
        "build_vehicle": ("sandbox.build_vehicle", None),
        "MatchTable": ("identity.MatchTable", None),
        "PlateRegistry": ("identity.PlateRegistry", keep_registry),
        "load_run": ("metrics.load_run", None),
    }
    for attr, (name, info) in wrapped.items():
        setattr(scenario, attr, tracer.wrap(name, getattr(scenario, attr),
                                            info))
    perception.get_visible_lines = tracer.wrap(
        "perception.get_visible_lines", perception.get_visible_lines,
        lambda a, r: (len(a[0]), len(r)))
    perception.projection_angles = tracer.count_calls(
        perception.projection_angles)
    network.serialize_cpm = tracer.wrap("network.serialize_cpm",
                                        network.serialize_cpm)
    net = network.NetworkSim
    net.step = tracer.wrap("network.step", net.step,
                           lambda a, r: sum(len(box) for box in r.values()))
    net.seal = tracer.wrap("network.seal", net.seal)
    net.shb_broadcast = tracer.wrap("network.shb_broadcast", net.shb_broadcast,
                                    lambda a, r: r)
    writer = cavsim.metrics.MetricsWriter
    writer.record_tick = tracer.wrap("metrics.record_tick", writer.record_tick)
    for module_name, cls in cavsim.sandbox.MODULES.items():
        cls.process = tracer.wrap(f"module.{module_name}", cls.process)
    return found


def _union(intervals) -> float:
    covered = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            covered += hi - lo
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
    return covered


def self_times(tracer: Tracer):
    """Yield (span, duration, self time) for every recorded span."""
    for spans in tracer.threads:
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for i, s in enumerate(spans):
            yield s, s[2] - s[1], s[2] - s[1] - child[i]


def loop_self(tracer: Tracer, starts, ends) -> list[float]:
    """Per tick: tick span minus what the top-level spans of all threads
    cover inside it."""
    tops: dict[int, list] = {}
    for spans in tracer.threads:
        for s in spans:
            if s[3] < 0 and s[4] >= 0:
                tops.setdefault(s[4], []).append((s[1], s[2]))
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        inside = [(max(lo, start), min(hi, end)) for lo, hi in tops.get(i, ())
                  if hi > start and lo < end]
        out.append((end - start) - _union(inside))
    return out


def _mean(total, n):
    return total / n if n else 0.0


def layer_metrics(tracer: Tracer, ticks: int, found: dict,
                  module_names) -> dict:
    """Per-layer metrics of one traced run() over `ticks` ticks.

    `_ms` names are per tick, `_us` names per call.  A bucket or a vehicle
    type that no call fell into reads 0.
    """
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    by_type = {t: [0, 0.0] for t in ALL_TYPES}
    nb_buckets = {b[0]: [0, 0.0] for b in NEIGHBOUR_BUCKETS}
    cand_buckets = {b[0]: [0, 0.0] for b in CANDIDATE_BUCKETS}
    neighbours = nearby_found = objects = 0
    cand_in = cand_out = 0
    deliveries = wire_bytes = 0
    for s, dur, own in self_times(tracer):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        excl[name] = excl.get(name, 0.0) + own
        info = s[5]
        if name == "sandbox.tick_vehicle":
            acc = by_type.setdefault(info, [0, 0.0])
            acc[0] += 1
            acc[1] += dur
        elif name == "perception.perceive":
            n_in, n_out = info
            neighbours += n_in
            objects += n_out
            _bucket(nb_buckets, NEIGHBOUR_BUCKETS, n_in, dur)
        elif name == "perception.get_visible_lines":
            n_in, n_out = info
            cand_in += n_in
            cand_out += n_out
            _bucket(cand_buckets, CANDIDATE_BUCKETS, n_in, dur)
        elif name == "spatial.get_nearby_vehicles":
            nearby_found += info
        elif name == "network.step":
            deliveries += info
        elif name == "network.shb_broadcast":
            wire_bytes += info

    def per_call_us(name, table=excl):
        return 1e6 * _mean(table.get(name, 0.0), calls.get(name, 0))

    def per_tick_ms(name, table=excl):
        return 1e3 * _mean(table.get(name, 0.0), ticks)

    perceives = calls.get("perception.perceive", 0)
    m = {
        "spatial.rebuild_ms": per_tick_ms("spatial.rebuild"),
        "spatial.nearby_us": per_call_us("spatial.get_nearby_vehicles"),
        "spatial.neighbors_per_ego": _mean(
            nearby_found, calls.get("spatial.get_nearby_vehicles", 0)),
        "spatial.query_radius_us": per_call_us("spatial.query_radius"),
        "perception.perceive_us": per_call_us("perception.perceive", incl),
        "perception.visible_lines_us": per_call_us(
            "perception.get_visible_lines", incl),
        "perception.candidates_per_ego": _mean(tracer.candidates, perceives),
        "perception.visible_per_candidate": _mean(cand_out, cand_in),
        "perception.objects_per_neighbor": _mean(objects, neighbours),
        "sandbox.build_vehicle_us": per_call_us("sandbox.build_vehicle", incl),
        "sandbox.spawns_per_tick": _mean(calls.get("sandbox.build_vehicle", 0),
                                         ticks),
        "network.step_ms": per_tick_ms("network.step"),
        "network.seal_ms": per_tick_ms("network.seal"),
        "network.serialize_us": per_call_us("network.serialize_cpm"),
        "network.broadcasts_per_tick": _mean(
            calls.get("network.shb_broadcast", 0), ticks),
        "network.deliveries_per_tick": _mean(deliveries, ticks),
        "network.wire_bytes_per_tick": _mean(wire_bytes, ticks),
        "identity.match_table_ms": per_tick_ms("identity.MatchTable", incl),
        "identity.plates_interned": sum(len(r) for r in found["registries"]),
        "metrics.record_tick_ms": per_tick_ms("metrics.record_tick", incl),
    }
    for key, (n, total) in nb_buckets.items():
        m[f"perception.perceive_us.{key}"] = 1e6 * _mean(total, n)
    for key, (n, total) in cand_buckets.items():
        m[f"perception.visible_lines_us.{key}"] = 1e6 * _mean(total, n)
    for vtype in ALL_TYPES:
        n, total = by_type[vtype]
        m[f"sandbox.tick_vehicle_us.{vtype}"] = 1e6 * _mean(total, n)
    for module_name in module_names:
        m[f"sandbox.module_us.{module_name}"] = per_call_us(
            f"module.{module_name}")
    return m


def _bucket(acc, buckets, n, dur):
    for key, lo, hi in buckets:
        if n >= lo and (hi is None or n <= hi):
            acc[key][0] += 1
            acc[key][1] += dur
            return


def write_spans(tracer: Tracer, path: str) -> int:
    """Write every span as one CSV line; returns the span count."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write("thread,index,name,start,end,parent,tick,info\n")
        for t, spans in enumerate(tracer.threads):
            for i, s in enumerate(spans):
                info = s[5] if isinstance(s[5], (int, str, tuple)) else ""
                f.write(f"{t},{i},{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]},"
                        f"\"{info}\"\n")
                count += 1
    return count

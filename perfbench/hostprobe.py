"""Host-speed probe and the probed trace that brackets every tick.

The probe is a fixed pure-Python loop (dict updates, float math, list
indexing) that calls no cavsim code, so no change to the program
can move it.  What moves it is the host: a slower CPU share or frequency
stretches the probe and the simulator alike.  Every timed span is scaled
by P_REF / (mean of the probe readings just before and just after it), which
expresses it in "host time at a probe of P_REF seconds".

Never change the probe body or P_REF: figures measured with different
probes cannot be compared.
"""

from __future__ import annotations

import math
import time

P_REF = 0.002  # seconds; about the probe's duration on an idle 2-vCPU host
PROBE_ITERATIONS = 8000

perf = time.perf_counter
_SLOTS = list(range(256))


def probe() -> float:
    """Run the fixed probe loop once and return its duration in seconds.

    The loop allocates no container objects, so the garbage collector never
    runs inside it and its duration does not depend on how many objects the
    program keeps alive.
    """
    atan2 = math.atan2
    slots = _SLOTS
    t0 = perf()
    table = dict.fromkeys(range(128), 0)
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        key = i & 127
        table[key] = table[key] + 1
        acc += atan2(i * 0.25, (i & 63) * 0.5 + 1.0)
        if slots[i & 255] > 255:
            acc = -1.0
    elapsed = perf() - t0
    if acc < 0.0:  # keeps the work observable
        raise AssertionError("probe loop computed an impossible value")
    return elapsed


def scaled(spans, probes) -> list[float]:
    """Raw spans expressed at the reference probe speed.

    Span i was bracketed by probes[i] and probes[i + 1].
    """
    return [raw * P_REF / (0.5 * (probes[i] + probes[i + 1]))
            for i, raw in enumerate(spans)]


class ProbedTrace(list):
    """A trace list whose iteration probes the host between ticks.

    run() walks its trace once, tick by tick.  Each step of that walk stamps
    the end of the previous tick, runs the probe and stamps the start of
    the next one, so tick i spans [starts[i], ends[i]] and is bracketed by
    probes[i] and probes[i + 1].  `on_tick` (if given) is told the index of
    the tick that starts.
    """

    def __init__(self, ticks, on_tick=None):
        super().__init__(ticks)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self._on_tick = on_tick

    def __iter__(self):
        for i, tt in enumerate(list.__iter__(self)):
            self._boundary(i > 0)
            if self._on_tick is not None:
                self._on_tick(i)
            self.starts.append(perf())
            yield tt
        self._boundary(len(self.starts) > 0)

    def _boundary(self, closes_tick: bool) -> None:
        if closes_tick:
            self.ends.append(perf())
        self.probes.append(probe())

    def tick_spans(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

"""Time two checkouts' `perceive` on the same inputs, in one process.

    python3 tools/kernelpairs.py --parent DIR --change DIR --workload W \
        [--reps 30]

DIR is a checkout of the repository (the parent's and the change's).  Both
checkouts' cavsim packages are loaded into this process, each under its own
name.  The parent's `perfbench/workloads.py` writes workload W's trace at
seed 1 into a temporary directory, and the parent's `rebuild` and
`sweep_neighbors` build every vehicle's neighbour list for every tick, once.
Each side gets a PerceptionConfig of its own module with the workload's
settings.  The tool first asserts that both `perceive`s return equal
objects (compared field by field) for every vehicle of every tick.  It then
runs --reps rounds of one timed pass per side, the parent first in even
rounds and the change first in odd ones.  A pass calls `perceive` for every
vehicle of every tick and is timed in process CPU time.  It prints each
side's median and minimum ms per tick and the change's against the
parent's in %.

Interleaved passes in one process keep the order of two kernels stable
where separate benchmark runs drift with the host, so the tool sizes a
change.  It claims none: a claim rests on the benchmark's end-to-end
figures.  Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import os
import sys
import tempfile
import time
from statistics import median


def _load(path: str, name: str, package: bool = False):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=(
            [os.path.dirname(path)] if package else None))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # relative imports find the package here
    spec.loader.exec_module(module)
    return module


def load_cavsim(checkout: str, name: str):
    """The cavsim package of a checkout, imported as `name`."""
    return _load(os.path.join(checkout, "src", "cavsim", "__init__.py"),
                 name, package=True)


def build_inputs(cavsim, checkout: str, workload: str, directory: str):
    """(perception config, [(tick, [(ego, neighbours), ...]), ...]) of a
    workload at seed 1, from the checkout's benchmark generator and
    cavsim's own trace reader, grid and sweep."""
    workloads = _load(os.path.join(checkout, "perfbench", "workloads.py"),
                      "kernelpairs_workloads")
    truth = workloads.generate(workloads.WORKLOADS[workload], 1, directory)
    config = cavsim.load_config(truth.config_path)
    ticks = []
    for tt in cavsim.iter_trace(config.trace_path, config.trace_format,
                                default_length=config.default_length,
                                default_width=config.default_width):
        grid = cavsim.rebuild(tt.states, max(config.perception_radius,
                                             config.comm_range))
        near, _ = cavsim.sweep_neighbors(grid, config.perception_radius,
                                         config.comm_range)
        ticks.append((tt.tick, [(s, near[s.id]) for s in tt.states]))
    return config.perception, ticks


def same_config(cavsim, cfg):
    """cfg rebuilt as the PerceptionConfig of another cavsim package."""
    return cavsim.perception.PerceptionConfig(**{
        f.name: getattr(cfg, f.name)
        for f in dataclasses.fields(cfg) if f.init})


def outputs(perceive, cfg, ticks) -> list:
    return [[dataclasses.astuple(o) for o in perceive(ego, near, cfg, tick)]
            for tick, egos in ticks for ego, near in egos]


def timed_pass(perceive, cfg, ticks) -> float:
    """Process CPU ms per tick of one pass over every vehicle."""
    t0 = time.process_time()
    for tick, egos in ticks:
        for ego, near in egos:
            perceive(ego, near, cfg, tick)
    return 1e3 * (time.process_time() - t0) / len(ticks)


def compare(sides: dict, ticks, reps: int) -> dict:
    """{side: [ms per tick of each pass]}, sides alternating which runs
    first; sides maps a name to (perceive, config)."""
    names = list(sides)
    times = {name: [] for name in names}
    for rep in range(reps):
        for name in (names if rep % 2 == 0 else names[::-1]):
            perceive, cfg = sides[name]
            times[name].append(timed_pass(perceive, cfg, ticks))
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kernelpairs.py")
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--reps", type=int, default=30)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    parent = load_cavsim(args.parent, "kernelpairs_parent")
    change = load_cavsim(args.change, "kernelpairs_change")
    with tempfile.TemporaryDirectory() as directory:
        cfg, ticks = build_inputs(parent, args.parent, args.workload,
                                  directory)
    sides = {"parent": (parent.perception.perceive, cfg),
             "change": (change.perception.perceive,
                        same_config(change, cfg))}
    want = outputs(*sides["parent"], ticks)
    if outputs(*sides["change"], ticks) != want:
        raise AssertionError("perceive differs between parent and change")
    egos = sum(len(egos) for _, egos in ticks)
    print(f"{args.workload}: {len(ticks)} ticks, {egos} egos, "
          f"{sum(map(len, want))} objects perceived, equal on both sides")
    times = compare(sides, ticks, args.reps)
    for name, values in times.items():
        print(f"{name}: median {median(values):.3f} ms/tick, "
              f"min {min(values):.3f} ms/tick over {len(values)} passes")
    p, c = median(times["parent"]), median(times["change"])
    print(f"change vs parent: {100 * (c / p - 1):+.1f} % (median), "
          f"{100 * (min(times['change']) / min(times['parent']) - 1):+.1f} "
          f"% (min)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

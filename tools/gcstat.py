"""Count what Python's cyclic garbage collector does during a run.

    python3 tools/gcstat.py CONFIG [--reps N]

Loads the config and its trace once, then runs the scenario N times
(default 1) into a temporary directory that is removed afterwards.  Each
run starts from a full collection, which is not counted.  Prints one line
per run: the collections of each generation (gen0, gen1, full) and the
collector's time in milliseconds per tick, timed through gc.callbacks.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def gc_counts(action) -> tuple[list[int], float, object]:
    """Run action() after a full collection; returns (collections per
    generation, seconds spent collecting, action's result)."""
    counts = [0, 0, 0]
    spent = 0.0
    started = 0.0

    def on_gc(phase, info):
        nonlocal spent, started
        if phase == "start":
            started = time.perf_counter()
        else:
            spent += time.perf_counter() - started
            counts[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        result = action()
    finally:
        gc.callbacks.remove(on_gc)
    return counts, spent, result


def main(argv: list[str]) -> int:
    from cavsim import SimError, load_config, load_trace, run

    parser = argparse.ArgumentParser(prog="gcstat.py")
    parser.add_argument("config")
    parser.add_argument("--reps", type=int, default=1)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    try:
        config = load_config(args.config)
        if config.trace_path is None:
            parser.error("the config names no trace")
        trace = load_trace(config.trace_path, config.trace_format,
                           default_length=config.default_length,
                           default_width=config.default_width)
    except (SimError, OSError) as exc:
        parser.error(str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        config.out_dir = os.path.join(tmp, "run")
        for rep in range(1, args.reps + 1):
            (gen0, gen1, full), spent, summary = gc_counts(
                lambda: run(config, trace))
            ms = 1e3 * spent / max(summary.ticks_executed, 1)
            print(f"run {rep}: gen0={gen0} gen1={gen1} full={full} "
                  f"gc_ms_per_tick={ms:.3f}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)  # the cavsim of this checkout
    sys.exit(main(sys.argv[1:]))

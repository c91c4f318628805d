"""Count what Python's cyclic garbage collector does during a run.

    python3 tools/gcstat.py CONFIG [--reps N]

Loads the config, then runs the scenario N times (default 1) into a
temporary directory that is removed afterwards.  Each run streams the
config's trace file tick by tick, as `cavsim run` does, so no run holds a
whole trace, and starts from a full collection, which is not counted.
Prints one line per run: the collections of each generation (gen0, gen1,
full), the collector's time in milliseconds per tick, timed through
gc.callbacks, and the process's peak resident set so far in kB (VmHWM,
read from /proc/self/status; n/a where that file is absent).  Unlike a child's
ru_maxrss, VmHWM starts afresh at exec, so it measures this process alone.
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


def vm_hwm_kb(status: str = "/proc/self/status") -> str:
    """The VmHWM field of a /proc status file, in kB, or "n/a"."""
    try:
        with open(status) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return line.split()[1]
    except OSError:
        pass
    return "n/a"


def main(argv: list[str]) -> int:
    from cavsim import SimError, load_config, run

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
        with tempfile.TemporaryDirectory() as tmp:
            config.out_dir = os.path.join(tmp, "run")
            for rep in range(1, args.reps + 1):
                (gen0, gen1, full), spent, summary = gc_counts(
                    lambda: run(config))
                ms = 1e3 * spent / max(summary.ticks_executed, 1)
                print(f"run {rep}: gen0={gen0} gen1={gen1} full={full} "
                      f"gc_ms_per_tick={ms:.3f} vmhwm_kb={vm_hwm_kb()}")
    except (SimError, OSError) as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)  # the cavsim of this checkout
    sys.exit(main(sys.argv[1:]))

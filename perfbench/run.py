"""cavsim benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload sparse|dense|mixed_churn \
        [--seed N] [--seconds S] [--trace 0|1]

The inputs are generated from the seed, the program is driven only through
its public API in child processes (child.py), the outputs are checked
(checks.py), and the last line of stdout is
{"correct", "attempted", "failed", "metrics"}.  The line before it is the
per-run record: raw wall times and probe readings next to the scaled
figures, the CPU count and the Python version.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 an untraced and a traced
run of the same inputs give the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import child  # noqa: E402
import hostprobe  # noqa: E402
from hostprobe import scaled  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

WORK_ROOT = os.path.join(child.ROOT, ".perfbench_runs")
DEADLINE_S = 170  # every child is stopped by then; a run must end within 180 s
# run() outside the tick loop (validate, opening and closing the output
# files) may take this share of its wall time; the probed ticks cover the rest
MAX_UNSTAMPED_SHARE = 0.05

END_TO_END = {"tick_ms": "ms", "setup_s": "s", "report_s": "s",
              "peak_rss_mb": "MiB", "report_peak_rss_mb": "MiB"}


STARTED = hostprobe.perf()


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def run_child(role: str, params: dict) -> dict:
    timeout = max(1.0, DEADLINE_S - (hostprobe.perf() - STARTED))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           role, json.dumps(params)],
                          capture_output=True, text=True, timeout=timeout,
                          cwd=child.ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{role} child failed (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_rounds(rounds, ticks: int, fails: list) -> None:
    """Every round ran all ticks and wrote the same bytes as round 0, and
    its tick stamps add up to run()'s wall time minus the probes."""
    sim0, rep0 = rounds[0]
    for n, (sim, rep) in enumerate(rounds):
        if sim["ticks"] != ticks or len(sim["tick_s"]) != ticks:
            fails.append(f"round {n}: {sim['ticks']} ticks executed, "
                         f"{len(sim['tick_s'])} stamped, {ticks} in the trace")
        for key in ("metrics_sha256", "index_sha256"):
            if sim[key] != sim0[key]:
                fails.append(f"round {n}: {key} differs from round 0")
        if rep is not None and rep["csv_sha256"] != rep0["csv_sha256"]:
            fails.append(f"round {n}: reports differ from round 0")
        unstamped = sim["wall_s"] - sum(sim["probes"]) - sum(sim["tick_s"])
        if not 0.0 <= unstamped <= MAX_UNSTAMPED_SHARE * sim["wall_s"]:
            fails.append(f"round {n}: tick stamps leave {unstamped:.4f} s of "
                         f"run()'s {sim['wall_s']:.4f} s unaccounted")
        fails += [f"round {n}: report raised: {msg}"
                  for msg in (rep or {}).get("failed", ())]


def probe_summary(probes) -> dict:
    return {"n": len(probes), "median_us": 1e6 * median(probes),
            "min_us": 1e6 * min(probes), "max_us": 1e6 * max(probes)}


def report_rounds(spans):
    """Sum the per-call spans of each round of the three reports."""
    n = len(child.REPORT_KINDS)
    return [sum(spans[i:i + n]) for i in range(0, len(spans), n)]


def timed_run(cavsim, w, truth, seed, seconds, work):
    """Rounds of (sim process, report process) until `seconds` have passed.

    Each round sets up, runs and reports the same inputs in fresh
    processes, so set-up, tick and report samples are spread over the
    whole run instead of bunching into one stretch of host speed.
    """
    rounds = []
    start = hostprobe.perf()
    while not rounds or hostprobe.perf() - start < seconds:
        out = os.path.join(work, f"round{len(rounds)}")
        sim = run_child("sim", {"config": truth.config_path,
                                "setup_reps": w.setup_reps, "out": out})
        rep = run_child("report", {"run_dir": out,
                                   "csv_dir": os.path.join(out, "csv"),
                                   "rounds": w.report_reps})
        rounds.append((sim, rep))
        if len(rounds) > 1:
            shutil.rmtree(out)
    first = os.path.join(work, "round0")
    fails, stats = checks.check_run(cavsim, truth, seed, first,
                                    os.path.join(first, "csv"))
    check_rounds(rounds, len(truth.ticks), fails)

    sims = [sim for sim, _ in rounds]
    reps = [rep for _, rep in rounds]
    scaled_ticks = [t for sim in sims
                    for t in scaled(sim["tick_s"], sim["probes"])]
    setup_scaled = [t for sim in sims
                    for t in scaled(sim["setup_s"], sim["setup_probes"])]
    report_scaled, report_raw = [], []
    for rep in reps:
        calls = [d for _, d in rep["calls"]]
        report_scaled += report_rounds(scaled(calls, rep["probes"]))
        report_raw += report_rounds(calls)
    metrics = {
        "tick_ms": 1e3 * median(scaled_ticks),
        "setup_s": median(setup_scaled),
        "report_s": median(report_scaled),
        "peak_rss_mb": median([sim["peak_rss_mb"] for sim in sims]),
        "report_peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }
    record = {
        "rounds": len(rounds), "ticks_per_round": len(truth.ticks),
        "setup_calls": len(setup_scaled), "report_rounds": len(report_raw),
        "raw": {"tick_ms": 1e3 * median([t for sim in sims
                                          for t in sim["tick_s"]]),
                "setup_s": median([t for sim in sims for t in sim["setup_s"]]),
                "report_s": median(report_raw),
                "run_wall_s": [sim["wall_s"] for sim in sims]},
        "probe": {
            "ticks": probe_summary([p for sim in sims for p in sim["probes"]]),
            "setup": probe_summary([p for sim in sims
                                    for p in sim["setup_probes"]]),
            "report": probe_summary([p for rep in reps
                                     for p in rep["probes"]])},
        "metrics_sha256": sims[0]["metrics_sha256"],
        "checked": stats,
    }
    attempted = sum(stats["vehicle_ticks"] + len(rep["calls"]) for rep in reps)
    failed = sum(stats["failed_records"] + len(rep["failed"]) for rep in reps)
    return metrics, record, fails, attempted, failed


def traced_run(cavsim, w, truth, seed, work):
    plain_dir = os.path.join(work, "round0")
    csv_dir = os.path.join(plain_dir, "csv")
    plain = run_child("sim", {"config": truth.config_path, "setup_reps": 1,
                              "out": plain_dir})
    traced = run_child("sim", {"config": truth.config_path, "setup_reps": 3,
                               "traced": True,
                               "out": os.path.join(work, "traced"),
                               "spans_csv": os.path.join(
                                   WORK_ROOT, f"{w.name}-spans.csv")})
    rep = run_child("report", {"run_dir": plain_dir, "csv_dir": csv_dir,
                               "rounds": 3, "traced": True})
    fails, stats = checks.check_run(cavsim, truth, seed, plain_dir, csv_dir)
    ticks = len(truth.ticks)
    check_rounds([(plain, rep), (traced, None)], ticks, fails)

    m = dict(traced["layers"])
    load_s = median(traced["load_s"])
    m["trace.load_s"] = load_s
    m["trace.rows_per_s"] = truth.rows / load_s
    m["metrics.bytes_per_tick"] = os.path.getsize(
        os.path.join(plain_dir, "metrics.jsonl")) / ticks
    m["metrics.load_run_s"] = median(rep["load_run_s"])
    for kind in child.REPORT_KINDS:
        m[f"metrics.report_{kind}_s"] = median(
            [d for k, d in rep["calls"] if k == kind])
    for column, values in read_timings(plain_dir).items():
        m[f"scenario.phase.{column}_ms"] = 1e3 * fmean(values)
        m[f"scenario.phase.{column}_p95_ms"] = 1e3 * p95(values)
    plain_tick = fmean(plain["tick_s"])
    traced_tick = fmean(traced["tick_s"])
    m["scenario.loop_self_ms"] = 1e3 * fmean(traced["loop_self_s"])
    m["scenario.traced_tick_ms"] = 1e3 * traced_tick
    m["scenario.trace_overhead_ms"] = 1e3 * (traced_tick - plain_tick)
    m["host.probe_us"] = 1e6 * median(plain["probes"])

    record = {"ticks_per_round": ticks, "spans": traced["spans"],
              "raw": {"untraced_tick_ms": 1e3 * plain_tick,
                      "traced_tick_ms": 1e3 * traced_tick},
              "probe": {"untraced": probe_summary(plain["probes"]),
                        "traced": probe_summary(traced["probes"])},
              "metrics_sha256": plain["metrics_sha256"], "checked": stats}
    attempted = 2 * stats["vehicle_ticks"] + len(rep["calls"])
    failed = 2 * stats["failed_records"] + len(rep["failed"])
    return m, record, fails, attempted, failed


def read_timings(run_dir) -> dict:
    with open(os.path.join(run_dir, "timings.csv"), encoding="ascii") as f:
        header = f.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in f]
    return {col: [row[i] for row in rows]
            for i, col in enumerate(header) if col != "tick"}


def p95(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


UNITS = {"trace.rows_per_s": "1/s", "metrics.bytes_per_tick": "B",
         "network.wire_bytes_per_tick": "B",
         "perception.visible_per_candidate": "ratio",
         "perception.objects_per_neighbor": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    cavsim = child.import_cavsim()  # fail before generating anything

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK_ROOT)
    try:
        truth = generate(w, args.seed, os.path.join(work, "input"))
        if args.trace:
            metrics, record, fails, attempted, failed = traced_run(
                cavsim, w, truth, args.seed, work)
        else:
            metrics, record, fails, attempted, failed = timed_run(
                cavsim, w, truth, args.seed, args.seconds, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in fails[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    record.update({"workload": w.name, "seed": args.seed,
                   "trace": args.trace, "cpus": os.cpu_count(),
                   "python": platform.python_version(),
                   "probe_ref_us": 1e6 * hostprobe.P_REF,
                   "checks_failed": len(fails), "metrics": metrics})
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

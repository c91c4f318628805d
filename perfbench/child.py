"""One measured process of a benchmark run; started by run.py.

    python3 perfbench/child.py sim    '<json params>'
    python3 perfbench/child.py report '<json params>'

`sim` does what a user pays for before and during a run: set-up
(load_config + load_trace + validate), repeated, then one run() over the
loaded trace.  `report` is a fresh process that writes the bandwidth, ttv
and cpr reports of that run, repeated.  Both
bracket every timed call with the host-speed probe, and both print one
JSON object with their raw timings and their own peak RSS.  With
"traced": true the layer boundaries are wrapped by tracer.py first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from hostprobe import ProbedTrace, perf, probe  # noqa: E402

REPORT_KINDS = ("bandwidth", "ttv", "cpr")


def import_cavsim():
    """Import cavsim from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cavsim", "__init__.py")):
        raise SystemExit(f"perfbench: no cavsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import cavsim
    if not os.path.abspath(cavsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported cavsim from {cavsim.__file__}")
    return cavsim


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sim(params: dict, cavsim, tracer=None) -> dict:
    """`setup_reps` set-ups, then one run() over the last loaded trace."""
    config_path = params["config"]
    setup, load_times = [], []
    probes = [probe()]
    for k in range(params["setup_reps"]):
        t0 = perf()
        config = cavsim.load_config(config_path)
        l0 = perf()
        trace = cavsim.load_trace(config.trace_path, config.trace_format,
                                  default_length=config.default_length,
                                  default_width=config.default_width)
        l1 = perf()
        config.validate()
        t1 = perf()
        setup.append(t1 - t0)
        load_times.append(l1 - l0)
        if k + 1 < params["setup_reps"]:
            del config, trace  # freed outside any timed span
        probes.append(probe())

    config = dataclasses.replace(config, out_dir=params["out"])
    probed = ProbedTrace(trace, tracer.set_tick if tracer else None)
    w0 = perf()
    summary = cavsim.run(config, probed)
    wall = perf() - w0
    return {"setup_s": setup, "setup_probes": probes, "load_s": load_times,
            "wall_s": wall, "ticks": summary.ticks_executed,
            "tick_s": probed.tick_spans(), "probes": probed.probes,
            "tick_bounds": (probed.starts, probed.ends),
            "metrics_sha256": file_digest(summary.metrics_path),
            "index_sha256": file_digest(summary.index_path),
            "peak_rss_mb": peak_rss_mb()}


def report(params: dict, cavsim) -> dict:
    """`rounds` rounds of the three reports over one finished run."""
    os.makedirs(params["csv_dir"], exist_ok=True)
    calls = []
    probes = [probe()]
    failed = []
    for _ in range(params["rounds"]):
        for kind in REPORT_KINDS:
            path = os.path.join(params["csv_dir"], f"{kind}.csv")
            t0 = perf()
            try:
                with open(path, "w", encoding="ascii") as out:
                    cavsim.report(params["run_dir"], kind, out)
            except Exception as exc:  # a failed report is counted, not fatal
                failed.append(f"{kind}: {type(exc).__name__}: {exc}")
            calls.append((kind, perf() - t0))
            probes.append(probe())
    digests = {kind: file_digest(os.path.join(params["csv_dir"],
                                              f"{kind}.csv"))
               for kind in REPORT_KINDS}
    return {"calls": calls, "probes": probes, "failed": failed,
            "csv_sha256": digests, "peak_rss_mb": peak_rss_mb()}


def traced(role: str, params: dict, cavsim) -> dict:
    import tracer as tracing
    tracer = tracing.Tracer()
    found = tracing.install(tracer, cavsim)
    if role == "report":
        result = report(params, cavsim)
        load_runs = [s[2] - s[1] for spans in tracer.threads for s in spans
                     if s[0] == "metrics.load_run"]
        result["load_run_s"] = load_runs
        return result
    result = sim(params, cavsim, tracer)
    result["layers"] = tracing.layer_metrics(
        tracer, result["ticks"], found, list(cavsim.sandbox.MODULES))
    result["loop_self_s"] = tracing.loop_self(tracer, *result["tick_bounds"])
    result["spans"] = tracing.write_spans(tracer, params["spans_csv"])
    return result


def main(argv) -> int:
    role, params = argv[1], json.loads(argv[2])
    cavsim = import_cavsim()
    if params.get("traced"):
        result = traced(role, params, cavsim)
    elif role == "sim":
        result = sim(params, cavsim)
    else:
        result = report(params, cavsim)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

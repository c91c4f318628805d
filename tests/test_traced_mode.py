"""The benchmark's traced mode still fits the program.

`perfbench/tracer.py` wraps public names of `cavsim.scenario` (and a few
other layers) in place.  A rename in the program would break `--trace 1`
without failing any other test, and a wrapper must not change the output.
`install` patches modules for the rest of the process, hence the
subprocess.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import hashlib, json, math, os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import cavsim
import tracer as tracing
from cavsim.scenario import ScenarioConfig, run
from cavsim.trace import synth_traffic
from workloads import ALL_TYPES


def digest(name):
    cfg = ScenarioConfig(out_dir=os.path.join(out, name), seed=5,
                         mix=tuple((t, 1.0) for t in ALL_TYPES))
    summary = run(cfg, trace=synth_traffic(5, 80, 6, 400.0))
    with open(summary.metrics_path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


plain = digest("plain")
before = dict(vars(cavsim.scenario))
t = tracing.Tracer()
found = tracing.install(t, cavsim)
wrapped = sorted(n for n, v in vars(cavsim.scenario).items()
                 if before.get(n) is not v)
traced = digest("traced")
metrics = tracing.layer_metrics(t, 6, found, list(cavsim.sandbox.MODULES))
print(json.dumps({"plain": plain, "traced": traced, "wrapped": wrapped,
                  "callable": all(callable(getattr(cavsim.scenario, n))
                                  for n in wrapped),
                  "spans": sorted({s[0] for spans in t.threads
                                   for s in spans}),
                  "metrics": len(metrics), "names": sorted(metrics),
                  "network": {n: metrics[n] for n in (
                      "network.broadcasts_per_tick",
                      "network.deliveries_per_tick",
                      "network.wire_bytes_per_tick")},
                  "not_finite": sorted(
                      n for n, v in metrics.items()
                      if type(v) not in (int, float) or not math.isfinite(v))}))
"""


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """What SCRIPT prints: a plain and a traced run of the same inputs."""
    out = tmp_path_factory.mktemp("traced")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_install_keeps_names_and_output(traced):
    got = traced
    assert got["traced"] == got["plain"]
    assert {"rebuild", "get_nearby_vehicles", "query_radius", "perceive",
            "tick_vehicle", "build_vehicle", "MatchTable",
            "PlateRegistry"} <= set(got["wrapped"])
    assert got["callable"]
    assert {"spatial.rebuild", "perception.perceive", "identity.MatchTable",
            "network.step", "sandbox.tick_vehicle"} <= set(got["spans"])
    assert got["metrics"] > 0


def test_traced_network_counts(traced):
    # the tracer counts deliveries from what `step` returns, so a network
    # that resolved or handed out its inboxes elsewhere would read 0 here
    network = traced["network"]
    assert len(network) == 3
    for name, value in network.items():
        assert value > 0, name


def test_layer_metrics_are_the_declared_ones(traced):
    # the traced result carries what layer_metrics returns; a name that
    # BENCHMARK.json does not declare, a declared module name the run no
    # longer reports, or a value that is not a finite number breaks the
    # benchmark's result line
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    names = set(traced["names"])
    assert names <= declared, sorted(names - declared)
    modules = {n for n in declared if n.startswith("sandbox.module_us.")}
    assert modules and modules <= names, sorted(modules - names)
    assert traced["not_finite"] == []


REPORT_SCRIPT = r"""
import io, json, os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import cavsim
import tracer as tracing
from cavsim.scenario import ScenarioConfig, run
from cavsim.trace import synth_traffic

run(ScenarioConfig(out_dir=out, seed=5), trace=synth_traffic(5, 40, 4, 300.0))
t = tracing.Tracer()
tracing.install(t, cavsim)
csv = {}
for kind in ("bandwidth", "ttv", "cpr"):
    buf = io.StringIO()
    cavsim.report(out, kind, buf)
    csv[kind] = buf.getvalue()
print(json.dumps({"csv": csv,
                  "load_run": [s[2] - s[1] for spans in t.threads
                               for s in spans if s[0] == "metrics.load_run"]}))
"""


def test_traced_reports_record_load_run(tmp_path):
    # perfbench's traced report child takes the median of the
    # `metrics.load_run` spans, so the reports must still call the
    # `load_run` name that the tracer wraps in `cavsim.scenario`.
    proc = subprocess.run([sys.executable, "-c", REPORT_SCRIPT, ROOT,
                           str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["load_run"]
    assert got["csv"]["bandwidth"].startswith("tick,avg_bytes_sent\n0,")
    assert got["csv"]["ttv"].startswith("delay,count\n")
    assert got["csv"]["cpr"].startswith("cell_x,cell_y,ratio\n")

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import hashlib, json, os, sys
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
                  "metrics": len(metrics)}))
"""


def test_tracer_install_keeps_names_and_output(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["traced"] == got["plain"]
    assert {"rebuild", "get_nearby_vehicles", "query_radius", "perceive",
            "tick_vehicle", "build_vehicle", "MatchTable",
            "PlateRegistry"} <= set(got["wrapped"])
    assert got["callable"]
    assert {"spatial.rebuild", "perception.perceive", "identity.MatchTable",
            "network.step", "sandbox.tick_vehicle"} <= set(got["spans"])
    assert got["metrics"] > 0

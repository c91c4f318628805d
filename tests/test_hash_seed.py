"""`error:` output does not depend on the hash seed.

Each malformed input runs through `cavsim run` in child processes under
several PYTHONHASHSEED values; stderr must be byte for byte the same and
the exit code 1.  An error built by iterating a set or a dict of strings
in hash order would name different things under different seeds.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEADER = "tick,id,x,y,heading,length,width\n"
TRACE = HEADER + "0,a,0,0,0,,\n0,b,10,0,0,,\n1,a,1,0,0,,\n"

CASES = {
    "cycle": ("[vehicle_type.Loop]\n"
              "modules = rx, camera, object_store, cpm_tx\n"
              "edges =\n"
              "    camera -> object_store\n"
              "    object_store -> cpm_tx\n"
              "    cpm_tx -> camera, rx\n"
              "entry = rx\n\n[mix]\nLoop = 1\n", TRACE),
    "duplicate_id": ("[scenario]\nseed = 1\n",
                     HEADER + "0,a,0,0,0,,\n0,a,10,0,0,,\n"),
    "bad_edge": ("[vehicle_type.X]\nmodules = camera, rx\n"
                 "edges =\n    camera rx\n\n[mix]\nX = 1\n", TRACE),
    "unknown_module": ("[vehicle_type.X]\nmodules = camera, ghost\n"
                       "edges =\n    camera -> ghost\n\n[mix]\nX = 1\n",
                       TRACE),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_error_output_is_the_same_under_every_hash_seed(tmp_path, case):
    config, trace = CASES[case]
    (tmp_path / "scenario.ini").write_text(config)
    (tmp_path / "trace.csv").write_text(trace)
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "cavsim.cli", "run",
             "--config", str(tmp_path / "scenario.ini"),
             "--trace", str(tmp_path / "trace.csv"),
             "--out", str(tmp_path / "out")],
            capture_output=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(b"error: ")
        outputs.add(proc.stderr)
    assert len(outputs) == 1, outputs
    assert not (tmp_path / "out").exists()

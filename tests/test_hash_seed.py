"""Neither `error:` output nor a run's bytes depend on the hash seed.

Each malformed input runs through `cavsim run` in child processes under
several PYTHONHASHSEED values; stderr must be byte for byte the same and
the exit code 1.  An error built by iterating a set or a dict of strings
in hash order would name different things under different seeds.  Each
benchmark round is a process of its own, so a whole run, too, must write
the same metrics.jsonl and metrics.idx under every hash seed.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")

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


# runs test_golden's mixed_churn fixture, as test_golden_digest does, into
# the directory named by its one argument
GOLDEN_RUN = """
import sys
from cavsim.scenario import ScenarioConfig, run
from test_golden import FIXTURES
make_trace, options = FIXTURES["mixed_churn"]
run(ScenarioConfig(out_dir=sys.argv[1], perception_radius=100.0,
                   comm_range=100.0, **options), trace=make_trace())
"""


def test_run_bytes_are_the_same_under_every_hash_seed(tmp_path):
    digests = set()
    for seed in (0, 1, 2):
        out = tmp_path / str(seed)
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                               TESTS]))
        proc = subprocess.run([sys.executable, "-c", GOLDEN_RUN, str(out)],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("metrics.jsonl", "metrics.idx")))
    assert len(digests) == 1, digests

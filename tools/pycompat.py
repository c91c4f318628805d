"""Check that cavsim gives the same bytes under another Python interpreter,
such as the oldest one pyproject.toml declares.

    python3 tools/pycompat.py --python PATH

Under PATH and under the interpreter that runs this tool, it runs one
small seeded scenario through the `cavsim` command line (all seven
built-in types, a custom type, churn, a CSV trace written by
`synth_traffic` and `write_csv`, a config that sets a key of every kind,
and a --seed flag), then the four reports, and compares:
metrics.jsonl, metrics.idx and the bandwidth, ttv and cpr CSVs byte for
byte, and of the timing CSV, whose values are wall times, the header and
the tick column.  It prints each interpreter's version and one line per
file, and exits 0 when every file is the same, 1 when any differs, 2 when
either side fails.  Standard library only; PATH needs only the standard
library too, not pytest.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# every reader of the config: whole numbers (one written as a float), plain
# numbers, degrees, the tick range, text, the retired cell_size, the [mix]
# weights, booleans and module parameters; CHILD's --seed replaces the seed
CONFIG = """[scenario]
seed = 7
ticks = 1:7
perception_radius = 100
comm_range = 150
workers = 2.0
default_length = 4.5
cell_size = 150

[perception]
fov_half_angle_deg = 50
max_range = 90
max_plate_angle_deg = 55
plate_width = 0.5

[mix]
ConnectedVehicle = 1
PoTVehicle = 1
UnconnectedVehicle = 1
SilenceAttacker = 1
ReplayAttacker = 1
SpamAttacker = 1
DummyVehicle = 1
Gossip = 1

[vehicle_type.Gossip]
connected = true
modules = camera, rx, replay_tx
edges =
    camera -> replay_tx
    rx -> replay_tx
entry = rx
replay_tx.replays = 2
"""

# Run in a fresh interpreter with src/ on its path: argv[1] is the output
# directory.  It must run on every Python that pyproject.toml declares.
CHILD = """
import contextlib, os, sys
from cavsim.cli import main
from cavsim.trace import TraceTick, synth_traffic, write_csv

out = sys.argv[1]
trace = [TraceTick(t.tick, tuple(s for s in t.states
                                 if (t.tick + int(s.id[1:])) % 5 != 4))
         for t in synth_traffic(1, 90, 8, 400.0)]
with open(os.path.join(out, "trace.csv"), "w", encoding="ascii") as f:
    write_csv(trace, f)
run_dir = os.path.join(out, "run")
argv = ["run", "--config", os.path.join(out, "scenario.ini"),
        "--trace", os.path.join(out, "trace.csv"), "--out", run_dir,
        "--seed", "1e0"]
with open(os.path.join(out, "run.out"), "w", encoding="ascii") as f:
    with contextlib.redirect_stdout(f):
        code = main(argv)
for kind in ("bandwidth", "ttv", "cpr", "timing"):
    with open(os.path.join(out, kind + ".csv"), "w", encoding="ascii") as f:
        with contextlib.redirect_stdout(f):
            code = code or main(["report", "--run", run_dir, "--kind", kind])
print(sys.version.split()[0])
sys.exit(code)
"""

SAME_BYTES = ("run/metrics.jsonl", "run/metrics.idx", "bandwidth.csv",
              "ttv.csv", "cpr.csv")


def run_side(python: str, out: str) -> str:
    """Run the scenario and reports under `python` into `out`; its
    version."""
    os.makedirs(out)
    with open(os.path.join(out, "scenario.ini"), "w", encoding="ascii") as f:
        f.write(CONFIG)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([python, "-c", CHILD, out], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{python} failed (exit {proc.returncode}):\n"
                           f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def read(side: str, name: str) -> bytes:
    with open(os.path.join(side, name), "rb") as f:
        return f.read()


def timing_shape(data: bytes) -> list[bytes]:
    """The header and tick column of a timing CSV."""
    lines = data.splitlines()
    return lines[:1] + [line.split(b",")[0] for line in lines[1:]]


def compare(this: str, other: str) -> dict[str, bool]:
    """Per compared file, whether the two sides agree."""
    same = {name: read(this, name) == read(other, name)
            for name in SAME_BYTES}
    same["timing.csv (header, ticks)"] = (
        timing_shape(read(this, "timing.csv"))
        == timing_shape(read(other, "timing.csv")))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--python", required=True,
                        help="the interpreter to compare with this one")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pycompat-") as work:
        sides = {"this": sys.executable, "other": args.python}
        try:
            versions = {side: run_side(python, os.path.join(work, side))
                        for side, python in sides.items()}
        except (OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for side, python in sides.items():
            print(f"{side}: Python {versions[side]} ({python})")
        same = compare(os.path.join(work, "this"),
                       os.path.join(work, "other"))
    for name, ok in same.items():
        print(f"{'same' if ok else 'DIFFERS'}  {name}")
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""A corrupt run directory ends every report in exit 0 or 1.

Each case corrupts one file of a small finished run: a byte flipped,
bytes deleted or inserted, the file truncated or removed, or one number of
every metrics.idx entry swapped for one far outside the file.  Every
report form then runs through the CLI, with and without --tick and --cell
where the kind takes them.  A report either succeeds or fails with exactly one `error: `
line on stderr; no exception escapes `main`.  The cases come from a
seeded `random.Random`, so every run tries the same ones.
"""

import os
import random

import pytest

from cavsim.cli import main
from cavsim.scenario import ScenarioConfig, run
from cavsim.trace import synth_traffic
from test_golden import ALL_TYPES

FILES = ("metrics.jsonl", "metrics.idx", "timings.csv")
BYTE_CASES = 40  # per file and kind of corruption
# numbers that no entry of a small run's metrics.idx can hold
FAR_NUMBERS = (-1, 0, 2 ** 40, 2 ** 70, 10 ** 399)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The bytes of a small run's three files, and its ticks: all seven
    vehicle types, so some records hold TTV events."""
    out = str(tmp_path_factory.mktemp("robust") / "out")
    run(ScenarioConfig(out_dir=out, seed=5, mix=ALL_TYPES),
        trace=synth_traffic(5, 12, 5, 200.0))
    files = {}
    for name in FILES:
        with open(os.path.join(out, name), "rb") as f:
            files[name] = f.read()
    return files, list(range(5))


def flip(rng, data):
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]


def delete(rng, data):
    i = rng.randrange(len(data))
    return data[:i] + data[i + rng.randint(1, 8):]


def insert(rng, data):
    i = rng.randrange(len(data) + 1)
    return data[:i] + rng.randbytes(rng.randint(1, 8)) + data[i:]


def truncate(rng, data):
    return data[:rng.randrange(len(data))]


def swap_index_number(value, field):
    """A corruption that puts value in place of field `field` (0 tick,
    1 offset, 2 length) of every metrics.idx entry, so that every one-tick
    report reads it."""
    def corrupt(rng, data):
        out = []
        for line in data.decode("ascii").splitlines():
            entry = line.split()
            entry[field] = str(value)
            out.append(" ".join(entry) + "\n")
        return "".join(out).encode("ascii")
    return corrupt


def cases():
    """(case id, file name, corruption or None to remove the file)."""
    out = []
    for name in FILES:
        out.append((f"{name}-removed", name, None))
        for corrupt in (flip, delete, insert, truncate):
            for k in range(BYTE_CASES):
                out.append((f"{name}-{corrupt.__name__}-{k}", name, corrupt))
    for value in FAR_NUMBERS:
        for field in (0, 1, 2):
            out.append((f"metrics.idx-field{field}-{str(value)[:12]}",
                        "metrics.idx", swap_index_number(value, field)))
    return out


def report_forms(rng, ticks):
    """Every report kind, with and without the options it takes."""
    tick = str(rng.choice(ticks + [max(ticks) + 1]))
    cell = rng.choice(["25", "100", "400"])
    return [["bandwidth"], ["timing"], ["ttv"], ["ttv", "--tick", tick],
            ["cpr"], ["cpr", "--tick", tick], ["cpr", "--cell", cell],
            ["cpr", "--tick", tick, "--cell", cell]]


def test_corrupt_run_directory_reports_exit_cleanly(finished_run, tmp_path,
                                                    capsys):
    files, ticks = finished_run
    rng = random.Random(20240028)
    failures = 0
    for n, (case, name, corrupt) in enumerate(cases()):
        run_dir = tmp_path / str(n)
        run_dir.mkdir()
        for other, data in files.items():
            if other == name:
                if corrupt is None:
                    continue
                data = corrupt(rng, data)
            (run_dir / other).write_bytes(data)
        for form in report_forms(rng, ticks):
            rc = main(["report", "--run", str(run_dir), "--kind", *form])
            err = capsys.readouterr().err
            assert rc in (0, 1), (case, form, rc)
            if rc == 1:
                failures += 1
                assert err.startswith("error: ") and err.count("\n") == 1, \
                    (case, form, err)
            else:
                assert err == "", (case, form, err)
    assert failures  # the corruptions were seen

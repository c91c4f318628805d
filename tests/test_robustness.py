"""Malformed input ends `cavsim run` and `cavsim report` in exit 0 or 1.

Reports: each case corrupts one file of a small finished run: a byte
flipped, bytes deleted or inserted, the file truncated or removed, or one
number of every metrics.idx entry swapped for one far outside the file.
Every report form then runs through the CLI, with and without --tick and
--cell where the kind takes them.

Runs: each case mutates one input of a small run, its CSV trace, its FCD
trace or its config, line by line (a line deleted, repeated, swapped or
replaced) or byte by byte, or sets a module count to a number of 2**63
or more.  The run goes through the CLI; when it succeeds, so must every
report kind on its output.

Either way a command succeeds or fails with exactly one `error: ` line on
stderr, and no exception escapes `main`; a failed run leaves no output or
staging directory behind.  The cases come from seeded `random.Random`s,
so every run tries the same ones.
"""

import io
import os
import random
import re

import pytest

from cavsim.cli import main
from cavsim.scenario import REPORT_KINDS, ScenarioConfig, run
from cavsim.trace import synth_traffic, write_csv
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


# --- runs of malformed traces and configs -----------------------------------

# counts of 2**63 and more, past sys.maxsize and any C size
HUGE_COUNTS = ("9223372036854775807", "9223372036854775808",
               "18446744073709551616", "1" + "0" * 30, "-9223372036854775809",
               "9.3e18", "1e400")
COUNT_KEYS = ("spam_tx.k", "replay_tx.history", "replay_tx.replays",
              "proof_verify.provers_required")
LINE_CASES = 30  # per input and kind of line mutation
BYTE_RUN_CASES = 15  # per input and kind of byte corruption


def run_inputs():
    """The config, CSV trace and FCD trace, as bytes, of a small run in
    which every vehicle type and module has work to do."""
    ticks = synth_traffic(3, 8, 4, 80.0)
    csv = io.StringIO()
    write_csv(ticks, csv)
    fcd = ["<fcd-export>"]
    for tt in ticks:
        fcd.append(f'<timestep time="{tt.tick}.00">')
        fcd += [f'<vehicle id="{s.id}" x="{s.x:.2f}" y="{s.y:.2f}" '
                f'angle="{s.heading * 57.3 % 360:.1f}" length="4.5" '
                f'width="1.8"/>' for s in tt.states]
        fcd.append("</timestep>")
    fcd.append("</fcd-export>\n")
    config = (
        "[scenario]\nseed = 4\nticks = 0:4\nperception_radius = 100\n"
        "comm_range = 300\nworkers = 1\ndefault_length = 4.5\n\n"
        "[perception]\nfov_half_angle_deg = 60\nmax_range = 90\n\n"
        "[mix]\n" + "".join(f"{name} = {weight}\n"
                             for name, weight in ALL_TYPES + (("Lurker", 1),))
        + "\n[vehicle_type.SpamAttacker]\nspam_tx.k = 3\n\n"
        "[vehicle_type.ReplayAttacker]\nreplay_tx.history = 4\n"
        "replay_tx.replays = 2\n\n"
        "[vehicle_type.PoTVehicle]\nproof_verify.provers_required = 2\n\n"
        "[vehicle_type.Lurker]\nmodules = camera, rx, object_store\n"
        "edges =\n  camera -> object_store\n  rx -> object_store\n"
        "entry = rx\nconnected = yes\n")
    return {"c.ini": config.encode("ascii"),
            "t.csv": csv.getvalue().encode("ascii"),
            "t.xml": "\n".join(fcd).encode("ascii")}


def line_mutations(rng, lines, pool):
    """One line of `lines` deleted, repeated, swapped with another or
    replaced by a line of `pool`."""
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.randrange(4)
    out = list(lines)
    if kind == 0:
        del out[i]
    elif kind == 1:
        out.insert(j, out[i])
    elif kind == 2:
        out[i], out[j] = out[j], out[i]
    else:
        out[i] = rng.choice(pool)
    return out


# lines that replace a config or trace line: other sections, keys, values
# and rows, some of them malformed
LINE_POOL = (
    "garbage", "[scenario]", "[mix]", "[DEFAULT]", "[vehicle_type.Z]",
    "modules = ghost", "edges = object_store -> camera", "entry = nope",
    "seed = -1", "seed = 1e999", "ticks = 3:1", "ticks = a:b",
    "workers = 0", "comm_range = nan", "perception_radius = -5",
    "max_range = 1000", "ConnectedVehicle = 0", "PoTVehicle = inf",
    "spam_tx.k = 65", "replay_tx.history = 0", "connected = maybe",
    "  continued value", "= 3", "key", "trace = /no/such/trace.csv",
    "0,v9,1.0,2.0,0.0,5.0,1.8", "0,v00001,1.0,2.0,0.0,5.0,1.8",
    "9,v0,nan,2.0,0.0,5.0,1.8", "2,v0,1e400,0,0,5,1.8", "1,v0,1,2,3",
    "4294967296,v0,1,2,0,5,1.8", "-1,v0,1,2,0,5,1.8", "tick,id,x,y",
    '<vehicle id="v9" x="1" y="2" angle="0"/>', '<timestep time="x">',
    '<vehicle id="v9" x="inf" y="2" angle="0" length="-1"/>',
    "</timestep>", "<fcd-export>", "</fcd-export>", "&bogus;")


def run_cases(inputs):
    """(case id, input name, mutation of its bytes)."""
    out = []
    for name in inputs:
        def lines(rng, data):
            text = data.decode("ascii").splitlines()
            return ("\n".join(line_mutations(rng, text, LINE_POOL))
                    + "\n").encode("ascii")
        out += [(f"{name}-lines-{k}", name, lines) for k in range(LINE_CASES)]
        for corrupt in (flip, delete, insert, truncate):
            out += [(f"{name}-{corrupt.__name__}-{k}", name, corrupt)
                    for k in range(BYTE_RUN_CASES)]
    for key in COUNT_KEYS:
        for value in HUGE_COUNTS:
            def big(rng, data, key=key, value=value):
                return re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}",
                              data.decode("ascii"), flags=re.M
                              ).encode("ascii")
            out.append((f"{key}-{value[:12]}", "c.ini", big))
    return out


def test_malformed_run_inputs_exit_cleanly(tmp_path, capsys):
    inputs = run_inputs()
    rng = random.Random(20240030)
    outcomes = {0: 0, 1: 0}
    for n, (case, name, mutate) in enumerate(run_cases(inputs)):
        case_dir = tmp_path / str(n)
        case_dir.mkdir()
        data = dict(inputs, **{name: mutate(rng, inputs[name])})
        trace = name if name != "c.ini" else rng.choice(("t.csv", "t.xml"))
        config = data["c.ini"].replace(
            b"[scenario]\n",
            f"[scenario]\ntrace = {case_dir / trace}\n".encode(), 1)
        for other in ("t.csv", "t.xml"):
            (case_dir / other).write_bytes(data[other])
        (case_dir / "c.ini").write_bytes(config)
        out = case_dir / "out"
        rc = main(["run", "--config", str(case_dir / "c.ini"),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 1), (case, rc)
        outcomes[rc] += 1
        if rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, \
                (case, err)
            assert sorted(os.listdir(case_dir)) == ["c.ini", "t.csv",
                                                   "t.xml"], case
            continue
        assert err == "", (case, err)
        for kind in REPORT_KINDS:
            assert main(["report", "--run", str(out), "--kind", kind]) == 0
            assert capsys.readouterr().err == "", (case, kind)
    assert outcomes[0] and outcomes[1], outcomes  # both outcomes were seen


@pytest.mark.parametrize("radius, x", [("1e-320", 1.0), ("1e-300", 1e10)],
                         ids=["no-finite-reciprocal", "cell-index-overflows"])
def test_tiny_radius_exits_cleanly(tmp_path, capsys, radius, x):
    """A radius whose reciprocal is infinite fails validation; one whose
    cell index overflows for a vehicle's position fails at the grid
    rebuild.  Either way: one `error: ` line, and no output or staging
    directory."""
    (tmp_path / "t.csv").write_text(
        "tick,id,x,y,heading,length,width\n"
        f"0,a,{x!r},0.0,0.0,4.5,1.8\n0,b,{x + 1.0!r},0.0,0.0,4.5,1.8\n",
        encoding="ascii")
    (tmp_path / "c.ini").write_text(
        f"[scenario]\ntrace = {tmp_path / 't.csv'}\n"
        f"perception_radius = {radius}\ncomm_range = {radius}\n\n"
        f"[perception]\nmax_range = {radius}\n", encoding="ascii")
    rc = main(["run", "--config", str(tmp_path / "c.ini"),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(os.listdir(tmp_path)) == ["c.ini", "t.csv"]

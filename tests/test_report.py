"""Reports: CSVs against in-memory aggregations, bounded memory, and the
errors of the read path.

Whole-run reports stream metrics.jsonl; `ttv --tick` and `cpr` read one
line through metrics.idx.  The oracle is the aggregation functions applied
to each line of metrics.jsonl read by a plain json.loads (`read_run`), with
the whole-run TTV sum from `oracles.ttv_distribution_total`.
"""

import io
import json
import math
import os
import tempfile
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cavsim import metrics
from cavsim.cli import main
from cavsim.errors import (ConfigError, NotFoundError, SimError,
                           ValidationError)
from cavsim.metrics import (MetricsWriter, avg_bandwidth, cpr, load_run,
                            record_at, record_counters, scan_line,
                            ttv_distribution)
from cavsim.scenario import ScenarioConfig, report, run
from cavsim.trace import synth_traffic, write_csv
from conftest import read_run
from oracles import ttv_distribution_total
from test_golden import ALL_TYPES, churned


def report_text(run_dir, kind, **kw):
    buf = io.StringIO()
    report(run_dir, kind, buf, **kw)
    return buf.getvalue()


@pytest.fixture(scope="module")
def mixed_run(tmp_path_factory):
    """The inputs of the `mixed_churn` golden fixture: all seven types,
    churn, and TTV events."""
    out = str(tmp_path_factory.mktemp("mixed") / "out")
    run(ScenarioConfig(out_dir=out, seed=13, mix=ALL_TYPES),
        trace=churned(synth_traffic(13, 140, 10, 500.0)))
    return out


def test_reports_equal_in_memory_aggregations(mixed_run):
    data = read_run(mixed_run)
    assert [line["tick"] for line in data] == list(range(10))

    want = "tick,avg_bytes_sent\n" + "".join(
        f"{t},{mean!r}\n" for t, mean in avg_bandwidth(data))
    assert report_text(mixed_run, "bandwidth") == want

    def ttv_csv(hist):
        return "delay,count\n" + "".join(f"{d},{hist[d]}\n"
                                         for d in sorted(hist))

    total = ttv_distribution_total(data)
    assert total, "the fixture must have TTV events"
    assert report_text(mixed_run, "ttv") == ttv_csv(total)
    ticks_with_ttv = [line["tick"] for line in data
                      if ttv_distribution(line)]
    assert ticks_with_ttv
    for t in (ticks_with_ttv[0], 0, 9):
        assert (report_text(mixed_run, "ttv", tick=t)
                == ttv_csv(ttv_distribution(data[t])))

    def cpr_csv(heat):
        return "cell_x,cell_y,ratio\n" + "".join(
            f"{k[0]},{k[1]},{heat[k]!r}\n" for k in sorted(heat))

    last = cpr(data[9], 100.0)
    assert last
    assert report_text(mixed_run, "cpr") == cpr_csv(last)
    at_4 = cpr(data[4], 50.0)
    assert at_4 and at_4 != cpr(data[4], 100.0)
    assert report_text(mixed_run, "cpr", tick=4, cell_size=50.0) \
        == cpr_csv(at_4)


def test_load_run_one_tick_equals_whole_run_line(mixed_run):
    for line in read_run(mixed_run):
        assert load_run(mixed_run, line["tick"]) == line
    with pytest.raises(NotFoundError, match="tick 10 "):
        load_run(mixed_run, 10)
    assert load_run(mixed_run, None) == read_run(mixed_run)[-1]


def test_default_cpr_parses_the_index_once(mixed_run, monkeypatch):
    calls = []
    read_index = metrics.read_index

    def counted(stream):
        calls.append(stream)
        return read_index(stream)

    monkeypatch.setattr(metrics, "read_index", counted)
    assert report_text(mixed_run, "cpr").startswith("cell_x,cell_y,ratio\n")
    assert len(calls) == 1


def report_peak(run_dir, kind):
    """tracemalloc allocation peak of one report written to a file."""
    with open(os.devnull, "w", encoding="ascii") as sink:
        tracemalloc.start()
        try:
            report(run_dir, kind, sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_whole_run_report_memory_is_flat(tmp_path):
    n = 6
    dirs = {}
    for ticks in (n, 4 * n):
        dirs[ticks] = str(tmp_path / f"t{ticks}")
        run(ScenarioConfig(out_dir=dirs[ticks], seed=3),
            trace=synth_traffic(3, 60, ticks, 600.0))
    for kind in ("bandwidth", "ttv", "timing"):
        report_peak(dirs[n], kind)  # warm up lazy imports and caches
        short, long = report_peak(dirs[n], kind), report_peak(dirs[4 * n], kind)
        assert long <= 1.25 * short, (kind, short, long)


# --- errors on the read path, through the CLI --------------------------------

def cli_error(capsys, *argv):
    """Run `cavsim report` and return stderr; it must fail cleanly."""
    rc = main(["report", *argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return captured.err


@pytest.fixture
def small_run(tmp_path):
    out = str(tmp_path / "out")
    run(ScenarioConfig(out_dir=out, seed=3), trace=synth_traffic(3, 8, 4, 300.0))
    return out


@pytest.mark.parametrize("cell", ["nan", "inf", "0", "-5", "x"])
def test_cli_cpr_bad_cell_size(tmp_path, capsys, cell):
    # The run directory does not exist: the cell size is checked first.
    err = cli_error(capsys, "--run", str(tmp_path / "nowhere"),
                    "--kind", "cpr", "--cell", cell)
    assert "cell size" in err


@pytest.mark.parametrize("cell", [float("nan"), float("inf"), 0.0])
def test_cpr_bad_cell_size(small_run, cell):
    with pytest.raises(ConfigError):
        report(small_run, "cpr", io.StringIO(), cell_size=cell)
    with pytest.raises(ConfigError):
        cpr(load_run(small_run, 0), cell)


def test_cell_size_that_is_not_a_number_is_not_blamed_on_the_run(small_run):
    # report() checks its cell size before it reads metrics.jsonl, so a
    # cell size of the wrong type is the caller's error, not the run's
    with pytest.raises(TypeError) as exc:
        report(small_run, "cpr", io.StringIO(), cell_size="50")
    assert "metrics.jsonl" not in str(exc.value)


@pytest.mark.parametrize("kind", ["ttv", "cpr"])
def test_cli_tick_and_cell_read_like_the_run_flags(mixed_run, capsys, kind):
    # --tick takes a whole number written as a float, as --seed does, and
    # --cell a number with an exponent, as comm_range does
    outs = []
    for tick, size in (("4", "50"), ("4e0", "5e1"), ("4.0", "50.0")):
        cell = ["--cell", size] if kind == "cpr" else []
        assert main(["report", "--run", mixed_run, "--kind", kind,
                     "--tick", tick, *cell]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].count("\n") > 1
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("argv, message", [
    (["--kind", "ttv", "--tick", "x"], "--tick = 'x' is not a finite number"),
    (["--kind", "cpr", "--tick", "1.5"],
     "--tick = '1.5' is not a whole number"),
    (["--kind", "cpr", "--tick", "inf"], "--tick = 'inf' is not a finite"),
], ids=["tick-text", "tick-fraction", "tick-inf"])
def test_cli_bad_tick_is_one_error_line(tmp_path, capsys, argv, message):
    # The run directory does not exist: the tick is read first.
    err = cli_error(capsys, "--run", str(tmp_path / "nowhere"), *argv)
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


def test_cli_cpr_cell_size_with_infinite_reciprocal(small_run, capsys):
    # 1.0 / 1e-320 is inf: the cell size is refused, not the run
    err = cli_error(capsys, "--run", small_run, "--kind", "cpr",
                    "--cell", "1e-320")
    assert err.count("\n") == 1 and "cell size" in err
    assert "metrics.jsonl" not in err


def test_cli_cpr_position_without_a_cell(tmp_path, capsys):
    # 1e300 * (1.0 / 1e-10) overflows: the cell size is too small for the
    # run, whose metrics are sound
    trace_path = tmp_path / "t.csv"
    trace_path.write_text("tick,id,x,y,heading,length,width\n"
                          "0,a,0.0,0.0,0,4,1.8\n0,b,1e300,0.0,0,4,1.8\n")
    config_path = tmp_path / "c.ini"
    config_path.write_text("[scenario]\nseed = 1\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(config_path), "--trace",
                 str(trace_path), "--out", out]) == 0
    capsys.readouterr()
    err = cli_error(capsys, "--run", out, "--kind", "cpr", "--cell", "1e-10")
    assert err.count("\n") == 1 and "cell size 1e-10" in err
    assert "metrics.jsonl" not in err
    assert report_text(out, "cpr", cell_size=1e10)  # the same run reads


@pytest.mark.parametrize("kind", [["bandwidth"], ["ttv"], ["ttv", "2"],
                                  ["cpr"], ["cpr", "2"]])
def test_cli_missing_metrics_file(small_run, capsys, kind):
    os.remove(os.path.join(small_run, "metrics.jsonl"))
    argv = ["--run", small_run, "--kind", kind[0]]
    if len(kind) > 1:
        argv += ["--tick", kind[1]]
    assert "metrics.jsonl" in cli_error(capsys, *argv)


@pytest.mark.parametrize("kind", [["ttv", "2"], ["cpr"], ["cpr", "2"]])
def test_cli_missing_index_file(small_run, capsys, kind):
    os.remove(os.path.join(small_run, "metrics.idx"))
    argv = ["--run", small_run, "--kind", kind[0]]
    if len(kind) > 1:
        argv += ["--tick", kind[1]]
    assert "metrics.idx" in cli_error(capsys, *argv)


def test_whole_run_reports_need_no_index(small_run, capsys):
    want = {kind: report_text(small_run, kind) for kind in ("bandwidth", "ttv")}
    os.remove(os.path.join(small_run, "metrics.idx"))
    for kind in ("bandwidth", "ttv"):
        assert main(["report", "--run", small_run, "--kind", kind]) == 0
        assert capsys.readouterr().out == want[kind]


def test_cli_missing_timings_file(small_run, capsys):
    os.remove(os.path.join(small_run, "timings.csv"))
    assert "timings.csv" in cli_error(capsys, "--run", small_run,
                                      "--kind", "timing")


def test_cli_timings_not_ascii(small_run, capsys):
    path = os.path.join(small_run, "timings.csv")
    with open(path, "ab") as f:
        f.write(b"9,0.1\xe9,0,0,0,0\n")
    err = cli_error(capsys, "--run", small_run, "--kind", "timing")
    assert err.startswith("error: timings.csv ")
    assert len(err.splitlines()) == 1


def put_non_ascii_in_line_2(run_dir):
    path = os.path.join(run_dir, "metrics.jsonl")
    with open(path, "rb") as f:
        lines = f.readlines()
    lines[1] = lines[1].replace(b'"id":"', b'"id":"\xe9', 1)
    with open(path, "wb") as f:
        f.writelines(lines)


@pytest.mark.parametrize("kind", ["bandwidth", "ttv"])
def test_cli_metrics_not_ascii_names_the_line(small_run, capsys, kind):
    put_non_ascii_in_line_2(small_run)
    err = cli_error(capsys, "--run", small_run, "--kind", kind)
    assert err == "error: metrics.jsonl: line 2 is not ASCII text\n"


@pytest.mark.parametrize("kind", [["ttv", "1"], ["cpr"]],
                         ids=["ttv-tick", "cpr"])
def test_cli_index_not_ascii_names_the_line(small_run, capsys, kind):
    path = os.path.join(small_run, "metrics.idx")
    with open(path, "rb") as f:
        lines = f.readlines()
    lines[1] = lines[1].replace(b" ", b"\xe9", 1)
    with open(path, "wb") as f:
        f.writelines(lines)
    argv = ["--run", small_run, "--kind", kind[0]]
    if len(kind) > 1:
        argv += ["--tick", kind[1]]
    err = cli_error(capsys, *argv)
    assert err.startswith("error: metrics.idx line 2: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["ttv", "cpr"])
def test_cli_one_tick_not_ascii_names_the_tick(small_run, capsys, kind):
    # Valid UTF-8 of the same length, so the index still frames the line
    # and JSON would decode it.
    path = os.path.join(small_run, "metrics.jsonl")
    with open(path, "rb") as f:
        lines = f.readlines()
    line = lines[1]
    lines[1] = line.replace(b'"id":"v0', '"id":"\u00e9'.encode(), 1)
    assert lines[1] != line and len(lines[1]) == len(line)
    with open(path, "wb") as f:
        f.writelines(lines)
    err = cli_error(capsys, "--run", small_run, "--kind", kind, "--tick", "1")
    assert err == ("error: metrics.jsonl: the line of tick 1 is not ASCII "
                   "text\n")


def test_load_run_not_ascii_names_the_line(small_run):
    put_non_ascii_in_line_2(small_run)
    assert load_run(small_run, 0)["tick"] == 0
    with pytest.raises(ValidationError, match="^metrics.jsonl: the line of "
                       "tick 1 is not ASCII text$"):
        load_run(small_run, 1)


@pytest.mark.parametrize("argv,message", [
    (["--kind", "bandwidth", "--tick", "1"], "takes no tick"),
    (["--kind", "timing", "--tick", "1"], "takes no tick"),
    (["--kind", "bandwidth", "--cell", "50"], "takes no cell size"),
    (["--kind", "ttv", "--cell", "50"], "takes no cell size"),
    (["--kind", "ttv", "--tick", "1", "--cell", "50"], "takes no cell size"),
    (["--kind", "timing", "--cell", "100"], "takes no cell size"),
], ids=["bandwidth-tick", "timing-tick", "bandwidth-cell", "ttv-cell",
        "ttv-tick-cell", "timing-cell"])
def test_cli_option_the_kind_does_not_read(tmp_path, capsys, argv, message):
    # The run directory does not exist: the options are checked first.
    err = cli_error(capsys, "--run", str(tmp_path / "nowhere"), *argv)
    assert message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["bandwidth", "timing"])
def test_whole_run_kind_takes_no_tick(small_run, kind):
    with pytest.raises(ConfigError, match="takes no tick"):
        report(small_run, kind, io.StringIO(), tick=0)


@pytest.mark.parametrize("kind", ["bandwidth", "ttv", "timing"])
def test_only_cpr_takes_a_cell_size(small_run, kind):
    with pytest.raises(ConfigError, match="takes no cell size"):
        report(small_run, kind, io.StringIO(), cell_size=100.0)


@pytest.mark.parametrize("kind", ["ttv", "cpr"])
def test_cli_tick_not_in_run(small_run, capsys, kind):
    err = cli_error(capsys, "--run", small_run, "--kind", kind,
                    "--tick", "17")
    assert "tick 17" in err


def test_cli_zero_tick_run(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    with open(trace_path, "w") as f:
        write_csv(synth_traffic(3, 8, 4, 300.0), f)
    config_path = tmp_path / "scenario.ini"
    config_path.write_text("[scenario]\nseed = 3\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(config_path), "--trace",
                 str(trace_path), "--out", out, "--ticks", "50:60"]) == 0
    assert "ticks executed: 0" in capsys.readouterr().out

    for kind, header in (("bandwidth", "tick,avg_bytes_sent\n"),
                         ("ttv", "delay,count\n")):
        assert main(["report", "--run", out, "--kind", kind]) == 0
        assert capsys.readouterr().out == header
    assert "run has no ticks" in cli_error(capsys, "--run", out,
                                           "--kind", "cpr")
    assert "tick 50" in cli_error(capsys, "--run", out, "--kind", "ttv",
                                  "--tick", "50")


@pytest.mark.parametrize("entry", ["3 abc", "3 0", "x 0 10"])
def test_cli_malformed_index(small_run, capsys, entry):
    with open(os.path.join(small_run, "metrics.idx"), "a") as f:
        f.write(entry + "\n")
    for argv in (["--kind", "cpr"], ["--kind", "ttv", "--tick", "1"]):
        err = cli_error(capsys, "--run", small_run, *argv)
        assert "metrics.idx line 5" in err


@pytest.mark.parametrize("field,value", [
    (2, 2 ** 40), (2, 2 ** 70), (2, 0), (2, -1), (1, -5), (1, 2 ** 70),
    (1, 10 ** 399), (2, 10 ** 399)],
    ids=["length-2**40", "length-2**70", "length-0", "length-negative",
         "offset-negative", "offset-2**70", "offset-400-digits",
         "length-400-digits"])
def test_cli_index_entry_outside_the_metrics_file(small_run, capsys, field,
                                                  value):
    # every entry gets the value; the reads it asks for are never made
    path = os.path.join(small_run, "metrics.idx")
    with open(path) as f:
        entries = [line.split() for line in f]
    with open(path, "w") as f:
        for entry in entries:
            entry[field] = str(value)
            f.write(" ".join(entry) + "\n")
    for argv, tick in ((["--kind", "ttv", "--tick", "1"], 1),
                       (["--kind", "cpr", "--tick", "1"], 1),
                       (["--kind", "cpr"], 3)):
        err = cli_error(capsys, "--run", small_run, *argv)
        assert err == (f"error: metrics.idx: the entry of tick {tick} frames "
                       f"no line of metrics.jsonl\n")


def test_cli_truncated_metrics(small_run, capsys):
    path = os.path.join(small_run, "metrics.jsonl")
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:len(data) - 100])
    for kind in ("bandwidth", "ttv"):
        assert "metrics.jsonl: line 4 " in cli_error(capsys, "--run", small_run,
                                                      "--kind", kind)
    assert "metrics.jsonl: the line of tick 3 " in cli_error(
        capsys, "--run", small_run, "--kind", "cpr")


def record_line(x="0.0", ttv='{"z":1}'):
    return ('{"tick":0,"vehicles":[{"id":"v","x":%s,"y":0.0,"bytes_sent":0,'
            '"local_objects":1,"all_objects":1,"ttv":%s}]}' % (x, ttv))


@pytest.mark.parametrize("line,kinds", [
    ('{"tick":0}', [["bandwidth"], ["ttv"], ["ttv", "0"], ["cpr"]]),
    ("[1,2]", [["bandwidth"], ["ttv"], ["ttv", "0"], ["cpr", "0"]]),
    (record_line(), [["ttv"], ["ttv", "0"]]),
    (record_line(ttv="[1]"), [["ttv"], ["ttv", "0"]]),
    (record_line(x="Infinity", ttv="{}"), [["cpr"], ["cpr", "0"]]),
], ids=["no_vehicles", "not_an_object", "ttv_delay_not_a_number",
        "ttv_not_an_object", "position_not_finite"])
def test_cli_metrics_line_of_the_wrong_shape(small_run, capsys, line, kinds):
    # a line that json.loads reads, indexed as tick 0, that is not a
    # metrics record
    with open(os.path.join(small_run, "metrics.jsonl"), "w") as f:
        f.write(line + "\n")
    with open(os.path.join(small_run, "metrics.idx"), "w") as f:
        f.write(f"0 0 {len(line) + 1}\n")
    for kind in kinds:
        argv = ["--run", small_run, "--kind", kind[0]]
        if len(kind) > 1:
            argv += ["--tick", kind[1]]
        err = cli_error(capsys, *argv)
        assert err.startswith("error: metrics.jsonl: ")
        assert len(err.splitlines()) == 1


# --- whole-run reports: the scan of the writer's own line form ---------------
#
# The oracle is avg_bandwidth and oracles.ttv_distribution_total over
# json.loads of every non-blank line, or the error the JSON path gives at
# the first line json.loads cannot read.

def json_reports(text):
    """The bandwidth and ttv CSVs (or error lines) of a metrics.jsonl
    holding `text`, through json.loads of each line."""
    data = []
    for n, line in enumerate(io.StringIO(text), 1):
        if line.strip():
            try:
                data.append(json.loads(line))
            except ValueError:
                error = f"error: metrics.jsonl: line {n} is not valid JSON"
                return {"bandwidth": error, "ttv": error}
    hist = ttv_distribution_total(data)
    return {"bandwidth": "tick,avg_bytes_sent\n" + "".join(
                f"{t},{mean}\n" for t, mean in avg_bandwidth(data)),
            "ttv": "delay,count\n" + "".join(
                f"{d},{hist[d]}\n" for d in sorted(hist))}


def whole_run_reports(text):
    """The bandwidth and ttv CSVs (or error lines) that report() writes
    for a metrics.jsonl holding `text`."""
    got = {}
    with tempfile.TemporaryDirectory() as run_dir:
        with open(os.path.join(run_dir, "metrics.jsonl"), "w",
                  encoding="ascii", newline="") as f:
            f.write(text)
        for kind in ("bandwidth", "ttv"):
            try:
                got[kind] = report_text(run_dir, kind)
            except SimError as exc:
                got[kind] = f"error: {exc}"
    return got


# ids from all of text, with the writer's own separators mixed in
ID_PARTS = ['"bytes_sent":7', '},{"id":', "]}", '"ttv":{"1":2}', "\\", '"',
            "\n", "\x00", "\x7f", "é", "\ud800", "\U0001f697"]
ids = st.lists(st.one_of(st.text(st.characters(exclude_categories=()),
                                 max_size=4),
                         st.sampled_from(ID_PARTS)), max_size=4).map("".join)
counts = st.integers(0, 2 ** 70)
records = st.builds(
    lambda plate, sent, local, received, everyone, ttv, errors, x, y:
        record_at(plate, record_counters(SimpleNamespace(
            bytes_sent=sent, local_objects=local, received_objects=received,
            all_objects=everyone, ttv_events=ttv, errors=errors)),
            SimpleNamespace(x=x, y=y)),
    ids, counts, counts, counts, counts,
    st.dictionaries(st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)),
                    st.integers(0, 10 ** 6), max_size=3),
    st.integers(0, 3), st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False))
runs = st.lists(st.lists(records, max_size=4), max_size=4)


def writer_text(ticks):
    """metrics.jsonl as MetricsWriter writes `ticks` (lists of records) as
    ticks 0, 1, ..."""
    with tempfile.TemporaryDirectory() as run_dir:
        with MetricsWriter(run_dir) as w:
            for tick, recs in enumerate(ticks):
                w.record_tick(tick, recs)
        with open(os.path.join(run_dir, "metrics.jsonl"), "rb") as f:
            return f.read().decode("ascii")


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def some_record(obj):
    """obj's first record, one added if it has none."""
    if not obj["vehicles"]:
        obj["vehicles"].append(json.loads(record_at(
            "v", record_counters(SimpleNamespace(
                bytes_sent=1, local_objects=0, received_objects=0,
                all_objects=0, ttv_events={}, errors=0)),
            SimpleNamespace(x=0.0, y=0.0))))
    return obj["vehicles"][0]


def repeated_ttv_key(obj):
    ttv = some_record(obj)["ttv"]
    return compact(obj).replace('"ttv":{', '"ttv":{"7":1,"7":2'
                                + ("," if ttv else ""), 1)


def reordered(obj):
    return compact({"vehicles": [dict(reversed(v.items()))
                                 for v in obj["vehicles"]],
                    "tick": obj["tick"]})


def with_value(key, value):
    def mutate(obj):
        some_record(obj)[key] = value
        return compact(obj)
    return mutate


# each turns a writer line, decoded, into a line of another form
OTHER_FORMS = {
    "default_separators": json.dumps,
    "reordered_keys": reordered,
    "infinite_x": with_value("x", math.inf),
    "repeated_ttv_key": repeated_ttv_key,
    "float_counter": with_value("bytes_sent", 2.5),
}


@settings(deadline=None)
@given(runs, st.data())
def test_whole_run_reports_equal_json_reports(ticks, data):
    lines = writer_text(ticks).splitlines(keepends=True)
    out = []
    for line in lines:
        form = data.draw(st.sampled_from(
            ["writer", "writer", "blank", "truncated", *OTHER_FORMS]))
        if form == "blank":  # a blank line before the writer's line
            blank = data.draw(st.sampled_from(["\n", " \n", "\t\n"]))
            assert scan_line(blank) is None
            out.append(blank)
        elif form == "truncated":
            line = line[:data.draw(st.integers(1, len(line) - 2))] + "\n"
        elif form != "writer":
            line = OTHER_FORMS[form](json.loads(line)) + "\n"
        if form not in ("writer", "blank"):
            assert scan_line(line) is None, (form, line)
        out.append(line)
    text = "".join(out)
    if text and data.draw(st.booleans()):
        text = text[:-1]  # no newline after the last line
    assert whole_run_reports(text) == json_reports(text)


@settings(deadline=None)
@given(runs)
def test_writer_lines_are_read_by_the_scan(ticks):
    text = writer_text(ticks)
    for line in text.splitlines(keepends=True):
        assert scan_line(line) is not None, line
    # not one line goes through JSON
    with mock.patch.object(metrics, "_decoded",
                           side_effect=AssertionError("decoded as JSON")):
        got = whole_run_reports(text)
    assert got == json_reports(text)

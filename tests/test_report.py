"""Reports: CSVs against in-memory aggregations, bounded memory, and the
errors of the read path.

Whole-run reports stream metrics.jsonl; `ttv --tick` and `cpr` read one
line through metrics.idx.  The oracle is the aggregation functions applied
to the whole run loaded into memory with `load_run(run_dir)`.
"""

import io
import os
import tracemalloc

import pytest

from cavsim.cli import main
from cavsim.errors import ConfigError, NotFoundError
from cavsim.metrics import (avg_bandwidth, cpr, load_run, ttv_distribution,
                            ttv_distribution_total)
from cavsim.scenario import ScenarioConfig, report, run
from cavsim.trace import synth_traffic, write_csv
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
    data = load_run(mixed_run)
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
                      if ttv_distribution(data, line["tick"])]
    assert ticks_with_ttv
    for t in (ticks_with_ttv[0], 0, 9):
        assert (report_text(mixed_run, "ttv", tick=t)
                == ttv_csv(ttv_distribution(data, t)))

    def cpr_csv(heat):
        return "cell_x,cell_y,ratio\n" + "".join(
            f"{k[0]},{k[1]},{heat[k]!r}\n" for k in sorted(heat))

    last = cpr(data, 9, 100.0)
    assert last
    assert report_text(mixed_run, "cpr") == cpr_csv(last)
    at_4 = cpr(data, 4, 50.0)
    assert at_4 and at_4 != cpr(data, 4, 100.0)
    assert report_text(mixed_run, "cpr", tick=4, cell_size=50.0) \
        == cpr_csv(at_4)


def test_load_run_one_tick_equals_whole_run_line(mixed_run):
    data = load_run(mixed_run)
    for line in data:
        assert load_run(mixed_run, line["tick"]) == [line]
    with pytest.raises(NotFoundError, match="tick 10 "):
        load_run(mixed_run, 10)


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
    for kind in ("bandwidth", "ttv"):
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


@pytest.mark.parametrize("cell", ["nan", "inf", "0", "-5"])
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
        cpr(load_run(small_run), 0, cell)


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

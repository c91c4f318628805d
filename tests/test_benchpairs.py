import importlib.util
import json
import os

BENCHPAIRS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "benchpairs.py")
spec = importlib.util.spec_from_file_location("benchpairs", BENCHPAIRS)
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)

END_TO_END = [{"name": "tick_ms", "better": "lower"},
              {"name": "peak_rss_mb", "better": "lower"},
              {"name": "rows_per_s", "better": "higher"}]


def stdout(tick_ms, rss=30.0, rows=100.0, correct=True, failed=0,
           digest="d1", raw_tick_ms=None):
    """What perfbench/run.py prints: log lines, the record, the result."""
    record = {"record": {"raw": {"tick_ms": raw_tick_ms or 1.5 * tick_ms},
                         "metrics_sha256": digest}}
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {"tick_ms": {"value": tick_ms, "unit": "ms"},
                          "peak_rss_mb": {"value": rss, "unit": "MiB"},
                          "rows_per_s": {"value": rows, "unit": "1/s"}}}
    return "a log line\n" + json.dumps(record) + "\n" + json.dumps(result) + "\n"


def run(returncode=0, **kw):
    return benchpairs.parse_output(returncode, stdout(**kw))


def test_summary_of_canned_pairs():
    parent = [20.0, 22.0, 21.0, 30.0, 24.0]
    change = [18.0, 20.0, 22.0, 27.0, 21.0]
    pairs = [(seed, run(tick_ms=p, rows=100.0 + seed),
              run(tick_ms=c, rows=100.0 + 2 * seed))
             for seed, (p, c) in enumerate(zip(parent, change), 1)]
    summary = benchpairs.summarise(pairs, END_TO_END)
    tick = summary["tick_ms"]
    assert tick["parent_median"] == 22.0 and tick["change_median"] == 21.0
    assert tick["parent_iqr"] == 27.0 - 20.5  # exclusive quartiles of 5
    assert tick["change_vs_parent"] == "-4.5 %"
    assert tick["pairs_change_lower"] == "4/5"
    assert tick["raw_parent_median"] == 33.0
    assert tick["raw_change_median"] == 31.5
    rss = summary["peak_rss_mb"]
    assert rss["pairs_change_lower"] == "0/5"  # ties are not wins
    assert rss["change_vs_parent"] == "+0.0 %" and rss["parent_iqr"] == 0.0
    assert rss["raw_parent_median"] is None
    assert summary["rows_per_s"]["pairs_change_higher"] == "5/5"
    text = benchpairs.report(summary, pairs)
    assert "parent: 5/5 runs correct with 0 failed" in text
    assert "equal on seeds [1, 2, 3, 4, 5], different on []" in text


def test_runs_without_a_result_or_with_failures_are_counted():
    broken = benchpairs.parse_output(1, "perfbench: sim child failed\n")
    assert broken == {"record": None, "result": None, "perfbench": []}
    nan = stdout(20.0).replace("30.0", "NaN")
    assert benchpairs.parse_output(0, nan)["result"] is None
    assert benchpairs.parse_output(1, stdout(20.0))["result"] is None
    pairs = [(1, run(tick_ms=20.0), broken),
             (2, run(tick_ms=21.0, failed=3), run(tick_ms=19.0, digest="d2")),
             (3, run(tick_ms=22.0, correct=False), run(tick_ms=20.0))]
    summary = benchpairs.summarise(pairs, END_TO_END)
    assert summary["tick_ms"]["pairs_change_lower"] == "2/2"
    assert summary["tick_ms"]["change_median"] == 19.5
    assert [benchpairs.ok(p) for _, p, _ in pairs] == [True, False, False]
    assert [benchpairs.ok(c) for _, _, c in pairs] == [False, True, True]
    assert benchpairs.digests(pairs) == {
        "seeds_identical_parent_vs_change": [3],
        "seeds_different": [1, 2]}


def test_failed_runs_keep_their_perfbench_lines():
    noise = "a warning\nperfbench: check failed: round 2: tick stamps leave"
    checked = benchpairs.parse_output(0, stdout(20.0, correct=False),
                                      noise + "\n")
    assert checked["perfbench"] == [
        "perfbench: check failed: round 2: tick stamps leave"]
    crashed = benchpairs.parse_output(
        1, "", "perfbench: sim child failed (exit 1):\nTraceback\n")
    assert crashed["perfbench"] == ["perfbench: sim child failed (exit 1):"]
    # a run that ended correct with 0 failed keeps none
    assert benchpairs.parse_output(0, stdout(20.0), noise)["perfbench"] == []
    silent = benchpairs.parse_output(0, stdout(21.0, failed=2), "")
    pairs = [(1, checked, run(tick_ms=19.0)), (2, run(tick_ms=20.0), crashed),
             (3, silent, run(tick_ms=18.0))]
    text = benchpairs.report(
        benchpairs.summarise(pairs, END_TO_END), pairs)
    assert text.splitlines()[-6:] == [
        "seed 1 parent not correct with 0 failed:",
        "  perfbench: check failed: round 2: tick stamps leave",
        "seed 2 change not correct with 0 failed:",
        "  perfbench: sim child failed (exit 1):",
        "seed 3 parent not correct with 0 failed:",
        "  (no perfbench: line on stderr)"]

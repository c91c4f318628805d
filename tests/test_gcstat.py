import importlib.util
import os
import re

import pytest

from cavsim.trace import synth_traffic, write_csv

GCSTAT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "gcstat.py")
spec = importlib.util.spec_from_file_location("gcstat", GCSTAT)
gcstat = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gcstat)

LINE = re.compile(r"run (\d+): gen0=(\d+) gen1=(\d+) full=(\d+) "
                  r"gc_ms_per_tick=(\d+\.\d{3}) vmhwm_kb=(\d+|n/a)")


def test_prints_one_line_per_run_and_writes_nothing(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    with open(trace, "w") as f:
        write_csv(synth_traffic(1, 3, 4, 100.0), f)
    config = tmp_path / "c.ini"
    config.write_text(f"[scenario]\ntrace = {trace}\nout = {tmp_path / 'o'}\n")
    assert gcstat.main([str(config), "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [LINE.fullmatch(line).group(1) for line in lines] == ["1", "2"]
    hwm = [LINE.fullmatch(line).group(6) for line in lines]
    if os.path.exists("/proc/self/status"):
        assert 0 < int(hwm[0]) <= int(hwm[1])  # a high-water mark
    else:
        assert hwm == ["n/a", "n/a"]
    assert sorted(os.listdir(tmp_path)) == ["c.ini", "t.csv"]


def test_each_run_streams_the_trace_file(tmp_path, capsys, monkeypatch):
    import cavsim
    from cavsim import scenario

    trace = tmp_path / "t.csv"
    with open(trace, "w") as f:
        write_csv(synth_traffic(1, 3, 4, 100.0), f)
    config = tmp_path / "c.ini"
    config.write_text(f"[scenario]\ntrace = {trace}\n")
    opened = []
    iter_trace = scenario.iter_trace

    def streamed(path, *args, **kwargs):
        opened.append(path)
        return iter_trace(path, *args, **kwargs)

    def whole(*args, **kwargs):
        raise AssertionError("the whole trace was loaded")

    monkeypatch.setattr(scenario, "iter_trace", streamed)
    monkeypatch.setattr(cavsim, "load_trace", whole)
    assert gcstat.main([str(config), "--reps", "3"]) == 0
    assert opened == [str(trace)] * 3
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_a_bad_trace_row_is_a_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    with open(trace, "w") as f:
        write_csv(synth_traffic(1, 3, 4, 100.0), f)
    with open(trace, "a") as f:
        f.write("9,x,not-a-number,0,0,5.0,1.8\n")
    config = tmp_path / "c.ini"
    config.write_text(f"[scenario]\ntrace = {trace}\n")
    with pytest.raises(SystemExit) as exit_:
        gcstat.main([str(config)])
    assert exit_.value.code == 2
    assert "error: " in capsys.readouterr().err


def test_gc_counts_counts_collections():
    import gc

    counts, spent, result = gcstat.gc_counts(lambda: gc.collect(1) or "done")
    assert result == "done"
    assert counts == [0, 1, 0] and spent >= 0.0


def test_vm_hwm_kb_reads_the_field_or_says_n_a(tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython3\nVmPeak:\t  99 kB\n"
                      "VmHWM:\t   23588 kB\nVmRSS:\t 1 kB\n")
    assert gcstat.vm_hwm_kb(str(status)) == "23588"
    assert gcstat.vm_hwm_kb(str(tmp_path / "absent")) == "n/a"
    status.write_text("Name:\tpython3\n")
    assert gcstat.vm_hwm_kb(str(status)) == "n/a"

import importlib.util
import os
import re

from cavsim.trace import synth_traffic, write_csv

GCSTAT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "gcstat.py")
spec = importlib.util.spec_from_file_location("gcstat", GCSTAT)
gcstat = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gcstat)

LINE = re.compile(r"run (\d+): gen0=(\d+) gen1=(\d+) full=(\d+) "
                  r"gc_ms_per_tick=(\d+\.\d{3})")


def test_prints_one_line_per_run_and_writes_nothing(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    with open(trace, "w") as f:
        write_csv(synth_traffic(1, 3, 4, 100.0), f)
    config = tmp_path / "c.ini"
    config.write_text(f"[scenario]\ntrace = {trace}\nout = {tmp_path / 'o'}\n")
    assert gcstat.main([str(config), "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [LINE.fullmatch(line).group(1) for line in lines] == ["1", "2"]
    assert sorted(os.listdir(tmp_path)) == ["c.ini", "t.csv"]


def test_gc_counts_counts_collections():
    import gc

    counts, spent, result = gcstat.gc_counts(lambda: gc.collect(1) or "done")
    assert result == "done"
    assert counts == [0, 1, 0] and spent >= 0.0

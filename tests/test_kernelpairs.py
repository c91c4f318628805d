"""tools/kernelpairs.py: one checkout against itself, and the order of its
timed passes.  It runs perceive in-process and starts no benchmark."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "kernelpairs", os.path.join(ROOT, "tools", "kernelpairs.py"))
kernelpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernelpairs)


def test_checkout_against_itself(capsys):
    assert kernelpairs.main(["--parent", ROOT, "--change", ROOT,
                             "--workload", "dense", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("dense: 10 ticks, ")
    assert lines[0].endswith(" objects perceived, equal on both sides")
    assert lines[1].startswith("parent: median ")
    assert lines[2].startswith("change: median ")
    assert lines[1].endswith(" ms/tick over 2 passes")
    assert lines[3].startswith("change vs parent: ")


def test_passes_alternate_which_side_runs_first():
    order = []

    def side(name):
        def perceive(ego, neighbors, cfg, tick):
            order.append(name)
            return ()
        return perceive, None

    ticks = [(0, [("ego", [])])]
    times = kernelpairs.compare({"parent": side("parent"),
                                 "change": side("change")}, ticks, 3)
    assert order == ["parent", "change", "change", "parent", "parent",
                     "change"]
    assert [len(v) for v in times.values()] == [3, 3]

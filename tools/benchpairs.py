"""Run the benchmark as alternating parent/change pairs and summarise it.

    python3 tools/benchpairs.py --parent DIR --change DIR --workload W \
        [--pairs 10] [--seconds 20] [--json PATH]

DIR is a checkout of the repository (the parent's and the change's).  Pair
k runs `perfbench/run.py --workload W --seed k --seconds S` in each
checkout, one after the other: the parent first on odd seeds, the change
first on even ones.  For every end-to-end metric that the parent's
BENCHMARK.json declares, it prints the median and interquartile range of
each side, the change's median against the parent's in %, and the pairs
the change won; then whether every run ended in a result that was correct
with 0 failed operations, and whether each seed wrote the same metrics
digest on both sides.  Each run that did not end correct with 0 failed is
listed below that with the `perfbench:` lines of its stderr, which say
why: a check that failed, or a child process that did.  --json writes
the summary, with every run's record, result and those lines, in the
shape of the repository's BENCH_<workload>.json files.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles


def parse_output(returncode: int, stdout: str, stderr: str = "") -> dict:
    """A run.py run as {"record": ..., "result": ..., "perfbench": ...},
    from its last two stdout lines; `result` is None when the run did not
    end in one.  `perfbench` holds the `perfbench:` lines of its stderr
    when the run did not end correct with 0 failed, else nothing."""
    lines = stdout.strip().splitlines()
    record = result = None
    try:
        result = json.loads(lines[-1], parse_constant=_no_constant)
        record = json.loads(lines[-2])["record"]
    except (IndexError, KeyError, TypeError, ValueError):
        pass
    if returncode != 0 or not isinstance(result, dict) \
            or "metrics" not in result:
        result = None
    run = {"record": record, "result": result, "perfbench": []}
    if not ok(run):
        run["perfbench"] = [line for line in stderr.splitlines()
                            if line.startswith("perfbench:")]
    return run


def _no_constant(name):
    raise ValueError(f"{name} is not a finite number")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    return parse_output(proc.returncode, proc.stdout, proc.stderr)


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def ok(run: dict) -> bool:
    """The run ended in a result that was correct with 0 failed."""
    result = run["result"]
    return bool(result) and result.get("correct") is True \
        and result.get("failed") == 0


def _value(run: dict, name: str):
    result = run["result"]
    if result and name in result["metrics"]:
        return result["metrics"][name]["value"]
    return None


def _raw(run: dict, name: str):
    return ((run["record"] or {}).get("raw") or {}).get(name)


def _median(values: list):
    values = [v for v in values if v is not None]
    return median(values) if values else None


def summarise(pairs: list[tuple[int, dict, dict]],
              end_to_end: list[dict]) -> dict:
    """The summary of (seed, parent run, change run) pairs: per declared
    end-to-end metric, each side's median and IQR, the change in %, the
    pairs the change won and the raw (unscaled) medians, over the runs
    that ended in a result."""
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        lower = metric.get("better", "lower") == "lower"
        parent = [_value(p, name) for _, p, _ in pairs]
        change = [_value(c, name) for _, _, c in pairs]
        both = [(a, b) for a, b in zip(parent, change)
                if a is not None and b is not None]
        won = sum(b < a if lower else b > a for a, b in both)
        entry = {}
        for side, values in (("parent", parent), ("change", change)):
            values = [v for v in values if v is not None]
            entry[f"{side}_median"] = median(values) if values else None
            entry[f"{side}_iqr"] = iqr(values) if values else None
        p, c = entry["parent_median"], entry["change_median"]
        entry["change_vs_parent"] = (f"{100 * (c / p - 1):+.1f} %"
                                     if p and c is not None else None)
        entry[f"pairs_change_{'lower' if lower else 'higher'}"] = \
            f"{won}/{len(both)}"
        entry["raw_parent_median"] = _median([_raw(p, name)
                                              for _, p, _ in pairs])
        entry["raw_change_median"] = _median([_raw(c, name)
                                              for _, _, c in pairs])
        summary[name] = entry
    return summary


def digests(pairs: list[tuple[int, dict, dict]]) -> dict:
    same, different = [], []
    for seed, parent, change in pairs:
        a = (parent["record"] or {}).get("metrics_sha256")
        b = (change["record"] or {}).get("metrics_sha256")
        (same if a is not None and a == b else different).append(seed)
    return {"seeds_identical_parent_vs_change": same,
            "seeds_different": different}


def report(summary: dict, pairs: list[tuple[int, dict, dict]]) -> str:
    def num(v):
        return "-" if v is None else f"{v:.5g}"

    lines = [f"{'metric':<20} {'parent median':>14} {'IQR':>9} "
             f"{'change median':>14} {'IQR':>9} {'change':>8} {'won':>6}"]
    for name, e in summary.items():
        won = e.get("pairs_change_lower", e.get("pairs_change_higher"))
        lines.append(f"{name:<20} {num(e['parent_median']):>14} "
                     f"{num(e['parent_iqr']):>9} {num(e['change_median']):>14} "
                     f"{num(e['change_iqr']):>9} "
                     f"{e['change_vs_parent'] or '-':>8} {won:>6}")
    for side, k in (("parent", 1), ("change", 2)):
        good = sum(ok(p[k]) for p in pairs)
        lines.append(f"{side}: {good}/{len(pairs)} runs correct with "
                     f"0 failed")
    d = digests(pairs)
    lines.append(f"metrics digest equal on seeds "
                 f"{d['seeds_identical_parent_vs_change']}, different on "
                 f"{d['seeds_different']}")
    for seed, parent, change in pairs:
        for side, run in (("parent", parent), ("change", change)):
            if not ok(run):
                lines.append(f"seed {seed} {side} not correct with 0 failed:")
                lines += [f"  {line}" for line in run["perfbench"]
                          or ["(no perfbench: line on stderr)"]]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchpairs.py")
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(os.path.join(args.parent, "BENCHMARK.json"),
              encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]

    pairs = []
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, seed,
                               args.seconds) for side in order}
        pairs.append((seed, runs["parent"], runs["change"]))
        print(f"seed {seed}: " + ", ".join(
            f"{side} {'ok' if ok(runs[side]) else 'FAILED'}"
            for side in order), file=sys.stderr)

    summary = summarise(pairs, end_to_end)
    print(report(summary, pairs))
    if args.json:
        out = {
            "workload": args.workload,
            "command": f"python3 perfbench/run.py --workload {args.workload} "
                       f"--seed N --seconds {args.seconds:g}",
            "protocol": f"{args.pairs} pairs, seeds 1-{args.pairs}; parent "
                        f"and change alternate which runs first (odd seeds "
                        f"parent first); medians and IQR over the runs of "
                        f"each side",
            "summary": summary,
            "metrics_sha256": digests(pairs),
            "all_correct_no_failures": {
                "parent": all(ok(p[1]) for p in pairs),
                "change": all(ok(p[2]) for p in pairs)},
            "before": [{"seed": s, **p} for s, p, _ in pairs],
            "after": [{"seed": s, **c} for s, _, c in pairs],
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

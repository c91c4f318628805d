"""Command line interface: `cavsim run ...` and `cavsim report ...`."""

from __future__ import annotations

import argparse
import sys

from .errors import SimError
from .scenario import REPORT_KINDS, load_config, report, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavsim",
        description="Deterministic simulator of connected-vehicle "
                    "on-board data flow")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag not given sets no attribute, so the flags given are the
    # [scenario] overrides, read like the keys of the same names
    p_run = sub.add_parser("run", help="execute a scenario",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--trace", help="trace file (overrides config)")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--seed", help="whole-number seed (overrides config)")
    p_run.add_argument("--ticks", help="tick range A:B (overrides config)")
    p_run.add_argument("--workers",
                       help="worker count, a whole number >= 1 (overrides "
                            "config; no effect: the run is single-threaded)")

    p_rep = sub.add_parser("report", help="aggregate a finished run to CSV")
    p_rep.add_argument("--run", required=True, dest="run_dir",
                       help="run output directory")
    p_rep.add_argument("--kind", required=True, choices=REPORT_KINDS)
    p_rep.add_argument("--tick", type=int,
                       help="tick for ttv/cpr only (ttv default: whole run; "
                            "cpr default: last tick)")
    p_rep.add_argument("--cell", type=float,
                       help="cell size in meters, for cpr only (default 100)")
    return parser


def _cmd_run(args) -> int:
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config")}
    summary = run(load_config(args.config, overrides))
    print(f"ticks executed: {summary.ticks_executed}")
    print(f"vehicles seen:  {summary.vehicles_seen}")
    print(f"metrics:        {summary.metrics_path}")
    print(f"index:          {summary.index_path}")
    print(f"timings:        {summary.timings_path}")
    return 0


def _cmd_report(args) -> int:
    report(args.run_dir, args.kind, sys.stdout, tick=args.tick,
           cell_size=args.cell)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except (SimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

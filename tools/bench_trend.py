#!/usr/bin/env python
"""Side-by-side reader for ``BENCH_HISTORY.jsonl``.

``repro bench`` / ``run`` / ``serve`` / ``retain`` each append one lane
record per run (see ``docs/BENCHMARKS.md``, "The lane record").  This
tool lays a lane's runs next to each other — one row per cell, one
column per run — so a slowdown shows up as a dip against history
rather than a single number with no context.  It is informational: the
regression gate is ``perf/compare.py``.

Usage::

    python tools/bench_trend.py                 # every lane
    python tools/bench_trend.py --lane serve    # one lane
    python tools/bench_trend.py --last 4        # most recent 4 runs per lane
"""

from __future__ import annotations

import argparse
import json
import sys


def load_history(path: str) -> list[dict]:
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    print(f"{path}:{line_no}: skipping bad record "
                          f"({exc})", file=sys.stderr)
    except FileNotFoundError:
        print(f"{path} not found — run `repro bench` first",
              file=sys.stderr)
    return records


def render_trend(records: list[dict], *, lane: str | None = None,
                 last: int = 0) -> str:
    by_lane: dict = {}
    for record in records:
        by_lane.setdefault(record["lane"], []).append(record)
    if lane:
        if lane not in by_lane:
            return (f"lane '{lane}' not in history "
                    f"(have: {', '.join(sorted(by_lane)) or 'none'})")
        by_lane = {lane: by_lane[lane]}
    lines = []
    for name, runs in sorted(by_lane.items()):
        if last > 0:
            runs = runs[-last:]
        cells = list(dict.fromkeys(cell for run in runs
                                   for cell in run["cells"]))
        lines.append(f"lane {name}: reports/sec")
        header = f"  {'cell':<26}"
        for run in runs:
            stamp = f"{run.get('date', '?')} {run.get('commit', '?')}"
            header += f"{stamp:>18}"
        lines += [header, "  " + "-" * (len(header) - 2)]
        for cell in cells:
            line = f"  {cell:<26}"
            previous = None
            for run in runs:
                rps = run["cells"].get(cell, {}).get("reports_per_sec")
                if rps is None:
                    line += f"{'-':>18}"
                    continue
                # >=10% drop from the previous run of this cell
                dropped = previous and (rps - previous) / previous <= -0.10
                previous = rps
                line += f"{rps:>17,.0f}{'!' if dropped else ' '}"
            lines.append(line)
        lines.append("")
    lines.append("(! marks a >=10% drop from the previous run)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="lay the lane records of a history file side by side")
    parser.add_argument("--history", default="BENCH_HISTORY.jsonl",
                        help="JSONL file the repro lanes append to")
    parser.add_argument("--lane", default=None,
                        help="single lane to show (bench, run, serve, "
                             "retain)")
    parser.add_argument("--last", type=int, default=0, metavar="N",
                        help="only the most recent N runs of each lane")
    args = parser.parse_args(argv)
    records = load_history(args.history)
    if not records:
        return 1
    print(render_trend(records, lane=args.lane, last=args.last))
    return 0


if __name__ == "__main__":
    sys.exit(main())

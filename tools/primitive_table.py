#!/usr/bin/env python
"""Print docs/ARCHITECTURE.md's "Where a primitive lives" table from
the registry; ``--write`` replaces it in the doc between its markers
(``tests/core/test_primitives.py`` fails when the doc is stale).

Run from the repo root with ``PYTHONPATH=src``.
"""

import pathlib
import sys

from repro.core.primitives import REGISTRY, geometry_fields

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs/ARCHITECTURE.md"
BEGIN, END = "<!-- primitive-table:begin -->", "<!-- primitive-table:end -->"


def _wire(wire) -> str:
    accept = {field: f" {lo}..{hi}" for field, lo, hi in wire.ranges}
    return ", ".join(
        [f"`{f.name}` {f.code}{accept.get(f, '')}" for f in wire.fields]
        + [f"`{t.name}` x{t.item} B" for t in wire.tails])


def _tracker(tracker) -> str:
    if tracker.kind == "slots":
        return f"slots: `{tracker.cells}` x `{tracker.cell_bytes}` B"
    if tracker.kind == "deltas":
        return (f"deltas: `{tracker.cells}` x `{tracker.counter}`"
                + (", re-streamed" if tracker.reset else ""))
    return tracker.kind


def render() -> str:
    rows = ["| primitive | store module | wire sub-header: field, struct "
            "code, accept (a count field: its tail's) | batch columns "
            "| route | lane state | plan | store | geometry (layout "
            "fields) | retention tracker |",
            "|---|---|---|---|---|---|---|---|---|---|"]
    for p in REGISTRY:
        lane = p.home.LANE
        columns = [f"`{c}`" for c in p.columns]
        if p.extra:
            columns.append(f"batch-wide `{p.extra}`")
        columns += [f"`{name}` held to {lo}..{hi}"
                    for name, (lo, hi) in p.batch_accept.items()]
        plan = "pure: from wire columns or a batch" if lane.plan_columns \
            else "stateful: from a batch"
        rows.append(" | ".join((
            f"| {p.wire.label} (`{p.service}`, code {int(p.code)})",
            f"`{p.module.removeprefix('repro.')}`", _wire(p.wire),
            ", ".join(columns), f"{p.route} (`{p.routed_by}`)",
            ", ".join(f"`{s}`" for s in lane.__slots__) or "none",
            plan + (", Fetch-and-Add" if p.atomic else ""),
            f"`{p.store}`",
            ", ".join(f"`{name}`"
                      for name in geometry_fields(p.home.LAYOUT)),
            f"{_tracker(p.home.TRACKER)} |")))
    return "\n".join(rows)


if __name__ == "__main__":
    if "--write" in sys.argv:
        head, rest = DOC.read_text().split(BEGIN)
        DOC.write_text(f"{head}{BEGIN}\n{render()}\n{END}{rest.split(END)[1]}")
    else:
        print(render())

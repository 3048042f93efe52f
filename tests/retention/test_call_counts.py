"""Python calls per epoch rotation do not grow with store size.

A count, not a clock: ``sys.setprofile`` counts every Python call
:meth:`EpochManager.rotate` makes while the same seeded writes land in
two collectors whose stores are :data:`SCALE` times apart in cells.
Each tracker works in array operations over a view of its region, so
the count is the same at both sizes and repeats exactly, whatever the
host's load.
"""

from __future__ import annotations

import random

from repro.core.collector import Collector
from repro.retention.epochs import EpochManager, RetentionPolicy
from tests.calls import CallCounter

#: Cells per store at the small geometry: Key-Write slots, Key-Increment
#: counters per row, Postcarding chunks, Append entries per list and
#: Sketch-Merge columns.
SMALL = {"slots": 1024, "slots_per_row": 512, "chunks": 128,
         "capacity": 256, "width": 64}
SCALE = 16
ROTATIONS = 8
#: Random byte writes per fixed-cell store, and entries appended per
#: Append list, between two rotations — fewer than one lap in all.
WRITES, ENTRIES = 200, 12
#: Calls per rotation allowed.  The trackers made 6 972 per rotation at
#: the small geometry and 86 652 at the large one while they walked
#: every cell, counter and Append entry in Python; the guard holds it
#: to a twentieth of the small count (188.75 now, at both).
BOUND = 6972 / 20


def _collector(scale: int) -> Collector:
    collector = Collector(f"rotate-x{scale}")
    collector.serve_keywrite(slots=SMALL["slots"] * scale, data_bytes=16)
    collector.serve_keyincrement(
        slots_per_row=SMALL["slots_per_row"] * scale, rows=4)
    collector.serve_postcarding(chunks=SMALL["chunks"] * scale,
                                value_set=range(256), hops=5)
    collector.serve_append(lists=4, capacity=SMALL["capacity"] * scale,
                           data_bytes=16)
    collector.serve_sketch(width=SMALL["width"] * scale, depth=4,
                           expected_reporters=1)
    return collector


def _write(collector: Collector, scale: int, rng: random.Random,
           heads: list) -> None:
    """One epoch's writes, at offsets the small geometry has too."""
    for store in (collector.keywrite, collector.keyincrement,
                  collector.postcarding, collector.sketch):
        span = store.region.length // scale
        for _ in range(WRITES):
            store.region.buf[rng.randrange(span)] = rng.randrange(256)
    layout = collector.append.layout
    for list_id, head in enumerate(heads):
        for position in range(head, head + ENTRIES):
            entry = layout.encode_entry(rng.randbytes(16), 0)
            collector.append.region.local_write(
                layout.entry_addr(list_id, position) - layout.base_addr,
                entry)
        heads[list_id] = head + ENTRIES


def _rotate(scale: int) -> tuple:
    """``(calls per rotation, rotation reports)`` at ``scale``."""
    collector = _collector(scale)
    manager = EpochManager(collector, policy=RetentionPolicy(window=2))
    rng, heads = random.Random(3), [0] * 4
    counter = CallCounter()
    for _ in range(ROTATIONS):
        _write(collector, scale, rng, heads)
        with counter:
            manager.rotate()
    return counter.calls / ROTATIONS, manager.reports


def test_rotation_calls_do_not_grow_with_store_size():
    small, small_reports = _rotate(1)
    large, large_reports = _rotate(SCALE)
    # The same writes: every rotation sealed, expired and kept alike.
    assert small_reports == large_reports
    assert sum(sum(report.expired.values())
               for report in small_reports) > 0
    assert large == small, (
        f"{large:.0f} calls per rotation at {SCALE}x the cells, "
        f"{small:.0f} at 1x")
    assert small <= BOUND, f"{small:.0f} calls per rotation > {BOUND}"

"""The array trackers against the per-cell loops they replaced.

``retention/epochs.py`` rotates with vector operations over a view of
each region.  The trackers as first written walked every cell, counter
and Append entry in Python; frozen here as the oracle, they must leave
the same region bytes, the same rotation reports and the same exported
checkpoint state after every rotation, for any write schedule — and
the array trackers must take the oracle's exported state back.
"""

from __future__ import annotations

import random
import struct
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import primitives
from repro.core.collector import Collector
from repro.core.stores.append import lap_tag
from repro.retention.epochs import EpochManager, RetentionPolicy


class _OracleSlots:
    kind = "slots"

    def __init__(self, store, declared) -> None:
        self.region = store.region
        self.cells = getattr(store.layout, declared.cells)
        self.width = getattr(store.layout, declared.cell_bytes)
        self.gens = [0] * self.cells
        self.prev = bytes(self.cells * self.width)

    def _current(self) -> bytes:
        return bytes(self.region.buf[:self.cells * self.width])

    def observe(self, epoch: int) -> int:
        cur, width = self._current(), self.width
        changed = [index for index in range(self.cells)
                   if cur[index * width:(index + 1) * width]
                   != self.prev[index * width:(index + 1) * width]]
        for index in changed:
            self.gens[index] = epoch
        self.prev = cur
        return len(changed)

    def expire(self, cutoff: int) -> int:
        recycled = 0
        for index, gen in enumerate(self.gens):
            if gen and gen <= cutoff:
                self.region.local_write(index * self.width,
                                        bytes(self.width))
                self.gens[index] = 0
                recycled += 1
        if recycled:
            self.prev = self._current()
        return recycled

    @property
    def live(self) -> int:
        return sum(1 for gen in self.gens if gen)

    def export_state(self):
        return ({"kind": self.kind, "cells": self.cells,
                 "cell_bytes": self.width},
                {"gens": struct.pack(f"<{self.cells}I", *self.gens),
                 "prev": self.prev})


class _OracleDeltas:
    kind = "deltas"

    def __init__(self, store, declared) -> None:
        self.region = store.region
        self.count = count = getattr(store.layout, declared.cells)
        order, code = declared.counter
        self.fmt = f"{order}{count}{code}"
        self.mod = 1 << 8 * struct.calcsize(declared.counter)
        self.reset = declared.reset
        self.nbytes = struct.calcsize(self.fmt)
        self.prev = (0,) * count
        self.deltas: deque = deque()
        self.merged = (0,) * count

    def _read(self) -> tuple:
        return struct.unpack(self.fmt, bytes(self.region.buf[:self.nbytes]))

    def observe(self, epoch: int) -> int:
        cur = self._read()
        if self.reset:
            delta = cur
            if any(delta):
                self.region.local_write(0, bytes(self.nbytes))
            self.prev = (0,) * self.count
        else:
            delta = tuple((c - p) % self.mod for c, p in zip(cur, self.prev))
            self.prev = cur
        nonzero = sum(1 for d in delta if d)
        if nonzero:
            self.deltas.append((epoch, delta))
        return nonzero

    def expire(self, cutoff: int) -> int:
        expired = 0
        while self.deltas and self.deltas[0][0] <= cutoff:
            _epoch, delta = self.deltas.popleft()
            if not self.reset:
                decayed = tuple((c - d) % self.mod
                                for c, d in zip(self._read(), delta))
                self.region.local_write(0, struct.pack(self.fmt, *decayed))
                self.prev = decayed
            self.merged = tuple((m + d) % self.mod
                                for m, d in zip(self.merged, delta))
            expired += sum(1 for d in delta if d)
        return expired

    @property
    def live(self) -> int:
        return sum(1 for value in self._read() if value)

    def export_state(self):
        meta = {"kind": self.kind, "count": self.count, "fmt": self.fmt,
                "reset": self.reset,
                "epochs": [epoch for epoch, _ in self.deltas]}
        blobs = {"prev": struct.pack(self.fmt, *self.prev),
                 "merged": struct.pack(self.fmt, *self.merged)}
        for epoch, delta in self.deltas:
            blobs[f"delta.{epoch}"] = struct.pack(self.fmt, *delta)
        return meta, blobs


class _OracleSegments:
    kind = "segments"

    def __init__(self, store, declared) -> None:
        self.region, self.layout = store.region, store.layout
        self.heads = [0] * self.layout.lists
        self.segments: list = [[] for _ in range(self.layout.lists)]

    def _tag_at(self, list_id: int, position: int) -> tuple:
        """``(offset, tag expected)`` of an absolute list position."""
        layout = self.layout
        lap, slot = divmod(position, layout.capacity)
        return (layout.entry_addr(list_id, slot) - layout.base_addr,
                lap_tag(lap))

    def observe(self, epoch: int) -> int:
        sealed = 0
        for list_id, start in enumerate(self.heads):
            head = start
            while head - start < self.layout.capacity:
                offset, tag = self._tag_at(list_id, head)
                if self.region.buf[offset] != tag:
                    break
                head += 1
            if head > start:
                self.segments[list_id].append([epoch, start, head])
                sealed += head - start
                self.heads[list_id] = head
        return sealed

    def expire(self, cutoff: int) -> int:
        expired = 0
        for list_id, per_list in enumerate(self.segments):
            for epoch, start, end in per_list:
                if epoch > cutoff:
                    continue
                for position in range(start, end):
                    offset, tag = self._tag_at(list_id, position)
                    if self.region.buf[offset] == tag:
                        self.region.local_write(
                            offset, bytes(self.layout.entry_bytes))
                        expired += 1
            self.segments[list_id] = [segment for segment in per_list
                                      if segment[0] > cutoff]
        return expired

    @property
    def live(self) -> int:
        return sum(end - start for per_list in self.segments
                   for _epoch, start, end in per_list)

    def export_state(self):
        return ({"kind": self.kind, "heads": list(self.heads),
                 "segments": [[list(segment) for segment in per_list]
                              for per_list in self.segments]}, {})


ORACLES = {oracle.kind: oracle
           for oracle in (_OracleSlots, _OracleDeltas, _OracleSegments)}


def _collector() -> Collector:
    """Every store, small enough that appends lap their rings."""
    collector = Collector("oracle")
    collector.serve_keywrite(slots=64, data_bytes=8)
    collector.serve_keyincrement(slots_per_row=32, rows=2)
    collector.serve_postcarding(chunks=16, value_set=range(256), hops=5)
    collector.serve_append(lists=2, capacity=8, data_bytes=4)
    collector.serve_sketch(width=16, depth=2, expected_reporters=1)
    return collector


def _write(collectors: tuple, rng: random.Random, byte_writes: int,
           appends: list, heads: list) -> None:
    """The same epoch's writes into each collector: random bytes into
    any store (Append tags included), then entries appended at each
    list's head."""
    stores = [tuple(store for _primitive, store in
                    primitives.served(collector))
              for collector in collectors]
    for _ in range(byte_writes):
        which = rng.randrange(len(stores[0]))
        offset = rng.randrange(stores[0][which].region.length)
        value = rng.randrange(256)
        for served in stores:
            served[which].region.buf[offset] = value
    for list_id, count in enumerate(appends):
        for position in range(heads[list_id], heads[list_id] + count):
            data = rng.randbytes(4)
            for collector in collectors:
                store = collector.append
                layout = store.layout
                lap, slot = divmod(position, layout.capacity)
                store.region.local_write(
                    layout.entry_addr(list_id, slot) - layout.base_addr,
                    layout.encode_entry(data, lap))
        heads[list_id] += count


@settings(max_examples=40, deadline=None)
@given(window=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       schedule=st.lists(st.tuples(st.integers(0, 40),
                                   st.lists(st.integers(0, 12), min_size=2,
                                            max_size=2)),
                         min_size=1, max_size=10))
def test_array_trackers_match_the_oracle(window, seed, schedule):
    policy = RetentionPolicy(window=window)
    ours, theirs = _collector(), _collector()
    manager = EpochManager(ours, policy=policy)
    oracle = EpochManager(theirs, policy=policy)
    oracle.trackers = {
        primitive.store: ORACLES[primitive.home.TRACKER.kind](
            store, primitive.home.TRACKER)
        for primitive, store in primitives.served(theirs)}
    rng, heads = random.Random(seed), [0, 0]
    for byte_writes, appends in schedule:
        _write((ours, theirs), rng, byte_writes, appends, heads)
        assert manager.rotate() == oracle.rotate()
        for (_p, mine), (_q, theirs_) in zip(primitives.served(ours),
                                            primitives.served(theirs)):
            assert mine.region.buf == theirs_.region.buf
        meta, blobs = manager.export_state()
        assert (meta, blobs) == oracle.export_state()
    # The oracle's state, imported, exports as itself.
    restored = EpochManager(_collector(), policy=policy)
    restored.import_state(*oracle.export_state())
    assert restored.export_state() == oracle.export_state()

"""Key-Increment store: CMS semantics over counters."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdma.memory import ProtectionDomain
from repro.core.stores.keyincrement import (
    COUNTER_BYTES,
    KeyIncrementLayout,
    KeyIncrementStore,
)


def local_increment(store, key: bytes, value: int = 1, *,
                    redundancy: int | None = None) -> None:
    """Add ``value`` to ``key``'s counters in place, as the translator's
    FETCH_ADDs would."""
    for n in range(min(redundancy or store.layout.rows, store.layout.rows)):
        offset = store.layout.counter_index(n, key) * COUNTER_BYTES
        current, = struct.unpack("<Q", store.region.local_read(
            offset, COUNTER_BYTES))
        store.region.local_write(offset, struct.pack("<Q", current + value))


def make_store(slots_per_row=256, rows=4):
    probe = KeyIncrementLayout(base_addr=0, slots_per_row=slots_per_row,
                               rows=rows)
    pd = ProtectionDomain()
    region = pd.register(probe.region_bytes)
    layout = KeyIncrementLayout(base_addr=region.addr,
                                slots_per_row=slots_per_row, rows=rows)
    return KeyIncrementStore(region, layout)


class TestLayout:
    def test_rows_never_collide_across_rows(self):
        layout = KeyIncrementLayout(base_addr=0, slots_per_row=100, rows=4)
        indices = [layout.counter_index(n, b"key") for n in range(4)]
        assert len(set(i // 100 for i in indices)) == 4

    def test_row_out_of_range(self):
        layout = KeyIncrementLayout(base_addr=0, slots_per_row=10, rows=2)
        with pytest.raises(IndexError):
            layout.counter_index(2, b"k")

    def test_addr_arithmetic(self):
        layout = KeyIncrementLayout(base_addr=1000, slots_per_row=10,
                                    rows=2)
        idx = layout.counter_index(1, b"k")
        assert layout.counter_addr(1, b"k") == 1000 + idx * 8


class TestQueries:
    def test_fresh_store_counts_zero(self):
        assert make_store().query(b"nothing") == 0

    def test_increment_accumulates(self):
        store = make_store()
        local_increment(store, b"flow", 3)
        local_increment(store, b"flow", 4)
        assert store.query(b"flow") == 7

    def test_never_underestimates(self):
        store = make_store(slots_per_row=32)
        from collections import Counter
        truth = Counter()
        for i in range(200):
            key = f"k{i % 40}".encode()
            local_increment(store, key, 1)
            truth[key] += 1
        for key, count in truth.items():
            assert store.query(key) >= count

    def test_reduced_redundancy_query(self):
        store = make_store(rows=4)
        local_increment(store, b"k", 5, redundancy=2)
        # Querying only the rows that were written sees the value...
        assert store.query(b"k", redundancy=2) == 5
        # ...while the full-depth query sees the unwritten rows (0).
        assert store.query(b"k", redundancy=4) == 0

    def test_reset_zeroes_counters(self):
        store = make_store()
        local_increment(store, b"k", 9)
        store.reset()
        assert store.query(b"k") == 0

    def test_query_counter_tracked(self):
        store = make_store()
        store.query(b"a")
        store.query(b"b")
        assert store.queries == 2

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                              st.integers(1, 100)),
                    min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_cms_overestimate_property(self, updates):
        store = make_store(slots_per_row=64)
        from collections import Counter
        truth = Counter()
        for key, value in updates:
            local_increment(store, key, value)
            truth[key] += value
        for key, total in truth.items():
            assert store.query(key) >= total

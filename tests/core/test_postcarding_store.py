"""Postcarding store: chunk encoding, blank handling, redundancy."""

import pytest

from repro.rdma.memory import ProtectionDomain
from repro.core.stores.postcarding import (
    BLANK,
    PostcardingLayout,
    PostcardingStore,
)

VALUES = range(64)  # the switch-ID universe V


def make_store(chunks=512, hops=5, slot_bits=32, value_set=VALUES):
    probe = PostcardingLayout(base_addr=0, chunks=chunks, hops=hops,
                              slot_bits=slot_bits,
                              pad_to=max(32, hops * (slot_bits // 8)))
    pd = ProtectionDomain()
    region = pd.register(probe.region_bytes)
    layout = PostcardingLayout(base_addr=region.addr, chunks=chunks,
                               hops=hops, slot_bits=slot_bits,
                               pad_to=probe.pad_to)
    return PostcardingStore(region, layout, value_set)


class TestLayout:
    def test_chunk_indices_in_range(self):
        layout = PostcardingLayout(base_addr=0, chunks=100, hops=5)
        for j in range(4):
            assert 0 <= layout.chunk_index(b"flow", j) < 100

    def test_chunk_padding_respected(self):
        layout = PostcardingLayout(base_addr=0, chunks=10, hops=5,
                                   pad_to=32)
        assert layout.region_bytes == 320
        assert layout.chunk_payload_bytes == 20

    def test_pad_too_small_rejected(self):
        with pytest.raises(ValueError):
            PostcardingLayout(base_addr=0, chunks=10, hops=5, pad_to=16)

    def test_slot_bits_validation(self):
        with pytest.raises(ValueError):
            PostcardingLayout(base_addr=0, chunks=10, hops=5, slot_bits=12)

    def test_encode_chunk_length(self):
        layout = PostcardingLayout(base_addr=0, chunks=10, hops=5)
        assert len(layout.encode_chunk(b"f", [1, 2, 3])) == 20

    def test_too_many_values_rejected(self):
        layout = PostcardingLayout(base_addr=0, chunks=10, hops=2,
                                   pad_to=8)
        with pytest.raises(ValueError):
            layout.encode_chunk(b"f", [1, 2, 3])

    def test_xor_encoding_invertible(self):
        layout = PostcardingLayout(base_addr=0, chunks=10, hops=5)
        encoded = layout.encode_slot(b"flow", 2, 42)
        assert encoded ^ layout.hop_checksum(b"flow", 2) == layout.g(42)


class TestQueries:
    def test_full_path_roundtrip(self):
        store = make_store()
        path = [10, 20, 30, 40, 50]
        store.local_insert(b"flow", path)
        assert store.query(b"flow") == path

    def test_short_path_with_blanks(self):
        """Paths shorter than B decode to their true length."""
        store = make_store()
        store.local_insert(b"flow", [7, 8, 9])
        assert store.query(b"flow") == [7, 8, 9]

    def test_unwritten_flow_returns_none(self):
        store = make_store()
        assert store.query(b"ghost") is None

    def test_overwritten_flow_returns_none(self):
        store = make_store(chunks=1)
        store.local_insert(b"old", [1, 2, 3, 4, 5])
        store.local_insert(b"new", [6, 7, 8, 9, 10])
        assert store.query(b"old") is None
        assert store.query(b"new") == [6, 7, 8, 9, 10]

    def test_value_outside_universe_rejected_at_query(self):
        """A chunk containing a non-universe g-value is invalid."""
        store = make_store(value_set=range(8))
        layout = store.layout
        # Write a raw chunk claiming value 9999 (not in V).
        import struct
        payload = b"".join(
            struct.pack(">I",
                        layout.hop_checksum(b"f", i) ^ layout.g(9999))
            for i in range(5))
        offset = layout.chunk_index(b"f", 0) * layout.pad_to
        store.region.local_write(offset, payload)
        assert store.query(b"f") is None

    def test_value_after_blank_is_invalid(self):
        store = make_store()
        layout = store.layout
        import struct
        values = [1, BLANK, 2, BLANK, BLANK]
        payload = b"".join(
            struct.pack(">I", layout.encode_slot(b"f", i, v))
            for i, v in enumerate(values))
        offset = layout.chunk_index(b"f", 0) * layout.pad_to
        store.region.local_write(offset, payload)
        assert store.query(b"f") is None

    def test_redundancy_two_consistent(self):
        store = make_store()
        store.local_insert(b"flow", [1, 2, 3, 4, 5], redundancy=2)
        assert store.query(b"flow", redundancy=2) == [1, 2, 3, 4, 5]

    def test_redundancy_two_survives_one_overwrite(self):
        store = make_store(chunks=4096)
        store.local_insert(b"victim", [1, 2, 3], redundancy=2)
        # Kill the first chunk with another flow's data.
        layout = store.layout
        other = layout.encode_chunk(b"attacker", [9, 9, 9])
        offset = layout.chunk_index(b"victim", 0) * layout.pad_to
        store.region.local_write(offset, other)
        assert store.query(b"victim", redundancy=2) == [1, 2, 3]

    def test_conflicting_valid_chunks_empty_return(self):
        store = make_store(chunks=4096)
        layout = store.layout
        # Both redundancy chunks valid but disagreeing.
        for j, path in ((0, [1, 2, 3]), (1, [4, 5, 6])):
            payload = layout.encode_chunk(b"flow", path)
            offset = layout.chunk_index(b"flow", j) * layout.pad_to
            store.region.local_write(offset, payload)
        assert store.query(b"flow", redundancy=2) is None

    def test_hit_counters(self):
        store = make_store()
        store.local_insert(b"a", [1])
        store.query(b"a")
        store.query(b"missing")
        assert store.queries == 2
        assert store.hits == 1

    def test_lut_collision_detected_at_construction(self):
        """A tiny slot width cannot injectively cover a large V."""
        with pytest.raises(ValueError):
            make_store(slot_bits=8, value_set=range(4096))

    def test_empty_path_roundtrip(self):
        store = make_store()
        store.local_insert(b"empty", [])
        assert store.query(b"empty") == []


class TestQueryCostModel:
    def test_instrumentation_counts(self):
        store = make_store()
        store.local_insert(b"f", [1, 2, 3, 4, 5])
        store.query(b"f")
        assert store.chunk_reads == 1
        assert store.hop_checksums == 5

    def test_single_random_access_beats_keywrite_per_hop(self):
        """Section 3.2: answering a path query needs one random read
        with Postcarding versus B with Key-Write."""
        from repro.core.stores.keywrite import KeyWriteLayout, KeyWriteStore
        from repro.rdma.memory import ProtectionDomain

        pc = make_store()
        pc.local_insert(b"flow!", [1, 2, 3, 4, 5])
        for _ in range(50):
            pc.query(b"flow!")

        probe = KeyWriteLayout(base_addr=0, slots=4096, data_bytes=4)
        pd = ProtectionDomain()
        region = pd.register(probe.region_bytes)
        kw = KeyWriteStore(region, KeyWriteLayout(
            base_addr=region.addr, slots=4096, data_bytes=4))
        for hop in range(5):
            kw.local_insert(bytes([hop]) + b"flow!", bytes([hop] * 4),
                            redundancy=1)
        for _ in range(50):
            for hop in range(5):
                kw.query(bytes([hop]) + b"flow!", redundancy=1)
        assert pc.chunk_reads == pc.queries == 50
        assert kw.stats.queries == 5 * pc.queries

    def test_empty_store_model_is_zero(self):
        store = make_store()
        assert store.queries == store.chunk_reads == store.hop_checksums == 0

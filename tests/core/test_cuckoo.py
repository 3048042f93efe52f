"""Translator-managed cuckoo table (Section 6 future work)."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collector import Collector
from repro.core.stores.cuckoo import CuckooLayout, CuckooManager
from repro.core.translator import Translator


def deploy(buckets=256, key_bytes=8, value_bytes=4):
    col = Collector()
    advert = col.serve_cuckoo(buckets=buckets, key_bytes=key_bytes,
                              value_bytes=value_bytes)
    tr = Translator()
    col.connect_translator(tr)
    layout = CuckooLayout(advert.addr, **advert.params)
    return col, tr, CuckooManager(tr.client, layout, advert.rkey)


def key(i: int) -> bytes:
    return struct.pack(">Q", i)


class TestLayout:
    def test_two_candidate_buckets(self):
        layout = CuckooLayout(base_addr=0, buckets=64, key_bytes=8,
                              value_bytes=4)
        b0 = layout.bucket_index(0, key(1))
        b1 = layout.bucket_index(1, key(1))
        assert layout.alternate(key(1), b0) == b1
        assert layout.alternate(key(1), b1) == b0

    def test_slot_roundtrip(self):
        layout = CuckooLayout(base_addr=0, buckets=64, key_bytes=8,
                              value_bytes=4)
        raw = layout.encode_slot(key(7), b"val!")
        assert layout.decode_slot(raw) == (key(7), b"val!")
        assert layout.decode_slot(layout.empty_slot()) is None

    def test_key_width_enforced(self):
        layout = CuckooLayout(base_addr=0, buckets=64, key_bytes=8,
                              value_bytes=4)
        with pytest.raises(ValueError):
            layout.encode_slot(b"short", b"v")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CuckooLayout(base_addr=0, buckets=1, key_bytes=8,
                         value_bytes=4)


class TestAdvert:
    def test_translator_refuses_a_cuckoo_advert(self):
        """No translator lane serves the cuckoo table: its advert is
        an unknown service to ``configure``, like any name outside the
        primitive registry, and the collector does not listen on it."""
        col = Collector()
        advert = col.serve_cuckoo(buckets=16, key_bytes=8, value_bytes=4)
        assert col.cm.ports() == {}
        tr = Translator()
        with pytest.raises(ValueError,
                           match="unknown primitive service 'cuckoo'"):
            tr.configure(advert)
        with pytest.raises(ValueError,
                           match="unknown primitive service 'bogus'"):
            tr.configure(dataclasses.replace(advert, primitive="bogus"))


class TestInsertQuery:
    def test_insert_then_exact_query(self):
        col, tr, manager = deploy()
        assert manager.insert(key(1), b"\x01\x02\x03\x04")
        assert col.cuckoo.query(key(1)) == b"\x01\x02\x03\x04"

    def test_missing_key_returns_none_never_wrong(self):
        col, tr, manager = deploy()
        manager.insert(key(1), b"aaaa")
        assert col.cuckoo.query(key(2)) is None

    def test_update_in_place(self):
        col, tr, manager = deploy()
        manager.insert(key(5), b"old!")
        manager.insert(key(5), b"new!")
        assert col.cuckoo.query(key(5)) == b"new!"
        assert col.cuckoo.occupancy() == 1
        assert manager.stats.updates == 1

    def test_no_overwrites_unlike_keywrite(self):
        """The §6 payoff: every inserted key stays queryable (until the
        table genuinely fills), unlike Key-Write's probabilistic decay."""
        col, tr, manager = deploy(buckets=512)
        count = 400  # ~39% load on 1024 slots
        for i in range(count):
            assert manager.insert(key(i), struct.pack(">I", i))
        for i in range(count):
            assert col.cuckoo.query(key(i)) == struct.pack(">I", i)

    def test_displacements_happen_under_pressure(self):
        col, tr, manager = deploy(buckets=32)
        for i in range(50):  # ~78% load forces kicks
            manager.insert(key(i), b"\x00\x00\x00\x01")
        assert manager.stats.displacements > 0
        # Everything that reported success is still there.
        stored = sum(col.cuckoo.query(key(i)) is not None
                     for i in range(50))
        assert stored == manager.stats.inserts + manager.stats.updates

    def test_table_full_reports_failure(self):
        col, tr, manager = deploy(buckets=2)  # 4 slots
        results = [manager.insert(key(i), b"v" * 4) for i in range(20)]
        assert not all(results)
        assert manager.stats.failures > 0

    def test_a_read_returns_the_bucket_bytes(self):
        """The manager's READs stay signaled: each completion carries
        the bucket's bytes, and the manager drains what it asked for."""
        col, tr, manager = deploy()
        assert manager.insert(key(7), b"\x00\x00\x00\x09")
        layout = manager.layout
        bucket = layout.bucket_index(0, key(7))
        raw = manager._read_bucket(bucket)
        assert raw == col.cuckoo.region.local_read(
            bucket * layout.bucket_bytes, layout.bucket_bytes)
        assert (key(7), b"\x00\x00\x00\x09") in [
            layout.decode_slot(raw[i:i + layout.slot_bytes])
            for i in range(0, len(raw), layout.slot_bytes)]
        assert list(tr.client.qp.completions) == []

    def test_read_amplification_counted(self):
        """Inserts cost RDMA reads — the cost Key-Write avoids."""
        col, tr, manager = deploy()
        for i in range(50):
            manager.insert(key(i), b"\x00\x00\x00\x01")
        assert manager.stats.rdma_reads >= 50
        assert manager.stats.ops_per_insert >= 2.0

    @given(st.dictionaries(st.integers(0, 10_000),
                           st.binary(min_size=4, max_size=4),
                           min_size=1, max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_map_semantics_property(self, mapping):
        col, tr, manager = deploy(buckets=512)
        for k, v in mapping.items():
            assert manager.insert(key(k), v)
        for k, v in mapping.items():
            assert col.cuckoo.query(key(k)) == v

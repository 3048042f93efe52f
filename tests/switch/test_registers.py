"""Collector memory: the state the translator's verbs read-modify-write.

These ids once drove the register arrays of a switch-pipeline model
(removed, ROADMAP item 11(B)): SRAM cells behind stateful ALUs.  In the
system DTA builds, the state a primitive aggregates into lives in the
collector's registered memory and is changed by RDMA verbs — Key-Write
and Append writes, Key-Increment's FETCH_ADD, Sketch-Merge's merged
columns.  Each id now checks :class:`~repro.rdma.memory.MemoryRegion`
or a verb landing in it: what an atomic returns, how it wraps, which
accesses the region's rights refuse, and how large each store is.
"""

import struct

import pytest

from repro.core import primitives
from repro.core.collector import Collector
from repro.core.packets import KeyIncrement, SketchColumn, make_report
from repro.core.postcard_cache import PostcardCache
from repro.core.stores.append import AppendLayout
from repro.core.stores.keywrite import KeyWriteLayout
from repro.core.translator import Translator
from repro.rdma.memory import (
    AccessFlags,
    MemoryRegion,
    ProtectionDomain,
    RemoteAccessError,
)


@pytest.fixture
def region():
    return ProtectionDomain().register(16 * 8)


def word(region, offset: int, width: int = 8) -> int:
    return struct.unpack_from("<Q" if width == 8 else "<I",
                              region.buf, offset)[0]


def deploy(**serve):
    col = Collector()
    for name, params in serve.items():
        getattr(col, f"serve_{name}")(**params)
    tr = Translator()
    col.connect_translator(tr)
    return col, tr


class TestRmw:
    def test_initial_value(self):
        pd = ProtectionDomain()
        fresh = pd.register(16)
        assert fresh.read(fresh.addr, 16) == bytes(16)
        given = pd.register(4, buf=bytearray(b"\x07\x00\x00\x00"))
        assert given.fetch_add(given.addr, 0, width=4) == 7

    def test_write_returns_old(self, region):
        """Atomics return the word as it was before them."""
        assert region.fetch_add(region.addr, 10) == 0
        assert region.fetch_add(region.addr, 10) == 10
        assert region.compare_swap(region.addr, 20, 5) == 20
        assert word(region, 0) == 5

    def test_add_returns_new(self):
        """Key-Increment's FETCH_ADDs accumulate: the collector reads
        the running sum."""
        col, tr = deploy(keyincrement={"slots_per_row": 64, "rows": 2})
        for _ in range(2):
            tr.handle_report(make_report(KeyIncrement(key=b"ctr", value=5,
                                                      redundancy=2)))
        assert col.query_counter(b"ctr", redundancy=2) == 10

    def test_add_wraps_at_width(self, region):
        region.local_write(0, struct.pack("<Q", 2**64 - 3))
        assert region.fetch_add(region.addr, 10) == 2**64 - 3
        assert word(region, 0) == 7
        region.local_write(8, struct.pack("<I", 2**32 - 1))
        region.fetch_add(region.addr + 8, 2, width=4)
        assert word(region, 8, width=4) == 1

    def test_maximum_keeps_larger(self):
        """Sketch-Merge's ``max`` mode: the merged column holds each
        counter's largest report (the HyperLogLog merge)."""
        col, tr = deploy(sketch={"width": 4, "depth": 2,
                                 "expected_reporters": 2,
                                 "batch_columns": 4, "merge": "max"})
        for reporter, counters in ((1, (5, 1)), (2, (3, 9))):
            for column in range(4):
                tr.handle_report(make_report(
                    SketchColumn(sketch_id=0, column=column,
                                 counters=counters),
                    reporter_id=reporter))
        assert [col.sketch.column(c) for c in range(4)] == [(5, 9)] * 4

    def test_compare_swap(self, region):
        assert region.compare_swap(region.addr + 8, 0, 42) == 0
        assert region.compare_swap(region.addr + 8, 0, 99) == 42
        assert word(region, 8) == 42

    def test_index_bounds(self, region):
        end = region.addr + region.length
        with pytest.raises(RemoteAccessError):
            region.read(end, 1)
        with pytest.raises(RemoteAccessError):
            region.write(region.addr - 1, b"x")
        with pytest.raises(IndexError):
            region.local_read(region.length, 1)


class TestAsicConstraints:
    def test_double_access_per_traversal_rejected(self):
        """An access the region's rights do not grant is refused."""
        write_only = ProtectionDomain().register(
            16, access=AccessFlags.REMOTE_WRITE)
        write_only.write(write_only.addr, b"ok")
        with pytest.raises(RemoteAccessError):
            write_only.fetch_add(write_only.addr, 1)
        with pytest.raises(RemoteAccessError):
            write_only.read(write_only.addr, 2)

    def test_begin_packet_rearms(self, region):
        """Invalidation revokes every right; restoring re-grants them."""
        rights = region.invalidate()
        with pytest.raises(RemoteAccessError):
            region.write(region.addr, b"x")
        region.restore(rights)
        region.write(region.addr, b"x")
        assert region.local_read(0, 1) == b"x"

    def test_width_cap(self, region):
        """An atomic is one 8-byte (or 4-byte) word inside the region."""
        last = region.addr + region.length - 4
        with pytest.raises(RemoteAccessError):
            region.fetch_add(last, 1)
        region.fetch_add(last, 1, width=4)
        assert word(region, region.length - 4, width=4) == 1

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            KeyWriteLayout(base_addr=0, slots=0, data_bytes=4)
        with pytest.raises(ValueError):
            AppendLayout(base_addr=0, lists=0, capacity=8, data_bytes=4)
        with pytest.raises(ValueError):
            PostcardCache(slots=0, hops=5)
        with pytest.raises(ValueError):
            MemoryRegion(addr=0, length=8, access=AccessFlags.REMOTE_WRITE,
                         buf=bytearray(4))

    def test_control_plane_bypasses_guard(self, region):
        """The collector's CPU reaches its own memory without remote
        rights: an invalidated region still takes local writes."""
        region.invalidate()
        region.local_write(8, b"\x05")
        assert region.local_read(8, 1) == b"\x05"
        with pytest.raises(RemoteAccessError):
            region.read(region.addr + 8, 1)

    def test_cp_fill(self, region):
        """A CPU-side fill of the whole region is what peers read."""
        region.local_write(0, b"\x03" * region.length)
        assert region.read(region.addr, region.length) == \
            b"\x03" * region.length

    def test_alu_operation_count(self):
        """Key-Increment posts one FETCH_ADD per redundancy row."""
        col, tr = deploy(keyincrement={"slots_per_row": 64, "rows": 4})
        for key in (b"a", b"b"):
            tr.handle_report(make_report(KeyIncrement(key=key, value=1,
                                                      redundancy=4)))
        assert tr.stats.rdma_atomics == 8
        assert col.nic.stats.atomics == 8
        assert tr.stats.rdma_writes == 0

    def test_sram_footprint(self):
        """Every served store registers exactly its layout's bytes."""
        col, _ = deploy(keywrite={"slots": 1024, "data_bytes": 4},
                        append={"lists": 4, "capacity": 32,
                                "data_bytes": 4},
                        keyincrement={"slots_per_row": 64, "rows": 4})
        assert col.keywrite.region.length == 1024 * (4 + 4)
        served = primitives.served(col)
        assert len(served) == 3
        for _primitive, store in served:
            assert store.region.length == store.layout.region_bytes

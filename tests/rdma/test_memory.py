"""Memory regions: registration, access rights, bounds, atomics."""

import pytest

from repro.rdma.memory import (
    AccessFlags,
    MemoryRegion,
    ProtectionDomain,
    RemoteAccessError,
)

ALL = (AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
       | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_ATOMIC)


@pytest.fixture
def pd():
    return ProtectionDomain()


class TestRegistration:
    def test_register_returns_distinct_keys(self, pd):
        a = pd.register(64)
        b = pd.register(64)
        assert a.rkey != b.rkey
        assert a.lkey != a.rkey

    def test_regions_get_distinct_addresses(self, pd):
        a = pd.register(1024)
        b = pd.register(1024)
        assert a.addr != b.addr

    def test_lookup_resolves_rkey(self, pd):
        region = pd.register(64)
        assert pd.lookup(region.rkey) is region

    def test_lookup_unknown_rkey_raises(self, pd):
        with pytest.raises(RemoteAccessError):
            pd.lookup(0xDEAD)

    def test_deregister_invalidates_rkey(self, pd):
        region = pd.register(64)
        region.invalidate()
        with pytest.raises(RemoteAccessError):
            pd.lookup(region.rkey).write(region.addr, b"x")

    def test_len_counts_regions(self, pd):
        pd.register(8)
        pd.register(8)
        assert len(pd) == 2

    def test_backing_buffer_zeroed(self, pd):
        region = pd.register(32)
        assert region.local_read(0, 32) == b"\x00" * 32

    def test_mismatched_buffer_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion(addr=0, length=8, access=ALL, buf=bytearray(4))


class TestDataPath:
    def test_write_then_read(self, pd):
        region = pd.register(64)
        region.write(region.addr + 8, b"hello")
        assert region.read(region.addr + 8, 5) == b"hello"

    def test_write_out_of_bounds_raises(self, pd):
        region = pd.register(16)
        with pytest.raises(RemoteAccessError):
            region.write(region.addr + 12, b"too long")

    def test_write_below_base_raises(self, pd):
        region = pd.register(16)
        with pytest.raises(RemoteAccessError):
            region.write(region.addr - 1, b"x")

    def test_write_without_permission_raises(self, pd):
        region = pd.register(16, access=AccessFlags.REMOTE_READ)
        with pytest.raises(RemoteAccessError):
            region.write(region.addr, b"x")

    def test_read_without_permission_raises(self, pd):
        region = pd.register(16, access=AccessFlags.REMOTE_WRITE)
        with pytest.raises(RemoteAccessError):
            region.read(region.addr, 4)

    def test_fetch_add_returns_old_value(self, pd):
        region = pd.register(16)
        assert region.fetch_add(region.addr, 5) == 0
        assert region.fetch_add(region.addr, 3) == 5
        assert region.fetch_add(region.addr, 0) == 8

    def test_fetch_add_wraps_at_64_bits(self, pd):
        region = pd.register(8)
        region.fetch_add(region.addr, (1 << 64) - 1)
        assert region.fetch_add(region.addr, 2) == (1 << 64) - 1
        # wrapped: old was max, +2 -> 1
        assert region.fetch_add(region.addr, 0) == 1

    def test_fetch_add_without_atomic_permission(self, pd):
        region = pd.register(16, access=AccessFlags.REMOTE_WRITE)
        with pytest.raises(RemoteAccessError):
            region.fetch_add(region.addr, 1)

    def test_compare_swap_success(self, pd):
        region = pd.register(16)
        assert region.compare_swap(region.addr, 0, 42) == 0
        assert region.fetch_add(region.addr, 0) == 42

    def test_compare_swap_failure_leaves_value(self, pd):
        region = pd.register(16)
        region.fetch_add(region.addr, 7)
        assert region.compare_swap(region.addr, 0, 42) == 7
        assert region.fetch_add(region.addr, 0) == 7

    def test_local_read_write(self, pd):
        region = pd.register(16)
        region.local_write(4, b"abcd")
        assert region.local_read(4, 4) == b"abcd"

    def test_local_access_bounds_checked(self, pd):
        region = pd.register(8)
        with pytest.raises(IndexError):
            region.local_read(6, 4)
        with pytest.raises(IndexError):
            region.local_write(6, b"wxyz")

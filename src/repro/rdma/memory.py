"""Registered memory regions, protection domains, and access checking.

Models the subset of the verbs memory API that DTA's collector service
uses: allocate a buffer, register it in a protection domain with access
flags, and hand the resulting rkey to the remote writer (the translator).
All remote accesses are bounds- and rights-checked exactly like a real
HCA would, raising :class:`RemoteAccessError` on violation.
"""

from __future__ import annotations

import enum
import itertools
import struct
from dataclasses import dataclass, field


class AccessFlags(enum.IntFlag):
    """Access rights for a registered memory region (``IBV_ACCESS_*``)."""

    LOCAL_WRITE = 0x1
    REMOTE_WRITE = 0x2
    REMOTE_READ = 0x4
    REMOTE_ATOMIC = 0x8


#: The rights a remote verb needs, as plain ints: the per-verb check is
#: one integer ``&`` against :attr:`MemoryRegion.rights`, not a call
#: into ``enum``.
REMOTE_WRITE = int(AccessFlags.REMOTE_WRITE)
REMOTE_READ = int(AccessFlags.REMOTE_READ)
REMOTE_ATOMIC = int(AccessFlags.REMOTE_ATOMIC)


class RemoteAccessError(Exception):
    """A remote operation touched memory it may not (bad rkey, bounds,
    or missing access rights).  On real hardware this tears down the QP
    with ``IBV_WC_REM_ACCESS_ERR``."""


_key_counter = itertools.count(0x1000)


@dataclass
class MemoryRegion:
    """A contiguous, registered buffer addressable by remote peers.

    Attributes:
        addr: Base virtual address advertised to peers.
        length: Region size in bytes.
        lkey / rkey: Local / remote protection keys.
        access: Granted access rights; change them through
            :meth:`invalidate` / :meth:`restore`, which keep
            :attr:`rights` in step.
        buf: The backing bytearray.
        rights: ``int(access)``, what the data path checks.
    """

    addr: int
    length: int
    access: AccessFlags
    lkey: int = field(default_factory=_key_counter.__next__)
    rkey: int = field(default_factory=_key_counter.__next__)
    buf: bytearray = field(default=None, repr=False)  # type: ignore[assignment]
    rights: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rights = int(self.access)
        if self.buf is None:
            self.buf = bytearray(self.length)
        if len(self.buf) != self.length:
            raise ValueError("backing buffer does not match region length")

    # -- bounds ------------------------------------------------------------

    def _check(self, addr: int, length: int, needed: int) -> int:
        if not self.rights & needed:
            raise RemoteAccessError(
                f"region rkey={self.rkey:#x} lacks {AccessFlags(needed)!r}")
        offset = addr - self.addr
        if offset < 0 or offset + length > self.length:
            raise RemoteAccessError(
                f"access [{addr:#x}, +{length}) outside region "
                f"[{self.addr:#x}, +{self.length})")
        return offset

    # -- data path ---------------------------------------------------------

    def write(self, addr: int, data: bytes) -> None:
        """Remote-write ``data`` at virtual address ``addr``."""
        offset = self._check(addr, len(data), REMOTE_WRITE)
        self.buf[offset:offset + len(data)] = data

    def read(self, addr: int, length: int) -> bytes:
        """Remote-read ``length`` bytes at virtual address ``addr``."""
        offset = self._check(addr, length, REMOTE_READ)
        return bytes(self.buf[offset:offset + length])

    def fetch_add(self, addr: int, value: int, width: int = 8) -> int:
        """Atomic fetch-and-add of ``value``; returns the prior value.

        RDMA atomics operate on 64-bit words; DTA's Key-Increment uses
        them for counter aggregation.  ``width`` is configurable because
        the simulator also supports 4-byte counters for compactness.
        """
        offset = self._check(addr, width, REMOTE_ATOMIC)
        fmt = "<Q" if width == 8 else "<I"
        mask = (1 << (8 * width)) - 1
        (old,) = struct.unpack_from(fmt, self.buf, offset)
        struct.pack_into(fmt, self.buf, offset, (old + value) & mask)
        return old

    def compare_swap(self, addr: int, expected: int, desired: int,
                     width: int = 8) -> int:
        """Atomic compare-and-swap; returns the prior value."""
        offset = self._check(addr, width, REMOTE_ATOMIC)
        fmt = "<Q" if width == 8 else "<I"
        (old,) = struct.unpack_from(fmt, self.buf, offset)
        if old == expected:
            struct.pack_into(fmt, self.buf, offset, desired)
        return old

    # -- fault injection -----------------------------------------------------

    def invalidate(self) -> AccessFlags:
        """Revoke every access right (MR invalidation fault).

        Remote operations now raise :class:`RemoteAccessError` — the
        NIC turns them into fatal NAKs that error the QP — until
        :meth:`restore` re-grants the rights.  Returns the rights in
        force before invalidation, for the eventual restore.
        """
        revoked = self.access
        self.access = AccessFlags(0)
        self.rights = 0
        return revoked

    def restore(self, access: AccessFlags) -> None:
        """Re-grant rights revoked by :meth:`invalidate`.

        Models the collector re-registering the region and the
        controller redistributing the (unchanged) rkey.
        """
        self.access = access
        self.rights = int(access)

    # -- local convenience ---------------------------------------------------

    def local_read(self, offset: int, length: int) -> bytes:
        """CPU-side read (the collector polling its own memory)."""
        if offset < 0 or offset + length > self.length:
            raise IndexError("local read outside region")
        return bytes(self.buf[offset:offset + length])

    def local_write(self, offset: int, data: bytes) -> None:
        """CPU-side write (e.g. zeroing / resetting structures)."""
        if offset < 0 or offset + len(data) > self.length:
            raise IndexError("local write outside region")
        self.buf[offset:offset + len(data)] = data


class ProtectionDomain:
    """Groups memory regions; remote keys are resolved within a PD."""

    _next_addr = itertools.count(0x10_0000_0000, 0x1_0000_0000)

    def __init__(self) -> None:
        self._regions: dict[int, MemoryRegion] = {}
        #: Optional ``callable(length) -> writable buffer`` consulted by
        #: :meth:`register` when no explicit buffer is passed.  The
        #: deployment lane (:mod:`repro.transport`) points this at
        #: ``multiprocessing.shared_memory`` segments so registered
        #: collector stores live in memory other processes can map —
        #: the software analogue of ``ibv_reg_mr`` pinning user pages.
        self.buffer_factory = None

    def register(self, length: int,
                 access: AccessFlags = (AccessFlags.LOCAL_WRITE
                                        | AccessFlags.REMOTE_WRITE
                                        | AccessFlags.REMOTE_READ
                                        | AccessFlags.REMOTE_ATOMIC),
                 addr: int | None = None,
                 buf=None) -> MemoryRegion:
        """Register a region of ``length`` bytes (``ibv_reg_mr``).

        ``buf`` (or, failing that, :attr:`buffer_factory`) supplies the
        backing buffer — any writable bytes-like of exactly ``length``
        bytes; by default a fresh zeroed ``bytearray`` is allocated.
        """
        if addr is None:
            addr = next(self._next_addr)
        if buf is None and self.buffer_factory is not None:
            buf = self.buffer_factory(length)
        region = MemoryRegion(addr=addr, length=length, access=access,
                              buf=buf)
        self._regions[region.rkey] = region
        return region

    def lookup(self, rkey: int) -> MemoryRegion:
        """Resolve an rkey; raises :class:`RemoteAccessError` if stale."""
        try:
            return self._regions[rkey]
        except KeyError:
            raise RemoteAccessError(f"unknown rkey {rkey:#x}") from None

    def __iter__(self):
        return iter(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)

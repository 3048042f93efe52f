"""Epoch-consistent snapshots of collector store memory.

The DTA data plane writes collector memory continuously — under the
streaming runtime, from a dedicated execute-stage thread.  A reader
that walks slot memory while a burst is landing could see half of a
batch's writes, which is exactly the torn read Confluo's atomic
multilog exists to prevent.  This module gives the reproduction the
same guarantee with one mechanism: :func:`snapshot_of` captures a
frozen copy of every served store region, and the streaming engine
exposes it only at *batch boundaries* (see
:meth:`repro.runtime.engine.StreamEngine.snapshot`), so a snapshot is
always the state after some prefix of fully applied bursts.

The copy is cheap — one memcpy per served region, no re-hashing, no
decode — and the snapshot reuses the live store *classes* over the
frozen regions, so every query the collector can answer, the snapshot
answers identically.  Thousands of readers can then run plans against
their snapshots with zero coordination: nothing they hold is ever
mutated again.

One snapshot *is* mutated again, by its owner: a
:class:`~repro.queries.engine.QueryEngine` over a stream engine keeps
the snapshot it took and hands it back as ``into=`` every tick, and
:func:`snapshot_of` refreshes it in place — same buffers, new bytes,
under the same store lock.  That view is valid until the next refresh;
its ``batch_seq`` moves when its bytes do.  The buffers are anonymous
mappings the kernel hands over already faulted in, so the first copy
and every later one cost the memcpy and nothing that depends on what
the allocator did with the previous tick's memory.
"""

from __future__ import annotations

import copy
import mmap

from repro.core import primitives
from repro.rdma.memory import MemoryRegion


def _resident_buffer(length: int):
    """``length`` writable bytes whose pages are already mapped in.

    ``MAP_POPULATE`` faults the whole mapping in one call; where the
    platform lacks it the first copy into a plain anonymous mapping
    does, a page at a time.
    """
    if hasattr(mmap, "MAP_POPULATE"):
        return mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE
                         | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE)
    return mmap.mmap(-1, length)


def _freeze_region(region: MemoryRegion,
                   into: MemoryRegion | None = None) -> MemoryRegion:
    """An immutable-by-convention copy of a registered region.

    Same address/keys/rights (layout arithmetic and digests stay
    valid), own backing buffer — the one memcpy a snapshot costs.
    ``into`` is an earlier copy of the same region to overwrite.
    """
    if into is None or (into.addr, into.length) != (region.addr,
                                                    region.length):
        into = MemoryRegion(addr=region.addr, length=region.length,
                            access=region.access, lkey=region.lkey,
                            rkey=region.rkey,
                            buf=_resident_buffer(region.length))
    into.buf[:] = region.buf
    return into


def _freeze_store(store, into=None):
    """Clone a store object onto a frozen copy of its region.

    Shallow-copies the store (layout objects are immutable and shared),
    swaps in the frozen region — the one ``into``, an earlier clone of
    this store, already holds, when there is one — and resets the
    store's query counters so reads against the snapshot never race the
    live store's accounting.
    """
    frozen = copy.copy(store)
    frozen.region = _freeze_region(store.region,
                                   getattr(into, "region", None))
    frozen.reset_stats()
    return frozen


class CollectorSnapshot:
    """A frozen, queryable view of one collector's served stores.

    Nothing assigns to a snapshot except :func:`snapshot_of` refreshing
    the one its caller passed back as ``into``.

    Attributes:
        name: The collector the snapshot was taken from.
        batch_seq: Under the streaming runtime, the sequence number of
            the last burst fully applied before the snapshot (``None``
            when the snapshot was taken outside a stream, or before
            any burst has been applied).  Two snapshots with equal
            ``batch_seq`` taken from a quiesced stream are bit-equal.
        keywrite / keyincrement / ...: One per
            ``primitives.REGISTRY`` store — the frozen store view
            (``None`` where the service was never provisioned),
            answering the exact same query API as the live store.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.batch_seq: int | None = None
        for store in primitives.STORES:
            setattr(self, store, None)
        self._digest: list = []

    # -- Collector-compatible query surface -----------------------------

    def query_value(self, key: bytes, *, redundancy: int | None = None,
                    consensus: int = 1):
        if self.keywrite is None:
            raise RuntimeError("key-write service not in snapshot")
        return self.keywrite.query(key, redundancy=redundancy,
                                   consensus=consensus)

    def query_counter(self, key: bytes, *,
                      redundancy: int | None = None) -> int:
        if self.keyincrement is None:
            raise RuntimeError("key-increment service not in snapshot")
        return self.keyincrement.query(key, redundancy=redundancy)

    def query_path(self, key: bytes, *, redundancy: int = 1):
        if self.postcarding is None:
            raise RuntimeError("postcarding service not in snapshot")
        return self.postcarding.query(key, redundancy=redundancy)

    def list_poller(self, list_id: int):
        if self.append is None:
            raise RuntimeError("append service not in snapshot")
        return self.append.poller(list_id)

    def store_digest(self) -> str:
        """The SHA-256 ``store_digest`` the runtime differentials compare.

        A snapshot taken from a quiesced deployment digests identically
        to the live collector — the property the differential suite
        leans on.  Memoized until the snapshot is refreshed, if it ever is.
        """
        from repro.runtime.engine import store_digest

        if not self._digest:
            self._digest.append(store_digest(self))
        return self._digest[0]


def snapshot_of(collector, *, batch_seq: int | None = None,
                into: CollectorSnapshot | None = None
                ) -> CollectorSnapshot:
    """Capture a :class:`CollectorSnapshot` of every served store.

    The caller is responsible for quiescence: either no writer is
    running (serial deployments between sends), or the streaming
    engine's store lock is held (what
    :meth:`~repro.runtime.engine.StreamEngine.snapshot` does).

    ``into`` is a snapshot this function returned for the same
    collector and the caller alone still reads: it is refreshed in
    place — region bytes copied over the buffers it already owns,
    counters reset, ``batch_seq`` advanced, digest memo cleared — and
    returned.  Every array view of its regions shows the new bytes
    from then on.
    """
    snapshot = into or CollectorSnapshot(getattr(collector, "name",
                                                 "collector"))
    for primitive, store in primitives.served(collector):
        setattr(snapshot, primitive.store,
                _freeze_store(store, getattr(snapshot, primitive.store)))
    snapshot.batch_seq = batch_seq
    snapshot._digest.clear()
    return snapshot

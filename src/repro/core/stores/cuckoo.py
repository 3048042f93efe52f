"""A translator-managed cuckoo hash table in collector memory.

Section 6 ("Enhanced data aggregation at switch"): "If we grant to the
translator the ability to *read* the collector's memory via RDMA
calls, then more aggressive data aggregation capabilities can be
implemented.  For example, we could directly manage from the translator
a cuckoo hash table located in the collector."

This module implements that future-work design so the trade-off can be
measured: exact key-value storage (no probabilistic overwrites, no
checksum false positives) in exchange for RDMA *reads* on the insert
path, multiple round trips on displacement chains, and a strict
single-writer requirement — the costs that made Key-Write the paper's
default.

Layout: ``buckets`` two-slot buckets; a key hashes to two candidate
buckets (h1, h2); each slot stores ``key_len | key | value`` with
key_len = 0 marking an empty slot.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core import primitives
from repro.rdma.verbs import Opcode, WorkRequest
from repro.switch.crc import hash_family

SLOTS_PER_BUCKET = 2
_LEN_FMT = ">B"


@dataclass(frozen=True)
class CuckooLayout:
    """Address/encoding arithmetic for the cuckoo region."""

    base_addr: int
    buckets: int
    key_bytes: int
    value_bytes: int

    def __post_init__(self) -> None:
        if self.buckets < 2:
            raise ValueError("need at least two buckets")
        if self.key_bytes <= 0 or self.value_bytes <= 0:
            raise ValueError("key/value widths must be positive")
        object.__setattr__(self, "_hashes", tuple(hash_family(2)))

    @property
    def slot_bytes(self) -> int:
        return 1 + self.key_bytes + self.value_bytes

    @property
    def bucket_bytes(self) -> int:
        return SLOTS_PER_BUCKET * self.slot_bytes

    @property
    def region_bytes(self) -> int:
        return self.buckets * self.bucket_bytes

    def bucket_index(self, which: int, key: bytes) -> int:
        """The key's first (0) or alternate (1) candidate bucket."""
        return self._hashes[which](key) % self.buckets

    def alternate(self, key: bytes, bucket: int) -> int:
        """The other candidate bucket given one of them."""
        first = self.bucket_index(0, key)
        second = self.bucket_index(1, key)
        return second if bucket == first else first

    def bucket_addr(self, bucket: int) -> int:
        if not 0 <= bucket < self.buckets:
            raise IndexError("bucket out of range")
        return self.base_addr + bucket * self.bucket_bytes

    def encode_slot(self, key: bytes, value: bytes) -> bytes:
        if len(key) != self.key_bytes:
            raise ValueError(f"key must be exactly {self.key_bytes}B")
        if len(value) > self.value_bytes:
            raise ValueError("value too wide")
        return struct.pack(_LEN_FMT, len(key)) + key \
            + value.ljust(self.value_bytes, b"\x00")

    def decode_slot(self, raw: bytes) -> tuple | None:
        """(key, value) or None for an empty slot."""
        (key_len,) = struct.unpack_from(_LEN_FMT, raw)
        if key_len == 0:
            return None
        key = raw[1:1 + self.key_bytes]
        value = raw[1 + self.key_bytes:self.slot_bytes]
        return key, value


class CuckooStore(primitives.Store):
    """Collector-side exact-match queries over the cuckoo region."""

    def query(self, key: bytes) -> bytes | None:
        """Exact lookup: at most two bucket reads, no false positives."""
        layout = self.layout
        for which in (0, 1):
            bucket = layout.bucket_index(which, key)
            offset = bucket * layout.bucket_bytes
            raw = self.region.local_read(offset, layout.bucket_bytes)
            for slot in range(SLOTS_PER_BUCKET):
                entry = layout.decode_slot(
                    raw[slot * layout.slot_bytes:
                        (slot + 1) * layout.slot_bytes])
                if entry is not None and entry[0] == key:
                    return entry[1]
        return None

    def occupancy(self) -> int:
        """Number of stored entries (full scan; diagnostics only)."""
        count = 0
        layout = self.layout
        for bucket in range(layout.buckets):
            raw = self.region.local_read(bucket * layout.bucket_bytes,
                                         layout.bucket_bytes)
            for slot in range(SLOTS_PER_BUCKET):
                if layout.decode_slot(
                        raw[slot * layout.slot_bytes:
                            (slot + 1) * layout.slot_bytes]) is not None:
                    count += 1
        return count


@dataclass
class CuckooStats:
    """RDMA cost accounting for the insert path."""

    inserts: int = 0
    updates: int = 0
    failures: int = 0
    rdma_reads: int = 0
    rdma_writes: int = 0
    displacements: int = 0

    @property
    def ops_per_insert(self) -> float:
        done = self.inserts + self.updates + self.failures
        if not done:
            return 0.0
        return (self.rdma_reads + self.rdma_writes) / done


class CuckooManager:
    """Translator-side cuckoo insertion over RDMA READ/WRITE.

    Args:
        client: The translator's RDMA client (requester QP).  Reads are
            synchronous in direct mode: the completion (with data) is
            available immediately after posting.
        layout: Shared layout.
        rkey: The region's remote key.
        max_kicks: Displacement chain bound before declaring failure.
    """

    def __init__(self, client, layout: CuckooLayout, rkey: int,
                 max_kicks: int = 32) -> None:
        self.client = client
        self.layout = layout
        self.rkey = rkey
        self.max_kicks = max_kicks
        self.stats = CuckooStats()

    # -- synchronous RDMA helpers -----------------------------------------

    def _read_bucket(self, bucket: int) -> bytes:
        self.client.post(WorkRequest(
            opcode=Opcode.READ,
            remote_addr=self.layout.bucket_addr(bucket),
            rkey=self.rkey, length=self.layout.bucket_bytes))
        self.stats.rdma_reads += 1
        completions = self.client.drain_completions()
        if not completions or not completions[-1].ok:
            raise RuntimeError("RDMA read failed")
        return completions[-1].data

    def _write_slot(self, bucket: int, slot: int, payload: bytes) -> None:
        addr = self.layout.bucket_addr(bucket) \
            + slot * self.layout.slot_bytes
        self.client.post(WorkRequest(opcode=Opcode.WRITE,
                                     remote_addr=addr, rkey=self.rkey,
                                     data=payload))
        self.stats.rdma_writes += 1
        self.client.drain_completions()

    # -- insertion ------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert or update exactly; returns False on table-full.

        Classic cuckoo: try both candidate buckets; on conflict, evict
        a resident entry to its alternate bucket, chaining up to
        ``max_kicks`` displacements.
        """
        layout = self.layout
        payload = layout.encode_slot(key, value)

        # Update-in-place or empty-slot insert in either bucket.
        for which in (0, 1):
            bucket = layout.bucket_index(which, key)
            raw = self._read_bucket(bucket)
            for slot in range(SLOTS_PER_BUCKET):
                entry = layout.decode_slot(
                    raw[slot * layout.slot_bytes:
                        (slot + 1) * layout.slot_bytes])
                if entry is not None and entry[0] == key:
                    self._write_slot(bucket, slot, payload)
                    self.stats.updates += 1
                    return True
                if entry is None:
                    self._write_slot(bucket, slot, payload)
                    self.stats.inserts += 1
                    return True

        # Both full: displacement chain from the first bucket.
        bucket = layout.bucket_index(0, key)
        carried_key, carried_payload = key, payload
        for kick in range(self.max_kicks):
            raw = self._read_bucket(bucket)
            victim_slot = kick % SLOTS_PER_BUCKET
            victim = layout.decode_slot(
                raw[victim_slot * layout.slot_bytes:
                    (victim_slot + 1) * layout.slot_bytes])
            self._write_slot(bucket, victim_slot, carried_payload)
            self.stats.displacements += 1
            if victim is None:
                self.stats.inserts += 1
                return True
            carried_key = victim[0]
            carried_payload = layout.encode_slot(victim[0], victim[1])
            bucket = layout.alternate(carried_key, bucket)
            # Try an empty slot in the victim's alternate bucket first.
            raw = self._read_bucket(bucket)
            for slot in range(SLOTS_PER_BUCKET):
                if layout.decode_slot(
                        raw[slot * layout.slot_bytes:
                            (slot + 1) * layout.slot_bytes]) is None:
                    self._write_slot(bucket, slot, carried_payload)
                    self.stats.inserts += 1
                    return True
        self.stats.failures += 1
        return False

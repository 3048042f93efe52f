"""The Key-Write store: a write-only-friendly probabilistic key-value map.

Algorithm (Section 3.2, Appendix A.1): a key's report is written to N
slots chosen by N global hash functions; each slot holds the 4-byte CRC
checksum of the key next to the value.  Queries recompute the N slots,
keep candidates whose checksum matches, and return the plurality value
(optionally requiring a consensus threshold T).  Collisions overwrite
freely — redundancy plus checksums turn that into a bounded, analysable
error probability (Appendix A.6 / :mod:`repro.core.analysis`).
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import calibration
from repro.core import primitives
from repro.kernels import crc as kcrc
from repro.rdma.verbs import Opcode, WorkRequest
from repro.switch.crc import hash_family

CHECKSUM_BYTES = calibration.DEFAULT_CHECKSUM_BITS // 8
MAX_REDUNDANCY = 16


@dataclass(frozen=True)
class KeyWriteLayout:
    """Address/encoding arithmetic for a Key-Write region.

    Attributes:
        base_addr: Virtual address of slot 0.
        slots: M, the number of key-value slots.
        data_bytes: Value width (e.g. 4 for single INT postcards, 20 for
            a full 5-hop path).
    """

    base_addr: int
    slots: int
    data_bytes: int

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ValueError("need at least one slot")
        if self.data_bytes <= 0:
            raise ValueError("data_bytes must be positive")
        # Hash functions are derived deterministically, so translator and
        # collector instances agree without coordination ("global hash
        # functions", Section 3.2).
        object.__setattr__(self, "_slot_hashes",
                           tuple(hash_family(MAX_REDUNDANCY)))
        object.__setattr__(self, "_csum_hash",
                           hash_family(MAX_REDUNDANCY + 1)[-1])

    @property
    def slot_bytes(self) -> int:
        return CHECKSUM_BYTES + self.data_bytes

    @property
    def region_bytes(self) -> int:
        return self.slots * self.slot_bytes

    def slot_index(self, n: int, key: bytes) -> int:
        """The n'th redundancy slot of ``key`` (0-based n)."""
        return self._slot_hashes[n](key) % self.slots

    def slot_addr(self, n: int, key: bytes) -> int:
        return self.base_addr + self.slot_index(n, key) * self.slot_bytes

    def slot_addrs(self, key: bytes, redundancy: int) -> list:
        """All N slot addresses of ``key`` in one hash pass.

        Hot-path form of ``[slot_addr(n, key) for n in range(N)]``:
        attribute lookups are hoisted so the batched Key-Write lane pays
        only the N hash evaluations per key.
        """
        base = self.base_addr
        slots = self.slots
        width = self.slot_bytes
        return [base + (h(key) % slots) * width
                for h in self._slot_hashes[:redundancy]]

    def checksum(self, key: bytes) -> int:
        """The 32-bit key checksum stored alongside each value."""
        return self._csum_hash(key)

    def encode_entry(self, key: bytes, data: bytes) -> bytes:
        """Wire payload of one slot: checksum || value (padded)."""
        if len(data) > self.data_bytes:
            raise ValueError(
                f"data ({len(data)}B) exceeds slot value width "
                f"({self.data_bytes}B)")
        padded = data.ljust(self.data_bytes, b"\x00")
        return struct.pack(">I", self.checksum(key)) + padded

    def decode_entry(self, raw: bytes) -> tuple[int, bytes]:
        """Split a slot into (checksum, value bytes)."""
        (csum,) = struct.unpack_from(">I", raw)
        return csum, raw[CHECKSUM_BYTES:CHECKSUM_BYTES + self.data_bytes]

    # -- vectorized twins (numpy-gated; see repro.kernels) ---------------

    def probes_many(self, packed, lengths, redundancy: int):
        """What a query — or a write plan — needs of a packed key
        batch, in one hash pass: ``(slots, checksums)``.

        ``slots`` is ``(redundancy, n)`` int64, row ``r`` each key's
        :meth:`slot_index` at ``r`` (``hash_family`` lane ``r``);
        ``checksums`` the keys' :meth:`checksum` (lane
        ``MAX_REDUNDANCY``), uint32.
        """
        lanes = kcrc.hash_lanes_at((*range(redundancy), MAX_REDUNDANCY),
                                   packed, lengths)
        slots = (lanes[:-1] % np.uint32(self.slots)).astype(np.int64)
        return slots, lanes[-1]

    def encode_entries_packed(self, packed_data, checksums):
        """Encode a whole batch of slot entries: ``(n, slot_bytes)`` uint8.

        Row ``i`` is byte-identical to ``encode_entry(keys[i],
        datas[i])`` — big-endian checksum followed by the zero-padded
        value.  ``checksums`` is :meth:`probes_many`'s; ``packed_data``
        must be ``(n, data_bytes)`` uint8 with values zero-padded on
        the right (length validation is the caller's job).  This is the
        form the shared-memory plan workers consume — the data column
        crosses the process boundary as one matrix, no per-value Python
        objects.
        """
        n = len(checksums)
        entries = np.empty((n, self.slot_bytes), dtype=np.uint8)
        entries[:, :CHECKSUM_BYTES] = (
            checksums.astype(">u4").view(np.uint8).reshape(n, CHECKSUM_BYTES))
        entries[:, CHECKSUM_BYTES:] = packed_data
        return entries


@dataclass
class QueryStats:
    """Instrumentation for the Fig. 9 query-cost model."""

    queries: int = 0
    slot_hashes: int = 0
    checksum_hashes: int = 0
    memory_reads: int = 0
    hits: int = 0
    empty_returns: int = 0

    def modelled_time_ns(self) -> float:
        """Total modelled CPU time for the recorded work."""
        return (self.slot_hashes * calibration.QUERY_T_CRC_SLOT_NS
                + self.checksum_hashes * calibration.QUERY_T_CRC_CSUM_NS
                + self.memory_reads * calibration.QUERY_T_MEM_READ_NS
                + self.queries * calibration.QUERY_T_OVERHEAD_NS)

    def modelled_rate(self, cores: int = 1) -> float:
        """Queries/s implied by the cost model on ``cores`` cores."""
        if self.queries == 0:
            return 0.0
        per_query_ns = self.modelled_time_ns() / self.queries
        return cores * 1e9 / per_query_ns

    def breakdown(self) -> dict:
        """Share of modelled time per component (Fig. 9b)."""
        total = self.modelled_time_ns()
        if total == 0:
            return {}
        return {
            "get_slot": self.slot_hashes
            * calibration.QUERY_T_CRC_SLOT_NS / total,
            "checksum": self.checksum_hashes
            * calibration.QUERY_T_CRC_CSUM_NS / total,
            "memory_read": self.memory_reads
            * calibration.QUERY_T_MEM_READ_NS / total,
            "other": self.queries
            * calibration.QUERY_T_OVERHEAD_NS / total,
        }


@dataclass
class QueryResult:
    """Outcome of one Key-Write query."""

    key: bytes
    value: bytes | None
    candidates: list = field(default_factory=list)
    matched_slots: int = 0

    @property
    def found(self) -> bool:
        return self.value is not None


class KeyWriteStore(primitives.Store):
    """Collector-side view of a Key-Write region: queries only.

    The store never writes telemetry itself — inserts arrive via the
    translator's RDMA writes into ``region``.  (A ``local_insert``
    helper exists for unit tests and analysis runs that bypass the
    transport.)
    """

    def query(self, key: bytes, *, redundancy: int | None = None,
              consensus: int = 1) -> QueryResult:
        """Look up ``key`` (Algorithm 2).

        Args:
            key: The telemetry key.
            redundancy: N used at report time; when unknown the paper
                says to assume the maximum deployed level — defaults to
                the configured default redundancy.
            consensus: T, minimum candidate multiplicity to answer.
                T=1 is a plurality vote; T=2 trades empty returns for
                fewer wrong returns (Appendix A.6).
        """
        n_slots = redundancy or calibration.DEFAULT_REDUNDANCY
        layout = self.layout
        stats = self.stats
        stats.queries += 1

        expected = layout.checksum(key)
        stats.checksum_hashes += 1

        candidates: list[bytes] = []
        for n in range(n_slots):
            offset = layout.slot_index(n, key) * layout.slot_bytes
            stats.slot_hashes += 1
            raw = self.region.local_read(offset, layout.slot_bytes)
            stats.memory_reads += 1
            csum, value = layout.decode_entry(raw)
            if csum == expected:
                candidates.append(value)

        result = QueryResult(key=key, value=None, candidates=candidates,
                             matched_slots=len(candidates))
        if candidates:
            (value, count), *rest = Counter(candidates).most_common()
            tied = rest and rest[0][1] == count
            if count >= consensus and not tied:
                result.value = value
        if result.found:
            stats.hits += 1
        else:
            stats.empty_returns += 1
        return result

    def query_many(self, keys, *, redundancy: int | None = None,
                   consensus: int = 1, packed=None) -> tuple:
        """:meth:`query` for a whole key batch, as columns.

        Returns ``(found, values, matched)``, numpy columns in key
        order: ``found`` (bool) is each key's ``query(key).found``,
        ``values`` (``V{data_bytes}``; ``tolist()`` gives bytes) its
        ``value`` where found and zero bytes elsewhere, ``matched``
        (int) its ``matched_slots``.  :attr:`stats` is charged exactly
        what the :meth:`query` loop charges.  No per-key object is
        built: the candidate lists stay the scalar oracle's.

        The N slot lanes and the checksum lane run once over the packed
        batch (``packed`` is an optional ``kernels.crc.pack_keys(keys)``
        pair for callers that probe the same keys repeatedly), the N x n
        slots are read with one fancy index, and the plurality vote is
        array arithmetic for any N and consensus T.
        """
        n_slots = redundancy or calibration.DEFAULT_REDUNDANCY
        if not 0 < n_slots <= MAX_REDUNDANCY:
            raise ValueError(f"redundancy {n_slots} outside "
                             f"1..{MAX_REDUNDANCY}")
        count = len(keys)
        layout = self.layout
        matrix, lengths = packed if packed is not None \
            else kcrc.pack_keys(keys)
        indices, expected = layout.probes_many(matrix, lengths, n_slots)
        table = np.frombuffer(self.region.buf, count=layout.slots, dtype=[
            ("checksum", ">u4"), ("value", f"V{layout.data_bytes}")])
        slots = table[indices]                      # (N, n), a copy
        value = slots["value"]
        matched = slots["checksum"] == expected
        # same[a, b, k]: slots a and b of key k are both candidates
        # and hold the same value; summed over b that is the count
        # ``Counter(candidates)`` gives slot a's value.
        same = np.empty((n_slots, n_slots, count), dtype=bool)
        for a in range(n_slots):
            same[a, a] = matched[a]
            for b in range(a + 1, n_slots):
                same[a, b] = same[b, a] = (matched[a] & matched[b]
                                           & (value[a] == value[b]))
        votes = same.sum(axis=1)
        best = votes.max(axis=0)
        # A plurality of ``best`` equal values is exactly ``best`` slots
        # voting ``best``; more of them means another value ties it.
        found = ((best >= max(consensus, 1))
                 & ((votes == best).sum(axis=0) == best))
        winner = votes.argmax(axis=0)       # first slot of the plurality
        values = value[winner, np.arange(count)]
        values[~found] = bytes(layout.data_bytes)

        stats = self.stats
        answered = int(found.sum())
        stats.queries += count
        stats.checksum_hashes += count
        stats.slot_hashes += count * n_slots
        stats.memory_reads += count * n_slots
        stats.hits += answered
        stats.empty_returns += count - answered
        return found, values, matched.sum(axis=0)

    def local_insert(self, key: bytes, data: bytes,
                     redundancy: int = calibration.DEFAULT_REDUNDANCY
                     ) -> None:
        """Testing/analysis helper: insert without the RDMA path."""
        entry = self.layout.encode_entry(key, data)
        for n in range(redundancy):
            offset = self.layout.slot_index(n, key) * self.layout.slot_bytes
            self.region.local_write(offset, entry)

    def reset_stats(self) -> None:
        self.stats = QueryStats()


#: The collector side (``primitives.Primitive.home``).
LAYOUT, STORE = KeyWriteLayout, KeyWriteStore
TRACKER = primitives.Tracker("slots", cells="slots", cell_bytes="slot_bytes")


def plan_keywrite_packed(layout, packed, lengths, packed_data,
                         redundancy: int, region_length: int):
    """Pure Key-Write scatter plan: ``(row_indices, rows)`` or None.

    ``layout`` is a :class:`KeyWriteLayout`; ``packed``/``lengths`` the
    packed key matrix (or the keys and None); ``packed_data`` the
    ``(n, data_bytes)`` zero-padded value matrix (lengths already
    validated by the caller); ``region_length`` the byte length of the
    RDMA region the plan will be bounds-checked against.  Touches no
    translator or store state.
    """
    if layout.region_bytes > region_length:
        return None      # same bounds check write_rows would fail
    # One hash pass: the N slot lanes and the checksum lane together.
    slot_idx, checksums = layout.probes_many(packed, lengths, redundancy)
    entries = layout.encode_entries_packed(packed_data, checksums)
    # Key-major flattening preserves arrival order, which the
    # scatter's last-write-wins dedup relies on.
    return slot_idx.T.reshape(-1), entries.repeat(redundancy, axis=0)


class KeyWriteLane(primitives.ColumnLane):
    """Key-Write at the translator: stateless N-way fan-out (the
    multicast technique: one report becomes N identical writes at N
    hash locations)."""

    __slots__ = ()
    primitive = primitives.KEY_WRITE
    value_dtype = "u1"
    kernel = staticmethod(plan_keywrite_packed)

    @property
    def stride(self) -> int:
        return self.layout.slot_bytes

    def _too_wide(self, width: int):
        if width > self.layout.data_bytes:
            return ValueError(f"data ({width}B) exceeds slot value width "
                              f"({self.layout.data_bytes}B)")
        return None

    def check(self, cols, extra):
        return self._too_wide(max(map(len, cols[1])))

    def scalar(self, cols, redundancy, reporter_id, control) -> list:
        layout, rkey = self.layout, self.rkey
        encode = layout.encode_entry
        slot_addrs = layout.slot_addrs
        wrs = []
        append = wrs.append
        for key, data in zip(*cols):
            entry = encode(key, data)
            for addr in slot_addrs(key, redundancy):
                append(WorkRequest(opcode=Opcode.WRITE, remote_addr=addr,
                                   rkey=rkey, data=entry, signaled=False))
        return wrs

    def matrix(self, datas):
        return kcrc.pack_keys(datas)[0]

    def normalise(self, third, redundancy: int):
        width = third.shape[1]
        if self._too_wide(width) is not None:
            return None
        if width < self.layout.data_bytes:
            padded = np.zeros((len(third), self.layout.data_bytes),
                              dtype=np.uint8)
            padded[:, :width] = third
            third = padded
        return third, redundancy


#: The translator side (``primitives.Primitive.home``).
LANE = KeyWriteLane

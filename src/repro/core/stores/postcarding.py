"""The Postcarding store: per-flow hop-indexed chunks of encoded postcards.

Section 3.2 ("Postcarding"): memory is divided into C chunks of B slots.
The i'th postcard of flow x goes to slot ``B*h_j(x) + i`` (one chunk per
redundancy level j), so a full path report is one contiguous write and
one random read.  Each slot stores ``checksum(x, i) XOR g(v)`` where g
maps values into b bits; queries decode by XORing the checksum back out
and looking the result up in a pre-populated ``{g(v): v}`` table.  A
"blank" sentinel fills hops beyond the path length so every chunk is
fully written, minimising hash-collision false positives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from itertools import chain

from repro import calibration
from repro.core import primitives
from repro.core.postcard_cache import PostcardCache
from repro.kernels import crc as kcrc
from repro.rdma.memory import MemoryRegion
from repro.rdma.verbs import Opcode, WorkRequest
from repro.switch.crc import hash_family

BLANK = None
"""The "⊔" value marking hops that were not collected."""

_BLANK_TOKEN = b"\xff\xfe__dta_blank__"

#: ``hash_family`` lanes ``0 .. CHUNK_LANES-1`` pick the chunks; the
#: per-hop checksum lanes follow them.
CHUNK_LANES = 8


@dataclass(frozen=True)
class PostcardingLayout:
    """Address/encoding arithmetic for a Postcarding region.

    Attributes:
        base_addr: Virtual address of chunk 0.
        chunks: C, the number of per-flow chunks.
        hops: B, the slots per chunk (bound on path length).
        slot_bits: b, the encoded width per slot (32 in the hardware
            implementation; smaller b trades memory for collision rate).
        pad_to: Chunk stride in bytes — the hardware pads 20B chunks to
            32B for power-of-two addressing (Section 4.2).  By default
            the larger of that and the chunk payload.
    """

    base_addr: int
    chunks: int
    hops: int = calibration.POSTCARDING_MAX_HOPS
    slot_bits: int = 32
    pad_to: int | None = None

    def __post_init__(self) -> None:
        if self.chunks <= 0 or self.hops <= 0:
            raise ValueError("chunks and hops must be positive")
        if self.slot_bits % 8 or not 8 <= self.slot_bits <= 64:
            raise ValueError("slot_bits must be a byte multiple in [8,64]")
        if self.pad_to is None:
            object.__setattr__(self, "pad_to", max(
                calibration.POSTCARDING_SLOT_PAD_BYTES,
                self.chunk_payload_bytes))
        if self.pad_to < self.chunk_payload_bytes:
            raise ValueError("pad_to smaller than the chunk payload")
        object.__setattr__(self, "_chunk_hashes",
                           tuple(hash_family(CHUNK_LANES)))
        # Per-(key, hop) checksums: "hop-specific checksums ... through
        # custom CRC polynomials" — one derived function per hop.
        object.__setattr__(self, "_hop_csums",
                           tuple(hash_family(
                               CHUNK_LANES + self.hops,
                               width_bits=self.slot_bits)[CHUNK_LANES:]))
        object.__setattr__(self, "_value_hash",
                           hash_family(100, width_bits=self.slot_bits)[-1])

    @property
    def slot_bytes_per_slot(self) -> int:
        return self.slot_bits // 8

    @property
    def chunk_payload_bytes(self) -> int:
        """Un-padded chunk payload: B encoded slots."""
        return self.hops * self.slot_bytes_per_slot

    @property
    def region_bytes(self) -> int:
        return self.chunks * self.pad_to

    def chunk_index(self, key: bytes, j: int = 0) -> int:
        """h_j(x): which chunk the j'th redundancy copy lands in."""
        return self._chunk_hashes[j](key) % self.chunks

    def chunk_addr(self, key: bytes, j: int = 0) -> int:
        return self.base_addr + self.chunk_index(key, j) * self.pad_to

    def g(self, value) -> int:
        """The value-encoding hash g: V ∪ {⊔} -> b bits."""
        token = _BLANK_TOKEN if value is BLANK else \
            struct.pack(">I", value)
        return self._value_hash(token)

    def hop_checksum(self, key: bytes, hop: int) -> int:
        """checksum(x, i), b bits wide."""
        return self._hop_csums[hop](key)

    def encode_slot(self, key: bytes, hop: int, value) -> int:
        """checksum(x, i) XOR g(v)."""
        return self.hop_checksum(key, hop) ^ self.g(value)

    def encode_chunk(self, key: bytes, values: list) -> bytes:
        """The full chunk payload for up to B postcard values.

        Hops beyond ``len(values)`` are encoded as blank, so the write
        always covers all B slots.
        """
        if len(values) > self.hops:
            raise ValueError("more values than hops")
        filled = list(values) + [BLANK] * (self.hops - len(values))
        fmt = {8: ">B", 16: ">H", 32: ">I", 64: ">Q"}[self.slot_bits]
        return b"".join(struct.pack(fmt, self.encode_slot(key, i, v))
                        for i, v in enumerate(filled))

    def decode_chunk(self, key: bytes, raw: bytes, lut: dict) -> list | None:
        """Try to decode a chunk for ``key``; None if invalid.

        Valid means: some prefix of length ℓ decodes to real values and
        the remaining B-ℓ slots decode to blank.  Returns the ℓ values.
        """
        fmt = {8: ">B", 16: ">H", 32: ">I", 64: ">Q"}[self.slot_bits]
        size = self.slot_bytes_per_slot
        decoded = []
        for i in range(self.hops):
            (stored,) = struct.unpack_from(fmt, raw, i * size)
            g_val = stored ^ self.hop_checksum(key, i)
            decoded.append(lut.get(g_val, _INVALID))
        # Find the ℓ split: values then blanks, nothing invalid.
        path = []
        seen_blank = False
        for item in decoded:
            if item is _INVALID:
                return None
            if item is BLANK:
                seen_blank = True
            elif seen_blank:
                return None  # value after a blank: inconsistent
            else:
                path.append(item)
        return path

    # -- vectorized twin (numpy-gated; see repro.kernels) ----------------

    def probes_many(self, packed, lengths, redundancy: int):
        """What a query needs of a packed key batch: ``(chunks,
        checksums)`` — ``chunks[j]`` each key's :meth:`chunk_index` at
        ``j`` (``(redundancy, n)`` int64), ``checksums[i]`` its
        :meth:`hop_checksum` at hop ``i`` (``(hops, n)``; uint64 when
        b > 32).  Slots of at most 32 bits share the chunk lanes'
        CRC-32 pass.
        """
        if redundancy > CHUNK_LANES:
            raise IndexError("redundancy beyond the chunk hash family")
        chunk_lanes = range(redundancy)
        hop_lanes = range(CHUNK_LANES, CHUNK_LANES + self.hops)
        if self.slot_bits <= 32:
            lanes = kcrc.hash_lanes_at((*chunk_lanes, *hop_lanes),
                                       packed, lengths)
            chunks = lanes[:redundancy]
            checksums = lanes[redundancy:] \
                & np.uint32((1 << self.slot_bits) - 1)
        else:
            chunks = kcrc.hash_lanes_at(chunk_lanes, packed, lengths)
            checksums = kcrc.hash_lanes_at(hop_lanes, packed, lengths,
                                           self.slot_bits)
        return (chunks % np.uint32(self.chunks)).astype(np.int64), checksums


class _Invalid:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<invalid>"


_INVALID = _Invalid()


class PostcardingStore(primitives.Store):
    """Collector-side Postcarding queries.

    Args:
        region: The RDMA-written memory.
        layout: Shared layout.
        value_set: V — all possible postcard values (e.g. switch IDs).
            The constructor pre-populates the ``{g(v): v}`` lookup table
            the paper describes, so per-slot decoding is O(1).
    """

    def __init__(self, region: MemoryRegion, layout: PostcardingLayout,
                 value_set) -> None:
        super().__init__(region, layout)
        self.lut = {layout.g(v): v for v in value_set}
        self.lut[layout.g(BLANK)] = BLANK
        if len(self.lut) != len(set(value_set)) + 1:
            raise ValueError(
                "g() collides within the value set; increase slot_bits")
        # The same table as two parallel arrays sorted by g(v), for
        # the batched probe's one ``searchsorted`` pass (⊔ is -1; the
        # values are unsigned 32-bit, ``g`` packs them as ``>I``).
        encoded = np.fromiter(self.lut, dtype=np.uint64,
                              count=len(self.lut))
        values = np.array([-1 if value is BLANK else value
                           for value in self.lut.values()], dtype=np.int64)
        order = encoded.argsort()
        self._lut_keys, self._lut_values = encoded[order], values[order]

    def reset_stats(self) -> None:
        self.queries = self.hits = self.chunk_reads = self.hop_checksums = 0

    def modelled_query_time_ns(self) -> float:
        """Per-query CPU time implied by the Fig. 9 cost constants.

        A Postcarding query is one chunk hash + one *contiguous* read
        plus B hop-checksum CRCs — versus Key-Write's N random reads
        per hop.  This is the Section 3.2 query-speed argument made
        measurable.
        """
        from repro import calibration

        if self.queries == 0:
            return 0.0
        total = (self.chunk_reads
                 * (calibration.QUERY_T_CRC_SLOT_NS
                    + calibration.QUERY_T_MEM_READ_NS)
                 + self.hop_checksums * calibration.QUERY_T_CRC_CSUM_NS
                 + self.queries * calibration.QUERY_T_OVERHEAD_NS)
        return total / self.queries

    def query(self, key: bytes, *, redundancy: int = 1) -> list | None:
        """Return the postcard values v_0..v_{ℓ-1} for flow ``key``.

        With redundancy N > 1 the result must be consistent across all
        chunks that contain valid information; conflicting valid chunks
        yield an empty return (None), per Appendix A.7.
        """
        self.queries += 1
        layout = self.layout
        results = []
        for j in range(redundancy):
            offset = layout.chunk_index(key, j) * layout.pad_to
            raw = self.region.local_read(offset, layout.chunk_payload_bytes)
            self.chunk_reads += 1
            self.hop_checksums += layout.hops
            decoded = layout.decode_chunk(key, raw, self.lut)
            if decoded is not None:
                results.append(tuple(decoded))
        if not results or len(set(results)) != 1:
            return None
        self.hits += 1
        return list(results[0])

    def query_many(self, keys, *, redundancy: int = 1,
                   packed=None) -> list:
        """:meth:`query` for a whole key batch.

        Returns ``[query(key, ...) for key in keys]`` and charges the
        four counters what that loop would.  The chunk lanes and the B
        hop-checksum lanes hash the packed batch once (``packed`` is an
        optional ``kernels.crc.pack_keys(keys)`` pair), the N x n
        chunks are read with one fancy index and XORed, one sorted
        lookup decodes every slot, and "values then blanks, all valid
        chunks agree" is array arithmetic.
        """
        layout = self.layout
        count, hops = len(keys), layout.hops
        if redundancy < 1:          # no chunk read: every return is empty
            self.queries += count
            return [None] * count
        matrix, lengths = packed if packed is not None \
            else kcrc.pack_keys(keys)
        chunk, checksums = layout.probes_many(matrix, lengths, redundancy)
        table = np.frombuffer(
            self.region.buf, dtype=np.uint8, count=layout.region_bytes,
        ).reshape(layout.chunks, layout.pad_to)
        raw = table[chunk][:, :, :layout.chunk_payload_bytes]
        stored = np.ascontiguousarray(raw).view(
            f">u{layout.slot_bytes_per_slot}")    # (N, n, hops)
        encoded = stored.astype(np.uint64) ^ checksums.T.astype(np.uint64)

        lut_keys = self._lut_keys
        at = np.minimum(np.searchsorted(lut_keys, encoded),
                        len(lut_keys) - 1)
        known = lut_keys[at] == encoded
        decoded = self._lut_values[at]             # -1 where blank
        blank = decoded < 0
        valid = (known.all(axis=2)
                 & ~(blank[:, :, :-1] & ~blank[:, :, 1:]).any(axis=2))
        # All valid chunks of a key must decode alike; compare each to
        # the first valid one.
        pick = valid.argmax(axis=0), np.arange(count)
        first = decoded[pick]                               # (n, hops)
        conflict = (valid & (decoded != first).any(axis=2)).any(axis=0)
        found = valid.any(axis=0) & ~conflict
        path_lengths = hops - blank[pick].sum(axis=1)

        self.queries += count
        self.chunk_reads += count * redundancy
        self.hop_checksums += count * redundancy * hops
        self.hits += int(found.sum())
        return [path[:length] if ok else None for path, length, ok
                in zip(first.tolist(), path_lengths.tolist(),
                       found.tolist())]

    def local_insert(self, key: bytes, values: list, *,
                     redundancy: int = 1) -> None:
        """Testing/analysis helper: write a chunk without RDMA."""
        payload = self.layout.encode_chunk(key, values)
        for j in range(redundancy):
            offset = self.layout.chunk_index(key, j) * self.layout.pad_to
            self.region.local_write(offset, payload)


#: The collector side (``primitives.Primitive.home``).
LAYOUT, STORE = PostcardingLayout, PostcardingStore
TRACKER = primitives.Tracker("slots", cells="chunks", cell_bytes="pad_to")


class _ValueCodes(dict):
    """``{v: g(v)}`` for the postcard values (and ⊔) a translator has
    encoded, filled as they first appear — the writer's half of the
    table the collector pre-populates for V.  Values are 32-bit, so a
    stream that never repeats one would grow it without bound: it
    starts over at ``LIMIT`` entries."""

    __slots__ = ("_g",)
    LIMIT = 1 << 16

    def __init__(self, g) -> None:
        self._g = g

    def __missing__(self, value) -> int:
        if len(self) >= self.LIMIT:
            self.clear()
        code = self[value] = self._g(value)
        return code


class PostcardingLane(primitives.Lane):
    """Postcarding at the translator: an SRAM cache aggregates a
    flow's postcards so a full path costs one chunk write instead of B
    (state: the cache rows, and the value codes the plan has seen)."""

    __slots__ = ("cache", "codes")
    primitive = primitives.POSTCARDING

    def __init__(self, translator, advert) -> None:
        super().__init__(translator, advert)
        self.cache = PostcardCache(
            slots=advert.params.get("cache_slots",
                                    calibration.POSTCARDING_CACHE_SLOTS),
            hops=self.layout.hops, labels={"node": self.node})
        self.codes: _ValueCodes | None = None    # built by the first plan

    @property
    def stride(self) -> int:
        return self.layout.pad_to

    def check(self, cols, redundancy):
        _keys, hops, values, _path_lengths = cols
        limit = self.cache.hops
        if min(hops) < 0 or max(hops) >= limit:
            return IndexError(f"hop outside [0, {limit})")
        if redundancy > CHUNK_LANES:
            return ValueError(f"redundancy {redundancy} beyond the "
                              f"{CHUNK_LANES} chunk hash lanes")
        if min(values) < 0 or max(values) > 0xFFFFFFFF:
            return ValueError("postcard value must fit 32 bits")
        return None

    def scalar(self, cols, redundancy, reporter_id, control) -> list:
        """Cache state transitions are inherently per-report (each
        insert may evict or complete a chunk); every resulting chunk
        write is collected into the one burst."""
        cache = self.cache
        wrs: list = []
        for key, hop, value, path_len in zip(*cols):
            emission = cache.insert(key, hop, value,
                                    path_len=path_len or None)
            if emission is not None:
                self.emit_chunk(emission, redundancy, wrs)
            while cache.pending_evicted:
                self.emit_chunk(cache.pending_evicted.pop(), redundancy,
                                wrs)
        return wrs

    def emit_chunk(self, emission, redundancy: int, sink: list) -> None:
        """Collect one postcard chunk's writes into the burst ``sink``."""
        layout = self.layout
        stats = self.stats
        if emission.complete:
            stats.postcard_chunks_complete += 1
        else:
            stats.postcard_chunks_early += 1
        values = [BLANK if v is None else v for v in emission.values]
        payload = layout.encode_chunk(emission.key, values)
        for j in range(max(1, redundancy)):
            sink.append(WorkRequest(
                opcode=Opcode.WRITE,
                remote_addr=layout.chunk_addr(emission.key, j),
                rkey=self.rkey, data=payload, signaled=False))

    def plan(self, cols, redundancy, reporter_id, target):
        """The cache takes the whole batch
        (:meth:`PostcardCache.insert_many`), and every chunk that left
        it — in the order the scalar lane would have collected them —
        is hashed and encoded in one pass over the emitted keys.  Rows
        are ``chunk_payload_bytes`` wide on a ``pad_to`` stride.
        """
        if self.check(cols, redundancy) is not None:
            return None
        layout = self.layout
        copies = max(1, redundancy)
        emissions = self.cache.insert_many(*cols)
        count = len(emissions)
        complete = sum(emission.complete for emission in emissions)
        stats = self.stats
        stats.postcard_chunks_complete += complete
        stats.postcard_chunks_early += count - complete
        if not count:
            return [], []
        codes = self.codes
        if codes is None:
            codes = self.codes = _ValueCodes(layout.g)
        encoded = np.fromiter(
            map(codes.__getitem__, chain.from_iterable(
                emission.values for emission in emissions)),
            dtype=np.uint64, count=count * layout.hops,
        ).reshape(count, layout.hops)
        chunks, checksums = layout.probes_many(
            *kcrc.hash_input([emission.key for emission in emissions]),
            copies)
        encoded ^= checksums.T
        rows = encoded.astype(f">u{layout.slot_bytes_per_slot}").view(
            np.uint8).reshape(count, layout.chunk_payload_bytes)
        if copies > 1:
            rows = np.repeat(rows, copies, axis=0)
        # Emission-major: all copies of one chunk, then the next chunk.
        return chunks.T.reshape(-1), rows


#: The translator side (``primitives.Primitive.home``).
LANE = PostcardingLane

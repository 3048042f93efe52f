"""Vectorized envelope-frame and DTA-report codecs.

The deployment lane's translator daemon receives coalesced
``KIND_FRAME`` datagrams (see :mod:`repro.transport.envelope`): one
lane sequence number covering a ``u16`` count, a ``u16`` length table,
and the concatenated DTA reports.  The scalar path would pay a
``struct.unpack`` + frozen-dataclass construction per report —
measured at PR 8's 22.9k reports/s, that per-report Python work *is*
the socket lane's bottleneck.  This module decodes a whole frame as
numpy arrays instead:

* :func:`split_frames` — the frame layout (count, length table,
  offsets) of a whole receive burst in one pass (:func:`split_frame`
  is the burst of one);
* :func:`parse_headers` — every report's DTA base header fields as
  parallel arrays, with a validity mask that reproduces exactly the
  scalar decoder's accept/reject set;
* :func:`decode` — one primitive's subheader fields and body spans
  as columns, read off its wire field table, with a validity mask
  matching the ``unpack`` + ``__post_init__`` checks
  :mod:`repro.core.packets` derives from the same table;
* :func:`shards_for_keys` — the :class:`~repro.core.cluster.ClusterMap`
  key hash (``crc32(b"CL" + key)``) as a resumed table-driven CRC over
  the packed key matrix, bit-exact with ``zlib.crc32``.

Bit-exactness contract: for any frame payload — including truncated
tables, junk bodies, and out-of-range field values — the columnar
assembler built on these kernels must route, batch, and count
(malformed / per-report / batched) identically to feeding each
sub-frame through the scalar ``packets.decode_report`` path.
``tests/kernels/test_wire.py`` enforces this differentially under the
datagram fuzz corpus.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np

from repro.core import packets, primitives
from repro.kernels.crc import _CRC32_TABLE

BASE = packets.BASE_HEADER_BYTES          # 8: version/prim, flags, rid, seq

#: Primitive codes with a batched decode lane (plain telemetry).
_BATCHED_PRIMS = tuple(int(p.code) for p in primitives.REGISTRY)

#: Flags that force a report onto the scalar per-report lane.
PER_REPORT_MASK = int(packets.DtaFlags.ESSENTIAL
                      | packets.DtaFlags.IMMEDIATE
                      | packets.DtaFlags.RETRANSMIT)

#: CRC-32 register state after the ClusterMap routing prefix b"CL",
#: so per-key routing resumes mid-stream instead of re-walking the
#: prefix (standard CRC continuation identity; see kernels.crc).
_ROUTE_STATE = np.uint32(zlib.crc32(b"\x43\x4C") ^ 0xFFFFFFFF)


def split_frames(payloads):
    """Decode the report boundaries of a whole receive burst in one pass.

    Returns ``(joined, buf, offsets, lengths, truncated)``: the
    payloads concatenated, a uint8 view of that, int64 arrays locating
    every report of every structurally sound frame in delivery order,
    and how many frames were truncated (count or length table
    incomplete, body shorter than the table claims) — each of those
    contributes no rows and the caller counts it as one malformed unit,
    exactly like the scalar :func:`repro.transport.envelope.unwrap_frame`.
    """
    frames = len(payloads)
    joined = payloads[0] if frames == 1 else b"".join(payloads)
    buf = np.frombuffer(joined, dtype=np.uint8)
    if not joined:
        none = np.zeros(0, dtype=np.int64)
        return joined, buf, none, none, frames
    totals = np.fromiter(map(len, payloads), dtype=np.int64, count=frames)
    starts = np.cumsum(totals) - totals
    # A frame too short to hold its count, or its table, has no rows.
    counts = _be(buf, starts, 2).astype(np.int64)
    sound = (totals >= 2) & (totals >= 2 + 2 * counts)
    counts = np.where(sound, counts, 0)
    table_end = 2 + 2 * counts
    # One row per report: the frame it sits in, its length-table entry,
    # and the body bytes of that frame that come before it.
    frame = np.repeat(np.arange(frames), counts)
    first = np.cumsum(counts) - counts
    entry = starts[frame] + 2 * (np.arange(len(frame)) - first[frame] + 1)
    lengths = _be(buf, entry, 2).astype(np.int64)
    ends = np.concatenate(([0], np.cumsum(lengths)))
    body = ends[first + counts] - ends[first]
    sound &= table_end + body <= totals
    offsets = (starts + table_end - ends[first])[frame] + ends[:-1]
    truncated = frames - int(sound.sum())
    if truncated:
        keep = sound[frame]
        offsets, lengths = offsets[keep], lengths[keep]
    return joined, buf, offsets, lengths, truncated


def split_frame(payload: bytes):
    """Decode one frame payload's report boundaries.

    :func:`split_frames` for a burst of one, without the cross-frame
    index arithmetic.  Returns ``(buf, offsets, lengths)`` — ``buf`` a
    uint8 view of the whole payload, ``offsets``/``lengths`` int64
    arrays locating each report — or None when the frame structure
    itself is truncated (count or length table incomplete, body shorter
    than the table claims), which the caller counts as one malformed
    unit exactly like the scalar
    :func:`repro.transport.envelope.unwrap_frame`.
    """
    total = len(payload)
    if total < 2:
        return None
    count = (payload[0] << 8) | payload[1]
    table_end = 2 + 2 * count
    if total < table_end:
        return None
    lengths = np.frombuffer(payload, dtype=">u2", count=count,
                            offset=2).astype(np.int64)
    offsets = np.empty(count + 1, dtype=np.int64)
    offsets[0] = table_end
    np.cumsum(lengths, out=offsets[1:])
    offsets[1:] += table_end
    if count and int(offsets[-1]) > total:
        return None
    buf = np.frombuffer(payload, dtype=np.uint8)
    return buf, offsets[:count], lengths


def _gather(buf: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Masked byte gather: out-of-range rows read byte 0 (callers mask
    those rows out via validity, this just keeps the gather in bounds)."""
    return buf[np.minimum(idx, len(buf) - 1)]


def _be(buf: np.ndarray, off: np.ndarray, width: int) -> np.ndarray:
    """Big-endian unsigned gather of ``width`` bytes at each offset."""
    out = _gather(buf, off).astype(np.uint64)
    for k in range(1, width):
        out = (out << np.uint64(8)) | _gather(buf, off + k)
    return out


def parse_headers(buf: np.ndarray, offsets: np.ndarray,
                  lengths: np.ndarray):
    """Every report's DTA base header as parallel arrays.

    Returns ``(prims, flags, rids, valid)``: primitive codes (int64),
    flag bytes, reporter ids, and a mask that is True exactly when the
    scalar ``DtaHeader.unpack`` would succeed *and* the primitive is a
    telemetry primitive (NACK/CONGESTION and unknown codes are
    invalid here — the report socket treats them as malformed).
    """
    ok = lengths >= BASE
    off = np.where(ok, offsets, 0)
    ver_prim = _gather(buf, off).astype(np.int64)
    flags = _gather(buf, off + 1).astype(np.int64)
    rids = _be(buf, off + 2, 2).astype(np.int64)
    prims = ver_prim & 0xF
    valid = (ok & (ver_prim >> 4 == packets.DTA_VERSION)
             & np.isin(prims, _BATCHED_PRIMS))
    return prims, flags, rids, valid


def decode(primitive, buf, offsets, lengths) -> dict:
    """One primitive's sub-header as columns, read off its wire table.

    Every fixed field under its own name (int64; a ``q`` field is
    two's complement), every tail as ``<tail>_off`` — its absolute
    position in ``buf`` — beside its count field, and ``valid``: the
    mask of rows the scalar ``unpack`` + ``__post_init__`` accept.  A
    field whose ``accept`` is what its width holds anyway costs no
    mask, which is how Postcarding takes any redundancy byte.
    """
    wire = primitive.wire
    sub = offsets + BASE
    cols = {}
    at = 0
    for field in wire.fields:
        off = sub + at if at else sub
        cols[field.name] = (_gather(buf, off) if field.width == 1
                            else _be(buf, off, field.width)).astype(np.int64)
        at += field.width
    tail_off = sub + wire.size
    need = BASE + wire.size
    for tail in wire.tails:
        span = cols[wire.counts[tail.name]] * tail.item
        cols[tail.name + "_off"] = tail_off
        tail_off = tail_off + span
        need = need + span
    valid = lengths >= need
    for field, lo, hi in wire.ranges:
        natural_lo, natural_hi = field.natural
        if lo > natural_lo:
            valid &= cols[field.name] >= lo
        if hi < natural_hi:
            valid &= cols[field.name] <= hi
    cols["valid"] = valid
    return cols


(decode_keywrite, decode_keyincrement, decode_postcard, decode_append,
 decode_sketch) = (partial(decode, primitive)
                   for primitive in primitives.REGISTRY)


def column(primitive, name: str, payload: bytes, buf, cols, rows) -> list:
    """Field ``name`` of ``rows`` as a :class:`ReportBatch` column:
    plain ints for a fixed field, ``bytes`` per report for a byte
    tail, a tuple of counters per report for a 4-byte-item tail."""
    tail = primitive.wire.tail_of.get(name)
    if tail is None:
        return cols[name][rows].tolist()
    offsets = cols[name + "_off"][rows]
    count = cols[primitive.wire.counts[name]][rows]
    if tail.item == 1:
        return slice_column(payload, offsets, count)
    if int(count.min()) == int(count.max()):
        matrix = gather_counters(buf, offsets, int(count[0]))
        return [tuple(row) for row in matrix.tolist()]
    # Mixed depths in one run: rare, decode per row.
    return [tuple(gather_counters(buf, offsets[i:i + 1],
                                  int(count[i]))[0].tolist())
            for i in range(len(rows))]


def matrix(primitive, name: str, buf, cols, rows):
    """Field ``name`` of ``rows`` as a plan kernel takes it: a packed
    byte matrix for a byte tail, the int64 column for a fixed field."""
    if name not in primitive.wire.tail_of:
        return cols[name][rows]
    return pack_column(buf, cols[name + "_off"][rows],
                       cols[primitive.wire.counts[name]][rows])[0]


def gather_counters(buf, counters_off, depth: int) -> np.ndarray:
    """``(n, depth)`` uint32 counter matrix for a uniform-depth run."""
    idx = counters_off[:, None] + 4 * np.arange(depth, dtype=np.int64)
    out = _gather(buf, idx).astype(np.uint32) << np.uint32(24)
    for k in range(1, 4):
        out |= (_gather(buf, idx + k).astype(np.uint32)
                << np.uint32(8 * (3 - k)))
    return out


def slice_column(payload: bytes, offsets, lengths) -> list:
    """Materialise per-report byte strings from a span column.

    One C-level slice per report: the list lane's cost (ReportBatch
    columns carry Python ``bytes``).  Segments the translator plans
    never come here — they stay matrices (:func:`pack_column`).
    """
    return [payload[a:b] for a, b in
            zip(offsets.tolist(), (offsets + lengths).tolist())]


def pack_column(buf, offsets, lengths):
    """Zero-padded ``(n, maxlen)`` byte matrix of a span column.

    The vectorized twin of :func:`repro.kernels.crc.pack_keys` applied
    to in-frame spans: one fancy-index gather for uniform-length runs
    (the hot case — fixed flow-key widths), masked for mixed lengths.
    Returns ``(packed, lengths)`` ready for the hash kernels.
    """
    n = len(offsets)
    maxlen = int(lengths.max()) if n else 0
    if n == 0 or maxlen == 0:
        return np.zeros((n, maxlen), dtype=np.uint8), lengths
    cols = np.arange(maxlen, dtype=np.int64)
    idx = offsets[:, None] + cols
    packed = _gather(buf, idx)
    if int(lengths.min()) != maxlen:
        packed = np.where(cols < lengths[:, None], packed, 0)
    return np.ascontiguousarray(packed), lengths


def shards_for_keys(packed: np.ndarray, lengths: np.ndarray,
                    collectors: int) -> np.ndarray:
    """Vectorized :meth:`ClusterMap.for_key` over a packed key batch.

    Resumes CRC-32 from the post-prefix register and table-steps the
    key bytes, which is bit-exact with ``zlib.crc32(b"CL" + key)`` —
    same polynomial, same table (see :mod:`repro.kernels.crc`).
    """
    n, maxlen = packed.shape
    if collectors == 1 or n == 0:
        return np.zeros(n, dtype=np.int64)
    reg = np.full(n, _ROUTE_STATE, dtype=np.uint32)
    uniform = int(lengths.min()) == maxlen
    for j in range(maxlen):
        byte = packed[:, j].astype(np.uint32)
        step = (reg >> np.uint32(8)) ^ _CRC32_TABLE[(reg ^ byte)
                                                    & np.uint32(0xFF)]
        reg = step if uniform else np.where(j < lengths, step, reg)
    crc = reg ^ np.uint32(0xFFFFFFFF)
    return (crc % np.uint32(collectors)).astype(np.int64)

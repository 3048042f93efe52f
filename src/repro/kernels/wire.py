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
  key hash (``crc32(b"CL" + key)``) from the keys' one CRC register
  pass (:func:`repro.kernels.crc.key_registers`), bit-exact with
  ``zlib.crc32``.

Every fixed-width read is a row gather: the report's header (or key,
or counter run) as one row of a sliding-window view over the buffer,
its fields big-endian views of that row's columns.

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
from repro.kernels.crc import _crc32_resume

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
_ROUTE_STATE = zlib.crc32(b"CL") ^ 0xFFFFFFFF


def split_frames(data, starts, totals):
    """Decode the report boundaries of a whole receive burst in one pass.

    Frame ``i`` is the ``totals[i]`` bytes of ``data`` (any buffer:
    the receive ring, or joined payloads) from ``starts[i]`` on.
    Returns ``(buf, offsets, lengths, truncated)``: a uint8 view of
    ``data``, int64 arrays locating every report of every structurally
    sound frame in delivery order, and how many frames were truncated
    (count or length table incomplete, body shorter than the table
    claims) — each of those contributes no rows and the caller counts
    it as one malformed unit, exactly like the scalar
    :func:`repro.transport.envelope.unwrap_frame`.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    frames = len(totals)
    # A frame too short to hold its count, or its table, has no rows.
    counts = _field(byte_rows(buf, starts, 2), 0, 2)
    sound = (totals >= 2) & (totals >= 2 + 2 * counts)
    counts = np.where(sound, counts, 0)
    table_end = 2 + 2 * counts
    # One row per report: the frame it sits in, its length-table entry,
    # and the body bytes of that frame that come before it.
    frame = np.repeat(np.arange(frames), counts)
    first = np.cumsum(counts) - counts
    entry = starts[frame] + 2 * (np.arange(len(frame)) - first[frame] + 1)
    lengths = _field(byte_rows(buf, entry, 2), 0, 2)
    ends = np.concatenate(([0], np.cumsum(lengths)))
    body = ends[first + counts] - ends[first]
    sound &= table_end + body <= totals
    offsets = (starts + table_end - ends[first])[frame] + ends[:-1]
    truncated = frames - int(sound.sum())
    if truncated:
        keep = sound[frame]
        offsets, lengths = offsets[keep], lengths[keep]
    return buf, offsets, lengths, truncated


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


def byte_rows(buf: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """``(n, width)`` uint8: the ``width`` bytes at each offset.

    One gather over a sliding-window view of ``buf`` whose items are
    ``width``-byte records starting at every byte, so each row is a
    single copy.  Bytes past the buffer's end read 0 (a row that runs
    off the end belongs to a report its length check rejects, or to a
    short key at the very end)."""
    if not len(offsets):
        return np.zeros((0, width), dtype=np.uint8)
    over = int(offsets.max()) + width - len(buf)
    if over > 0:
        start = min(int(offsets.min()), len(buf))
        buf = np.concatenate((buf[start:], np.zeros(over, dtype=np.uint8)))
        offsets = offsets - start
    windows = np.ndarray((len(buf) - width + 1,), dtype=f"V{width}",
                         buffer=buf, strides=(1,))
    return windows[offsets].view(np.uint8).reshape(len(offsets), width)


def _field(rows: np.ndarray, at: int, width: int) -> np.ndarray:
    """The big-endian unsigned field at column ``at`` of byte rows, as
    int64 (a ``q`` field comes out two's complement)."""
    if width == 1:
        return rows[:, at].astype(np.int64)
    return rows[:, at:at + width].view(f">u{width}")[:, 0].astype(np.int64)


def parse_headers(buf: np.ndarray, offsets: np.ndarray,
                  lengths: np.ndarray):
    """Every report's DTA base header as parallel arrays.

    Returns ``(prims, flags, rids, valid)``: primitive codes (int64),
    flag bytes, reporter ids, and a mask that is True exactly when the
    scalar ``DtaHeader.unpack`` would succeed *and* the primitive is a
    telemetry primitive (NACK/CONGESTION and unknown codes are
    invalid here — the report socket treats them as malformed).
    """
    head = byte_rows(buf, offsets, BASE)
    ver_prim = _field(head, 0, 1)
    flags = _field(head, 1, 1)
    rids = _field(head, 2, 2)
    prims = ver_prim & 0xF
    valid = ((lengths >= BASE) & (ver_prim >> 4 == packets.DTA_VERSION)
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
    head = byte_rows(buf, sub, wire.size)
    cols = {}
    at = 0
    for field in wire.fields:
        cols[field.name] = _field(head, at, field.width)
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
    counters = byte_rows(buf, counters_off, 4 * depth)
    return counters.view(">u4").astype(np.uint32)


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
    to in-frame spans: one row gather for uniform-length runs (the hot
    case — fixed flow-key widths), masked for mixed lengths.  Returns
    ``(packed, lengths)`` ready for the hash kernels.
    """
    n = len(offsets)
    maxlen = int(lengths.max()) if n else 0
    if n == 0 or maxlen == 0:
        return np.zeros((n, maxlen), dtype=np.uint8), lengths
    packed = byte_rows(buf, offsets, maxlen)
    if int(lengths.min()) != maxlen:
        packed[np.arange(maxlen) >= lengths[:, None]] = 0
    return packed, lengths


def shards_for_keys(packed, lengths: np.ndarray,
                    collectors: int) -> np.ndarray:
    """Vectorized :meth:`ClusterMap.for_key` over a key batch.

    ``packed`` / ``lengths`` are keys in any form
    :func:`repro.kernels.crc.hash_lanes_at` takes — a packed matrix,
    or the keys' :func:`~repro.kernels.crc.key_registers`, which the
    burst's plans then hash from without another pass.  The route is
    ``zlib.crc32(b"CL" + key)``, resumed from the post-prefix register.
    """
    if collectors == 1 or not len(lengths):
        return np.zeros(len(lengths), dtype=np.int64)
    (crc,) = _crc32_resume((_ROUTE_STATE,), packed, lengths)
    return (crc % np.uint32(collectors)).astype(np.int64)

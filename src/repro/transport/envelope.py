"""Deployment-lane datagram envelope and in-order reassembly.

DTA reports ride UDP, and the determinism contract of the repository
(`workers=0` digest equality, see docs/CONCURRENCY.md) requires the
translator to consume the *post-impairment* stream in a reproducible
order.  Real UDP gives no such guarantee between two sockets on one
host — the kernel may legally reorder — so every datagram the reporter
emits carries a tiny lane envelope:

    >QB   lane sequence number (assigned AFTER the loss shim), kind

followed by the payload.  The lane sequence number is a transport
artefact, deliberately distinct from the DTA report sequence inside
the payload: DTA seqs exist for the protocol's own loss detection
(NACKs, Section 3.3), while the lane seq exists so the receiver can
restore exactly the order the shim emitted.  Because the shim has
already applied drop and reorder *before* numbering, reassembly hides
kernel-level reordering without undoing the impairment under test.

``KIND_END`` marks end-of-stream; its payload is the total number of
reports emitted, letting the receiver prove delivery conservation
before reporting itself drained.

``KIND_FRAME`` is the coalesced hot path: one lane seq covers a whole
*frame* of DTA reports — a big-endian ``u16`` report count, a table of
``u16`` per-report lengths, then the concatenated report bytes.  The
length table sits up front (rather than interleaving each length with
its report) so the vectorized decoder (:mod:`repro.kernels.wire`) can
read every sub-frame boundary in one ``frombuffer`` + ``cumsum``
instead of walking the payload byte by byte.  The shim, the
:class:`Reassembler`, and the reporter's send window all keep seeing
exactly one sequence number per datagram; only the datagram's payload
got denser.

The control socket (translator daemon -> reporter) carries the same
envelope: ``KIND_CTRL`` wraps a DTA control message (NACK/congestion,
handed to the existing :class:`~repro.core.reporter.Reporter` control
machinery) and ``KIND_ACK`` carries the receiver's cumulative
in-order-delivered count.  ACKs implement the lane's send window —
kernel-level UDP loss is *not* part of the impairment under test (the
seeded shim is), so the reporter never lets more than a window of
datagrams sit unacknowledged in the loopback socket buffer, the
software analogue of the PFC-lossless reporter->translator hop.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.kernels.wire import byte_rows

ENVELOPE = struct.Struct(">QB")

KIND_REPORT = 0
KIND_END = 1
KIND_ACK = 2
KIND_CTRL = 3
KIND_FRAME = 4

_END_PAYLOAD = struct.Struct(">Q")
_FRAME_COUNT = struct.Struct(">H")
_ACK_LANE = struct.Struct(">QB")

#: Envelopes a sender keeps in flight beyond the receiver's last
#: cumulative ACK unless told otherwise — the reporter's send window and
#: so the :class:`Reassembler`'s default horizon.
WINDOW = 512

#: Most reports a single frame may carry (the count field is u16).
MAX_FRAME_REPORTS = 0xFFFF

def wrap(seq: int, payload: bytes, kind: int = KIND_REPORT) -> bytes:
    """Prefix ``payload`` with the lane envelope."""
    return ENVELOPE.pack(seq, kind) + payload


def wrap_end(seq: int, total_reports: int) -> bytes:
    """An end-of-stream marker carrying the emitted report count."""
    return wrap(seq, _END_PAYLOAD.pack(total_reports), KIND_END)


def unwrap(datagram: bytes) -> tuple:
    """Split a datagram into ``(seq, kind, payload)``.

    Raises :class:`ValueError` for datagrams too short to carry the
    envelope — the caller counts those as malformed.
    """
    if len(datagram) < ENVELOPE.size:
        raise ValueError("datagram shorter than lane envelope")
    seq, kind = ENVELOPE.unpack_from(datagram)
    return seq, kind, datagram[ENVELOPE.size:]


def end_total(payload: bytes) -> int:
    """Decode a ``KIND_END`` payload into the emitted report count."""
    if len(payload) < _END_PAYLOAD.size:
        raise ValueError("END payload truncated")
    return _END_PAYLOAD.unpack_from(payload)[0]


def wrap_ack(seq: int, delivered: int, lane: int = 0) -> bytes:
    """A cumulative delivery acknowledgement (control socket).

    ``lane`` identifies the sending translator daemon when several
    share one reporter (``--translators N``); the reporter advances
    that lane's send window.
    """
    return wrap(seq, _ACK_LANE.pack(delivered, lane), KIND_ACK)


def ack_delivered(payload: bytes) -> int:
    """Decode a ``KIND_ACK`` payload into the delivered count."""
    if len(payload) < _END_PAYLOAD.size:
        raise ValueError("ACK payload truncated")
    return _END_PAYLOAD.unpack_from(payload)[0]


def ack_lane(payload: bytes) -> int:
    """The translator lane an ACK came from (0 for legacy payloads)."""
    if len(payload) >= _ACK_LANE.size:
        return payload[_END_PAYLOAD.size]
    return 0


def wrap_frame(seq: int, reports) -> bytes:
    """Coalesce ``reports`` (a list of DTA wire payloads) into one
    ``KIND_FRAME`` datagram under a single lane sequence number."""
    count = len(reports)
    if count > MAX_FRAME_REPORTS:
        raise ValueError("too many reports for one frame")
    lengths = struct.pack(f">{count}H", *map(len, reports))
    return (ENVELOPE.pack(seq, KIND_FRAME) + _FRAME_COUNT.pack(count)
            + lengths + b"".join(reports))


def wrap_frames(seq: int, reports: list, sizes, bounds) -> list:
    """Many :func:`wrap_frame` datagrams at once.

    Frame ``i`` holds ``reports[bounds[i]:bounds[i + 1]]`` under lane
    seq ``seq + i``; ``sizes`` is the int64 column of the reports'
    lengths and ``bounds`` runs from 0 to ``len(reports)``.  Every
    length table is cut from one big-endian array and each datagram is
    one join — byte-identical to :func:`wrap_frame`'s.
    """
    if len(sizes) and sizes.max() > 0xFFFF:
        raise ValueError("report too long for a frame's length table")
    table = sizes.astype(">u2").tobytes()
    frames = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > MAX_FRAME_REPORTS:
            raise ValueError("too many reports for one frame")
        frames.append(b"".join((ENVELOPE.pack(seq + len(frames), KIND_FRAME),
                                _FRAME_COUNT.pack(hi - lo),
                                table[2 * lo:2 * hi], *reports[lo:hi])))
    return frames


def unwrap_frame(payload: bytes) -> list:
    """Split a ``KIND_FRAME`` payload into its report byte strings.

    The scalar reference decoder for the frame layout (the vectorized
    twin is :func:`repro.kernels.wire.split_frame`).  Raises
    :class:`ValueError` for payloads whose count, length table, or body
    are truncated — the caller counts the whole frame as one malformed
    unit.  Trailing bytes past the last report are ignored, mirroring
    the DTA subheader decoders' tolerance of oversize bodies.
    """
    if len(payload) < _FRAME_COUNT.size:
        raise ValueError("frame payload shorter than its count")
    (count,) = _FRAME_COUNT.unpack_from(payload)
    table_end = _FRAME_COUNT.size + 2 * count
    if len(payload) < table_end:
        raise ValueError("frame length table truncated")
    lengths = struct.unpack_from(f">{count}H", payload, _FRAME_COUNT.size)
    offset = table_end
    out = []
    for length in lengths:
        end = offset + length
        if end > len(payload):
            raise ValueError("frame body truncated")
        out.append(payload[offset:end])
        offset = end
    return out


class Reassembler:
    """Restores lane-sequence order over an unordered datagram feed.

    :meth:`push_burst` accepts a receive burst of raw datagrams as they
    arrived off the socket and returns those now deliverable in strict
    sequence order (:meth:`push` is the burst of one).  Holes never
    occur by construction — the shim numbers datagrams after dropping —
    so any gap is transient kernel reordering and the buffered
    successors drain as soon as the missing datagram lands.
    Duplicates (e.g. NACK-triggered retransmits of an already-delivered
    seq) and malformed datagrams are counted and discarded.

    ``horizon`` is the sender's window: it never has a seq at or past
    ``next_seq + horizon`` in flight, so such a datagram is counted
    malformed instead of being buffered behind a gap that no sender
    will ever fill.
    """

    def __init__(self, horizon: int = WINDOW) -> None:
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.horizon = horizon
        self.next_seq = 0
        self.delivered = 0
        self.duplicates = 0
        self.malformed = 0
        # seq -> (kind, payload) held behind a gap; within a burst, the
        # datagram's index in it until the burst ends.
        self._pending: dict = {}

    @property
    def waiting(self) -> int:
        """Datagrams buffered behind a not-yet-arrived sequence."""
        return len(self._pending)

    def push(self, datagram) -> list:
        """Ingest one datagram; returns newly deliverable
        ``(kind, payload)`` pairs."""
        if len(datagram) < ENVELOPE.size:
            self.malformed += 1
            return []
        seq, kind = ENVELOPE.unpack_from(datagram)
        return self._admit(seq, (kind, datagram[ENVELOPE.size:]))

    def push_burst(self, data, starts, lengths) -> tuple:
        """Ingest a burst: datagram ``i`` is the ``lengths[i]`` bytes of
        ``data`` (the receive ring, say) from ``starts[i]`` on.

        Returns what is now deliverable, in order, as ``(kinds, data,
        starts, lengths)``: each datagram's kind and the span of its
        payload — over ``data`` itself, or over a fresh buffer when a
        datagram held from an earlier burst is among them.  The
        envelopes are read as arrays and the in-order run the burst
        opens with is delivered in one step; what follows it goes
        through :meth:`push`'s rule one datagram at a time.  A datagram
        still held when the burst ends is copied out (the next burst
        reuses its slot).
        """
        count = len(lengths)
        sound = lengths >= ENVELOPE.size
        head = byte_rows(np.frombuffer(data, dtype=np.uint8),
                         np.where(sound, starts, 0), ENVELOPE.size)
        seqs = head[:, :8].view(">u8")[:, 0]
        kinds = head[:, 8].astype(np.int64)
        # The run stops at the first datagram that breaks it, or at the
        # first seq already held (a duplicate).
        first = self.next_seq
        run = sound & (seqs == np.arange(first, first + count,
                                         dtype=np.uint64))
        took = count if run.all() else int(np.argmin(run))
        if self._pending:
            took = min(took, min(self._pending) - first)
        self.next_seq += took
        self.delivered += took
        order = self._release()
        for index in range(took, count):
            if sound[index]:
                order += self._admit(int(seqs[index]), index)
            else:
                self.malformed += 1
        spans, sizes = starts + ENVELOPE.size, lengths - ENVELOPE.size

        def copy(row):
            start = int(spans[row])
            return int(kinds[row]), bytes(data[start:start + int(sizes[row])])

        for seq, held in self._pending.items():
            if not isinstance(held, tuple):
                self._pending[seq] = copy(held)
        if not any(isinstance(item, tuple) for item in order):
            rows = np.concatenate((np.arange(took),
                                   np.array(order, dtype=np.int64)))
            return kinds[rows], data, spans[rows], sizes[rows]
        out = [item if isinstance(item, tuple) else copy(item)
               for item in [*range(took), *order]]
        sizes = np.array([len(payload) for _kind, payload in out],
                         dtype=np.int64)
        return (np.array([kind for kind, _payload in out], dtype=np.int64),
                b"".join(payload for _kind, payload in out),
                np.cumsum(sizes) - sizes, sizes)

    def _admit(self, seq: int, item) -> list:
        """Hold ``item`` (lane seq ``seq``) or count it a duplicate or
        malformed; returns what that releases, in order."""
        if seq < self.next_seq or seq in self._pending:
            self.duplicates += 1
            return []
        if seq >= self.next_seq + self.horizon:
            self.malformed += 1
            return []
        self._pending[seq] = item
        return self._release()

    def _release(self) -> list:
        """Deliver the held run that starts at ``next_seq``."""
        out = []
        while self.next_seq in self._pending:
            out.append(self._pending.pop(self.next_seq))
            self.next_seq += 1
        self.delivered += len(out)
        return out

"""The socket-side reporter: DTA wire bytes out, control frames in.

Wraps the existing :class:`~repro.core.reporter.Reporter` — sequence
counters, backup buffer, NACK/congestion handling all unchanged — and
gives it a real UDP transmit path: every report runs through the
seeded loss shim (the lane's "wire"), survivors are *coalesced* into
``KIND_FRAME`` envelopes (many reports per datagram, MTU-budgeted)
and leave on a connected data socket in ``sendmmsg`` bursts.
Retransmits bypass the shim: a NACK-triggered re-send models the
reporter's second attempt, not a datagram the netem schedule already
ruled on; they flush the pending frame first so shard-local order is
preserved, then travel as plain ``KIND_REPORT`` singles.

The shim stays strictly per *report* — impairment decision ``n`` still
rules on report ``n``, so the in-process reference lane (which has no
frames) sees the identical post-impairment report stream and digest
equality survives coalescing by construction.  It rules on ordinals
(the n-th first transmission is ordinal ``n``); shard and report ride
beside it as two columns, which the surviving ordinals index.  Only
survivors are packed, and the lane sequence number is assigned per
*envelope* after packing: the shim, the :class:`Reassembler`, and the
ACK window all keep seeing one seq per datagram.

Scale-out: with ``--translators N`` the reporter holds one *lane* per
translator daemon (socket, seq stream, frame packer, send window) and
maps collector shard ``s`` to lane ``s % N``, so each shard's reports
still arrive at exactly one daemon in order.  ACK envelopes carry the
lane index; control frames carry the shard index, exactly as before.

The send window (``window`` envelopes beyond the translator's last
cumulative ACK, per lane) keeps kernel socket buffers from
overflowing — lane loss must come from the seeded shim, never from a
full loopback queue.  Waiting on the window doubles as control
polling, so NACKs arriving mid-stream are served promptly.
"""

from __future__ import annotations

import socket
import time
import weakref
from operator import itemgetter

import numpy as np

from repro.core import packets
from repro.core.cluster import ClusterMap, ClusterReporter
from repro.core.packets import DtaFlags
from repro.core.transport import CtrlFrame
from repro.transport import mmsg
from repro.transport.envelope import (
    ENVELOPE,
    KIND_ACK,
    KIND_CTRL,
    MAX_FRAME_REPORTS,
    WINDOW,
    ack_delivered,
    ack_lane,
    unwrap,
    wrap,
    wrap_end,
    wrap_frame,
    wrap_frames,
)
from repro.transport.loss import LossSpec

#: Finalized envelopes buffered per lane before a send burst; matches
#: the receiver's recvmmsg ring (4 sendmmsg batches) so one flush can
#: fill one receive burst — and the receive burst is the translator's
#: vectorized decode width and its plan width.
_OUTBOX_FRAMES = 4 * mmsg.BATCH_MSGS

#: Reports a bulk transmit reads and takes through shim, packer and
#: socket at a time: about one receive burst of ~40-report frames, so
#: the first datagrams leave after one slice instead of after the whole
#: stream.
_TRANSMIT_SLICE = 8192

#: Longest a full send window may go without its lane's cumulative ACK
#: advancing.  A live translator acknowledges within milliseconds, so
#: only a dead or wedged daemon ever gets near this.
_WINDOW_STALL_S = 10.0


class WindowStalled(RuntimeError):
    """A lane's send window stayed full with no ACK progress."""


class _Lane:
    """Per-translator transmit state: socket, packer, seq window."""

    __slots__ = ("sock", "addr", "seq", "sent", "acked", "pending",
                 "pending_bytes", "outbox", "reports_sent", "frames_sent")

    def __init__(self) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 22)
        self.addr = None
        self.seq = 0            # lane seq: assigned per envelope, post-shim
        self.sent = 0           # envelopes actually written to the socket
        self.acked = 0          # translator's cumulative in-order delivery
        self.pending: list = []         # reports of the open frame
        self.pending_bytes = 0          # its length table + report bytes
        self.outbox: list = []          # finalized envelopes awaiting send
        self.reports_sent = 0
        self.frames_sent = 0


def _take(items, rows) -> list:
    """``items`` at ``rows`` (an int64 array), gathered at C level."""
    if len(rows) < 2:
        return [items[row] for row in rows.tolist()]
    return list(itemgetter(*rows.tolist())(items))


class SocketReporter:
    """A reporter whose transmit path is UDP frames plus a loss shim.

    Essential reports go through an embedded
    :class:`~repro.core.cluster.ClusterReporter`: one per-shard
    :class:`~repro.core.reporter.Reporter` seq stream, matching the
    in-process cluster contract — each shard translator's loss detector
    sees a contiguous sequence, and returning control frames carry the
    shard index so NACKs reach the seq stream they name.

    Args:
        name: Reporter node name.
        reporter_id: 16-bit DTA identity.
        shards: Collector count (sizes the per-shard seq streams).
        translators: Lane count; shard ``s`` transmits on ``s % N``.
        loss: The seeded impairment applied to first-transmissions.
        window: Max envelopes in flight beyond the last cumulative ACK.
        frame_bytes: Datagram budget a frame is packed against.
    """

    def __init__(self, name: str, reporter_id: int, *, shards: int = 1,
                 translators: int = 1, loss: LossSpec | None = None,
                 window: int = WINDOW, frame_bytes: int = 1400) -> None:
        if translators < 1:
            raise ValueError("need at least one translator lane")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self.frame_bytes = frame_bytes
        self._frame_budget = max(1, frame_bytes - ENVELOPE.size - 2)
        self.shim = (loss or LossSpec()).shim()
        self._ordinal = 0       # the next first transmission's shim ordinal
        self._carry: dict = {}  # ordinal -> (shard, raw) the shim holds
        self._lanes = [_Lane() for _ in range(translators)]
        self.cluster = ClusterReporter(
            name, reporter_id,
            cluster_map=ClusterMap(collectors=shards),
            transmits=[self._shard_transmit(shard)
                       for shard in range(shards)])
        self.datagrams_sent = 0
        self.acks_received = 0
        self.ctrl_datagrams_received = 0
        self.ctrl_bytes_received = 0
        self.ctrl_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.ctrl_sock.bind(("127.0.0.1", 0))
        self.ctrl_sock.setblocking(False)

    def _shard_transmit(self, shard: int):
        owner = weakref.ref(self)     # no cycle through the shard reporters
        return lambda raw: owner()._transmit_shard(shard, raw)

    # -- wiring --------------------------------------------------------

    def set_data_addrs(self, addrs) -> None:
        """Connect each lane socket to its translator daemon."""
        if len(addrs) != len(self._lanes):
            raise ValueError("one data address per translator lane")
        for lane, addr in zip(self._lanes, addrs):
            lane.addr = addr
            lane.sock.connect(addr)

    @property
    def ctrl_addr(self):
        """Where the translator daemons should send control frames."""
        return self.ctrl_sock.getsockname()

    @property
    def stats(self):
        """Aggregated reporter statistics across shard seq streams."""
        return self.cluster.stats

    @property
    def reports_sent(self) -> int:
        """Post-shim reports handed to the wire across all lanes."""
        return sum(lane.reports_sent for lane in self._lanes)

    @property
    def frames_sent(self) -> int:
        return sum(lane.frames_sent for lane in self._lanes)

    @property
    def lane_seqs(self) -> list:
        """Envelopes emitted per lane (the Reassembler must deliver
        exactly this many, in order, on each translator)."""
        return [lane.seq for lane in self._lanes]

    # ------------------------------------------------------------------
    # Transmit path (the embedded Reporter's ``transmit`` callables)
    # ------------------------------------------------------------------

    def transmit(self, raw: bytes) -> None:
        """Shim, pack, and send one DTA report bound for shard 0."""
        self._transmit_shard(0, raw)

    def transmit_to(self, shard: int, raw: bytes) -> None:
        """Shim, pack, and send one pre-routed DTA report.

        ``shard`` must be the collector the assembler will route the
        report to (``ClusterMap`` on its key/list/sketch identity) —
        it picks the lane, and with ``--translators N`` the lane
        decides which daemon writes, so a mismatch would break the
        one-writer-per-segment contract.
        """
        self._transmit_shard(shard, raw)

    def transmit_many(self, shards, raws) -> None:
        """Bulk transmit of a first-transmission stream.

        Semantically identical to :meth:`transmit_to` over
        ``zip(shards, raws)`` — same shim decisions, same frame
        boundaries, the same envelope bytes — but shard and report stay
        two columns end to end: the shim rules on an array of ordinals,
        the survivors it returns as one index the columns, and each
        lane's frames are sealed by one :func:`wrap_frames` call.  The
        input is streamed: it is read a slice (``_TRANSMIT_SLICE``
        reports) at a time — shim, packer and socket take the slice,
        shim holds and the open frame carrying over —
        so the first datagrams leave once one slice has been read, and
        the translator is decoding it while the rest of the input is
        untouched.  ``shards`` and ``raws`` are sliced as given (turning
        either into one array first would read the whole input before
        the first send).  Callers must not pass
        ``RETRANSMIT``-flagged reports (retransmissions originate
        inside the control machinery and take :meth:`_transmit_shard`'s
        flush-first path); workload streams are first transmissions by
        construction.
        """
        base = self._ordinal
        count = len(raws)
        self._ordinal = base + count
        for start in range(0, count, _TRANSMIT_SLICE):
            stop = min(start + _TRANSMIT_SLICE, count)
            self._emit(self.shim.step_many(np.arange(base + start,
                                                     base + stop)),
                       base + start, shards[start:stop], raws[start:stop])
            # Sealed envelopes leave now (the open frame stays open),
            # so the translator works while the next slice is still
            # being read.
            for lane in self._lanes:
                self._flush_outbox(lane)

    def _transmit_shard(self, shard: int, raw: bytes) -> None:
        if raw[1] & int(DtaFlags.RETRANSMIT):
            # Bypass the shim, but keep shard-local order: everything
            # packed so far must reach the translator first.
            lane = self._lanes[shard % len(self._lanes)]
            self._finalize_frame(lane)
            self._append_single(lane, raw)
            self._flush_outbox(lane)
            return
        # Decision n still concerns report n, exactly as in the
        # reference lane: the shim rules on this report's ordinal.
        ordinal = self._ordinal
        self._ordinal += 1
        carry = self._carry
        carry[ordinal] = (shard, raw)
        for released in self.shim.step(ordinal):
            self._enqueue(*carry.pop(released))
        self._carry = {held: carry[held] for held in self.shim.holding}

    def _enqueue(self, shard: int, raw: bytes) -> None:
        lane = self._lanes[shard % len(self._lanes)]
        added = 2 + len(raw)
        if lane.pending and (lane.pending_bytes + added > self._frame_budget
                             or len(lane.pending) >= MAX_FRAME_REPORTS):
            self._finalize_frame(lane)
        lane.pending.append(raw)
        lane.pending_bytes += added

    def _emit(self, ordinals, first: int, shards, raws) -> None:
        """Pack the shim's survivors into their lanes' frames.

        ``ordinals`` is what the shim let through, in wire order, of a
        slice whose reports ``raws`` (bound for ``shards``) are
        ordinals ``first`` onward; an earlier ordinal is a report the
        shim held from before (``_carry``).  What the shim holds now
        of this slice joins the carry.
        """
        carry = self._carry
        for ordinal in self.shim.holding:
            if ordinal >= first:
                carry[int(ordinal)] = (shards[ordinal - first],
                                       raws[ordinal - first])
        rows = ordinals - first
        reports = _take(raws, np.maximum(rows, 0))
        early = np.flatnonzero(rows < 0).tolist()
        lanes = self._lanes
        if len(lanes) == 1:
            for at in early:
                reports[at] = carry.pop(int(ordinals[at]))[1]
            self._pack(lanes[0], reports)
            return
        owner = np.fromiter(shards, dtype=np.int64,
                            count=len(raws))[np.maximum(rows, 0)]
        for at in early:
            owner[at], reports[at] = carry.pop(int(ordinals[at]))
        owner %= len(lanes)
        for index, lane in enumerate(lanes):
            self._pack(lane, _take(reports, np.flatnonzero(owner == index)))

    def _pack(self, lane: _Lane, reports: list) -> None:
        """Greedy-pack ``reports`` into ``lane``'s frames.

        Produces exactly the frames repeated :meth:`_enqueue` calls
        would: maximal prefixes within the byte budget (an oversize
        report rides a frame of its own), capped at
        ``MAX_FRAME_REPORTS``, continuing the frame already open; every
        frame but the last is sealed, the last stays open.
        """
        if not reports:
            return
        reports = lane.pending + reports
        n = len(reports)
        sizes = np.fromiter(map(len, reports), dtype=np.int64, count=n)
        # The frame opening at report i ends before report nxt[i].
        cost = sizes + 2
        cum = np.cumsum(cost)
        nxt = np.searchsorted(cum, cum - cost + self._frame_budget,
                              side="right")
        np.clip(nxt, np.arange(1, n + 1),
                np.arange(MAX_FRAME_REPORTS, n + MAX_FRAME_REPORTS),
                out=nxt)
        bounds = [0]
        while bounds[-1] < n:
            bounds.append(int(nxt[bounds[-1]]))
        sealed = bounds[-2]
        # Emptied first: a retransmit served while the seal waits on
        # the window flushes the open frame, which is in this batch.
        lane.pending = []
        lane.pending_bytes = 0
        if sealed:
            self._seal(lane, wrap_frames(lane.seq, reports[:sealed],
                                         sizes[:sealed], bounds[:-1]),
                       sealed)
        lane.pending = reports[sealed:]
        lane.pending_bytes = int(cum[-1] - cum[sealed - 1]) if sealed \
            else int(cum[-1])

    def _finalize_frame(self, lane: _Lane) -> None:
        pending = lane.pending
        if pending:
            lane.pending = []
            lane.pending_bytes = 0
            self._seal(lane, [wrap_frame(lane.seq, pending)], len(pending))

    def _seal(self, lane: _Lane, frames: list, reports: int) -> None:
        """Queue ``frames`` (``reports`` reports, from lane seq on)."""
        lane.outbox.extend(frames)
        lane.seq += len(frames)
        lane.frames_sent += len(frames)
        lane.reports_sent += reports
        if len(lane.outbox) >= _OUTBOX_FRAMES:
            self._flush_outbox(lane)

    def _append_single(self, lane: _Lane, payload: bytes) -> None:
        lane.outbox.append(wrap(lane.seq, payload))
        lane.seq += 1
        lane.reports_sent += 1

    def _flush_outbox(self, lane: _Lane) -> None:
        outbox = lane.outbox
        sent = 0
        while sent < len(outbox):
            progress = time.monotonic()
            while lane.sent - lane.acked >= self.window:
                acked = lane.acked
                self.poll_control(timeout=0.5)
                if lane.acked > acked:
                    progress = time.monotonic()
                elif time.monotonic() - progress >= _WINDOW_STALL_S:
                    raise WindowStalled(
                        f"lane to {lane.addr} acknowledged nothing for "
                        f"{_WINDOW_STALL_S:.0f}s with {self.window} "
                        "envelopes in flight")
            room = min(self.window - (lane.sent - lane.acked),
                       len(outbox) - sent)
            mmsg.send_many(lane.sock, outbox[sent:sent + room])
            lane.sent += room
            self.datagrams_sent += room
            sent += room
        outbox.clear()

    def flush(self) -> None:
        """Force every pending frame and buffered envelope onto the
        wire (does not touch reports the shim still holds)."""
        for lane in self._lanes:
            self._finalize_frame(lane)
            self._flush_outbox(lane)

    def end_stream(self) -> int:
        """Flush the shim and mark end-of-stream on every lane.

        Returns the total number of reports emitted so far — each
        lane's END envelope carries its own share for delivery
        conservation.  May be called again after NACK settle rounds;
        each call emits fresh ENDs covering everything sent to date.
        """
        for released in self.shim.flush():
            self._enqueue(*self._carry.pop(released))
        total = 0
        for lane in self._lanes:
            self._finalize_frame(lane)
            lane.outbox.append(wrap_end(lane.seq, lane.reports_sent))
            lane.seq += 1
            self._flush_outbox(lane)
            total += lane.reports_sent
        return total

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------

    def poll_control(self, timeout: float = 0.0) -> int:
        """Drain the control socket; returns frames processed.

        ACK frames advance their lane's send window; CTRL frames carry
        DTA control messages into the embedded reporter's existing
        NACK/congestion machinery (which may retransmit through
        :meth:`_transmit_shard`).  With a ``timeout`` the call blocks
        up to that long for the *first* frame — the window-wait path.
        """
        processed = 0
        deadline = time.monotonic() + timeout if timeout else None
        while True:
            try:
                datagram = self.ctrl_sock.recv(65535)
            except BlockingIOError:
                if deadline is None or processed:
                    return processed
                if time.monotonic() >= deadline:
                    return processed
                time.sleep(0.001)
                continue
            self.ctrl_datagrams_received += 1
            self.ctrl_bytes_received += len(datagram)
            try:
                _seq, kind, payload = unwrap(datagram)
            except ValueError:
                continue
            if kind == KIND_ACK:
                try:
                    delivered = ack_delivered(payload)
                except ValueError:
                    continue
                lane_index = ack_lane(payload)
                if lane_index < len(self._lanes):
                    lane = self._lanes[lane_index]
                    if delivered > lane.acked:
                        lane.acked = delivered
                self.acks_received += 1
                processed += 1
            elif kind == KIND_CTRL:
                # First byte: originating shard; rest: the DTA control
                # message for that shard's seq stream.
                if not payload:
                    continue
                shard = payload[0]
                if shard >= len(self.cluster.reporters):
                    continue
                raw = payload[1:]
                try:
                    packets.DtaHeader.unpack(raw)
                except packets.PacketDecodeError:
                    continue
                self.cluster.reporters[shard].receive(
                    CtrlFrame(src="translator", raw=raw))
                processed += 1

    def settle(self, rounds: int = 3, timeout: float = 0.5) -> int:
        """Serve pending NACKs for up to ``rounds`` control passes.

        Returns the total number of retransmissions issued.  Each
        round waits up to ``timeout`` for control traffic; a round
        with no retransmissions ends the settle early.
        """
        total = 0
        self.flush()
        for _ in range(rounds):
            before = self.stats.retransmitted
            self.poll_control(timeout=timeout)
            after = self.stats.retransmitted
            total += after - before
            if after == before:
                break
        return total

    def close(self) -> None:
        for lane in self._lanes:
            lane.sock.close()
        self.ctrl_sock.close()

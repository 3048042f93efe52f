"""Reliable-connection queue pairs with PSN sequencing and go-back-N.

The behaviours modelled here are exactly the ones that make "just RDMA
from every switch" untenable (Section 2.2): a responder QP insists on
strictly sequential packet sequence numbers, so interleaving multiple
uncoordinated writers on one QP is impossible, and any loss NAKs and
stalls the connection until the requester rewinds (go-back-N).
"""

from __future__ import annotations

import enum
from collections import deque

from repro.obs.views import InstrumentedStats, counter_field
from repro.rdma import roce
from repro.rdma.memory import ProtectionDomain, RemoteAccessError
from repro.rdma.verbs import (ATOMIC_BYTES, Opcode, WcStatus,
                              WorkCompletion, WorkRequest)

WRITE, WRITE_IMM, READ = Opcode.WRITE, Opcode.WRITE_IMM, Opcode.READ
FETCH_ADD, CMP_SWAP, SEND = Opcode.FETCH_ADD, Opcode.CMP_SWAP, Opcode.SEND
SUCCESS = WcStatus.SUCCESS

PSN_MOD = 1 << 24

# AETH NAK syndromes (IBTA 9.7.5.2.8, abbreviated).
NAK_PSN_SEQUENCE_ERROR = 0x60
NAK_REMOTE_ACCESS_ERROR = 0x62
NAK_REMOTE_OPERATIONAL_ERROR = 0x63


class QpState(enum.Enum):
    """Queue-pair state machine (``ibv_qp_state`` subset)."""

    RESET = "reset"
    INIT = "init"
    RTR = "rtr"    # ready to receive
    RTS = "rts"    # ready to send
    ERROR = "error"


class QpError(Exception):
    """Operation attempted in an incompatible QP state."""


class QpCounters(InstrumentedStats):
    """Observable per-QP statistics (exported by the NIC's telemetry)."""

    component = "qp"

    requests_executed = counter_field()
    bytes_written = counter_field()
    bytes_read = counter_field()
    atomics = counter_field()
    duplicates = counter_field()
    sequence_errors = counter_field()
    access_errors = counter_field()
    acks_sent = counter_field()
    naks_sent = counter_field()
    retransmits = counter_field()


class QueuePair:
    """One RC queue pair: requester and responder halves.

    The responder half (:meth:`responder_receive`) is driven by the NIC
    with raw RoCE packets and executes verbs against the protection
    domain.  The requester half (:meth:`post_send` /
    :meth:`requester_receive`) is used by translator/benchmark code
    that talks *to* a remote NIC; it numbers packets, holds an unacked
    window, and rewinds on NAK.

    Completions follow ibverbs: a request that succeeds leaves a
    :class:`~repro.rdma.verbs.WorkCompletion` on :attr:`completions`
    only if it was posted ``signaled``; one that fails (fatal NAK) or is
    flushed always leaves one.  Both requester tiers — per packet and
    per burst — apply the same rule.
    """

    def __init__(self, qpn: int, pd: ProtectionDomain, *,
                 send_psn: int = 0, expected_psn: int = 0,
                 max_outstanding: int = 1024) -> None:
        self.qpn = qpn
        self.pd = pd
        self.state = QpState.RESET
        self.send_psn = send_psn % PSN_MOD
        self.expected_psn = expected_psn % PSN_MOD
        self.msn = 0
        self.max_outstanding = max_outstanding
        self.counters = QpCounters(labels={"qpn": f"0x{qpn:x}"})
        self.completions: deque[WorkCompletion] = deque()
        # Requester retransmission window: psn -> (wire bytes, wr)
        self._unacked: "deque[tuple[int, bytes, WorkRequest]]" = deque()
        # Requests that died in flight (flush or fatal NAK) awaiting a
        # recovery-time replay; drained with :meth:`take_failed`.
        self.failed_wrs: list[WorkRequest] = []
        self.dest_qpn: int | None = None
        # Responder replay cache: psn -> the response an executed
        # atomic returned, the last ``max_outstanding`` of them (no
        # requester window reaches further back).
        self._atomic_replies: dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def modify(self, state: QpState, *, dest_qpn: int | None = None,
               send_psn: int | None = None,
               expected_psn: int | None = None) -> None:
        """Transition the QP (``ibv_modify_qp``), with legality checks."""
        order = [QpState.RESET, QpState.INIT, QpState.RTR, QpState.RTS]
        if state == QpState.ERROR:
            self.state = state
            self._flush()
            return
        if state == QpState.RESET:
            self._reset()
            return
        if self.state == QpState.ERROR:
            raise QpError("QP in ERROR must go through RESET")
        if order.index(state) != order.index(self.state) + 1:
            raise QpError(f"illegal transition {self.state} -> {state}")
        self.state = state
        if dest_qpn is not None:
            self.dest_qpn = dest_qpn
        if send_psn is not None:
            self.send_psn = send_psn % PSN_MOD
        if expected_psn is not None:
            self.expected_psn = expected_psn % PSN_MOD

    def _reset(self) -> None:
        """Return to RESET, preserving construction-time configuration.

        Sequencing state, both queues, and the connection are cleared;
        ``qpn``, ``pd``, ``max_outstanding``, and the counters survive
        (hardware counters persist across ``ibv_modify_qp`` to RESET,
        and a QP recovered from ERROR must come back with its
        configured window, not a default-sized one).
        """
        self.state = QpState.RESET
        self.send_psn = 0
        self.expected_psn = 0
        self.msn = 0
        self.completions.clear()
        self._unacked.clear()
        self.failed_wrs.clear()
        self.dest_qpn = None
        self._atomic_replies.clear()

    def _flush(self) -> None:
        """Complete all in-flight requests with a flush error.

        The flushed requests are retained in :attr:`failed_wrs`: a
        local teardown says nothing about their guilt, so a recovery
        path may replay them all once the connection is re-established.
        """
        while self._unacked:
            _psn, _raw, wr = self._unacked.popleft()
            self.failed_wrs.append(wr)
            self.completions.append(WorkCompletion(
                wr_id=wr.wr_id, opcode=wr.opcode,
                status=WcStatus.WR_FLUSH_ERR))

    def take_failed(self) -> list[WorkRequest]:
        """Drain the requests that errored in flight (recovery replay).

        Must be called *before* resetting the QP — a RESET clears the
        list along with every other queue.
        """
        out = self.failed_wrs
        self.failed_wrs = []
        return out

    # ------------------------------------------------------------------
    # Requester half
    # ------------------------------------------------------------------

    def post_send(self, wr: WorkRequest) -> bytes:
        """Number and serialise a work request into a RoCEv2 packet.

        Returns the raw packet for the caller to hand to the fabric.
        The request is retained in the unacked window for go-back-N.
        """
        self.requester_begin_burst(1)       # a post is a burst of one
        psn = self.send_psn
        raw = roce.encode_request(
            wr.opcode, dest_qp=self.dest_qpn, psn=psn,
            remote_addr=wr.remote_addr, rkey=wr.rkey, payload=wr.data,
            read_length=wr.length, compare=wr.compare, swap=wr.swap,
            imm=wr.imm)
        self.send_psn = (self.send_psn + 1) % PSN_MOD
        self._unacked.append((psn, raw, wr))
        return raw

    def requester_receive(self, raw: bytes) -> list[bytes]:
        """Process an ACK/NAK/response from the responder.

        Returns packets to retransmit (go-back-N rewind) — empty on a
        clean ACK.
        """
        pkt = roce.decode(raw)
        if not pkt.is_ack and pkt.bth.opcode != \
                roce.BthOpcode.RC_RDMA_READ_RESPONSE_ONLY:
            raise QpError("requester received a non-response packet")
        if pkt.syndrome == 0:  # ACK: cumulative up to pkt.bth.psn
            self._ack_through(pkt)
            return []
        if pkt.syndrome == NAK_PSN_SEQUENCE_ERROR:
            # Recoverable: rewind everything outstanding (go-back-N).
            self.counters.retransmits += len(self._unacked)
            return [raw_pkt for _psn, raw_pkt, _wr in self._unacked]
        # Fatal NAK (access/operational error): the remote QP is dead.
        # Complete everything with error and tear down — retransmitting
        # would only hammer an errored responder.  Every in-flight
        # request — including the NAKed one — is retained for recovery
        # replay: a transient fault (region invalidated mid-run) NAKs
        # perfectly good writes, so replay re-queues the offending I/O
        # too, under a bounded per-request budget enforced by the
        # recovery controller.
        status = WcStatus.REM_ACCESS_ERR \
            if pkt.syndrome == NAK_REMOTE_ACCESS_ERROR \
            else WcStatus.REM_OP_ERR
        naked_psn = pkt.bth.psn
        while self._unacked:
            psn, _raw, wr = self._unacked.popleft()
            if psn == naked_psn:
                # Charge the offender: recovery abandons a request only
                # once *it* has personally drawn this many fatal NAKs —
                # innocents flushed alongside it replay for free.
                wr.fatal_naks += 1
            self.failed_wrs.append(wr)
            self.completions.append(WorkCompletion(
                wr_id=wr.wr_id, opcode=wr.opcode, status=status))
        self.state = QpState.ERROR
        return []

    def _ack_through(self, pkt: roce.RocePacket) -> None:
        acked_psn = pkt.bth.psn
        while self._unacked:
            psn, _raw, wr = self._unacked[0]
            # Window is small relative to PSN space, so a simple modular
            # "is psn <= acked_psn" test over the window suffices.
            dist = (acked_psn - psn) % PSN_MOD
            if dist >= self.max_outstanding:
                break
            self._unacked.popleft()
            if wr.signaled:
                self.completions.append(WorkCompletion(
                    wr_id=wr.wr_id, opcode=wr.opcode, status=SUCCESS,
                    byte_len=len(pkt.payload) or wr.payload_bytes,
                    data=pkt.payload))

    @property
    def outstanding(self) -> int:
        """Number of unacknowledged requests in flight."""
        return len(self._unacked)

    # ------------------------------------------------------------------
    # Requester half — burst path
    # ------------------------------------------------------------------
    #
    # The batched pipeline executes whole bursts synchronously against a
    # co-resident responder (direct mode), so the state / connection /
    # window checks and the PSN bookkeeping are paid once per burst
    # instead of once per verb.  End state (PSNs, counters, completion
    # records) is identical to posting and acking each request alone.

    def requester_begin_burst(self, count: int) -> None:
        """Validate that the next request(s) may be sent now.

        :meth:`post_send`'s admission check, paid once per burst.
        ``count`` is not weighed against the window: a direct-mode
        burst is acknowledged synchronously, request by request, so the
        window cannot fill mid-burst.
        """
        if self.state != QpState.RTS:
            raise QpError(f"post_send in state {self.state}")
        if self.dest_qpn is None:
            raise QpError("QP not connected (no destination QPN)")
        if len(self._unacked) >= self.max_outstanding:
            raise QpError("send queue full (outstanding window exceeded)")

    def requester_commit(self, count: int) -> None:
        """Consume ``count`` PSNs for requests executed synchronously."""
        self.send_psn = (self.send_psn + count) % PSN_MOD

    def requester_complete_burst(self, wrs, responses,
                                 fault: bool = False) -> int:
        """Commit a synchronously-executed burst on the requester side.

        ``responses[i]`` is the responder payload for ``wrs[i]`` (empty
        for writes, old value for atomics, data for reads); each
        ``signaled`` request among them completes with ``SUCCESS``.
        With ``fault`` set, ``wrs[len(responses)]`` hit a remote access
        error: it completes with ``REM_ACCESS_ERR`` whether signaled or
        not, and the QP enters ERROR — exactly what the per-packet
        fatal-NAK path produces — and a :class:`QpError` is raised if
        further requests were queued behind it (they could never have
        been posted on an errored QP).

        Returns the payload the requester posted
        (``WorkRequest.payload_bytes``) summed over the requests that
        consumed a PSN: the executed ones and the offender.
        """
        n_ok = len(responses)
        self.requester_commit(n_ok + fault)
        completions = self.completions
        posted = 0
        for wr, resp in zip(wrs, responses):
            # ``wr.payload_bytes``, inlined: this loop runs per verb.
            opcode = wr.opcode
            if opcode.is_atomic:
                size = ATOMIC_BYTES
            else:
                size = 0 if opcode is READ else len(wr.data)
            posted += size
            if wr.signaled:
                completions.append(WorkCompletion(
                    wr_id=wr.wr_id, opcode=opcode, status=SUCCESS,
                    byte_len=len(resp) or size, data=resp))
        if fault:
            wr = wrs[n_ok]
            wr.fatal_naks += 1
            posted += wr.payload_bytes
            completions.append(WorkCompletion(
                wr_id=wr.wr_id, opcode=wr.opcode,
                status=WcStatus.REM_ACCESS_ERR))
            self.state = QpState.ERROR
            # The faulted request and everything queued behind it are
            # retained for recovery replay (bounded per-request budget,
            # matching the per-packet fatal-NAK path); surface the
            # error the per-packet path would have raised when later
            # requests could never have been posted.
            self.failed_wrs.extend(wrs[n_ok:])
            if n_ok + 1 < len(wrs):
                raise QpError(f"post_send in state {self.state}")
        return posted

    # ------------------------------------------------------------------
    # Responder half
    # ------------------------------------------------------------------

    def responder_receive(self, pkt: roce.RocePacket) -> bytes | None:
        """Execute one inbound request, decoded by the NIC that took it
        off the wire; returns the ACK/NAK packet.

        Enforces strict PSN ordering: a gap produces a PSN-sequence NAK
        and the request is *not* executed (this is the behaviour that
        forces DTA to make the translator the sole writer).
        """
        if self.state not in (QpState.RTR, QpState.RTS):
            raise QpError(f"responder_receive in state {self.state}")
        psn = pkt.bth.psn

        dist = (psn - self.expected_psn) % PSN_MOD
        if dist != 0:
            if dist > PSN_MOD // 2:
                return self._duplicate(pkt)
            # Future PSN: a packet was lost -> NAK sequence error.
            self.counters.sequence_errors += 1
            self.counters.naks_sent += 1
            return roce.encode_ack(dest_qp=pkt.bth.dest_qp,
                                   psn=self.expected_psn,
                                   syndrome=NAK_PSN_SEQUENCE_ERROR,
                                   msn=self.msn)

        try:
            response, written, read, atomics = self._execute(
                pkt.verb, pkt.rkey, pkt.remote_addr, pkt.payload,
                pkt.dma_length, pkt.compare, pkt.swap, pkt.imm)
        except RemoteAccessError:
            return self._access_nak(pkt)
        if atomics:
            replies = self._atomic_replies
            replies[psn] = response
            if len(replies) > self.max_outstanding:
                del replies[next(iter(replies))]
        self.responder_commit(1, written, read, atomics)
        return roce.encode_ack(dest_qp=pkt.bth.dest_qp, psn=psn, syndrome=0,
                               msn=self.msn, payload=response,
                               atomic=bool(atomics))

    def _duplicate(self, pkt: roce.RocePacket) -> bytes:
        """Answer a retransmitted request as an RC responder does: an
        atomic gets the value it returned the first time, from the
        replay cache and never re-executed; a READ, idempotent,
        executes again; anything else is re-ACKed.  Nothing is
        accounted as executed."""
        self.counters.duplicates += 1
        verb, psn = pkt.verb, pkt.bth.psn
        payload = b""
        if verb.is_atomic:
            payload = self._atomic_replies.get(psn, b"")
        elif verb is READ:
            try:
                payload = self.pd.lookup(pkt.rkey).read(pkt.remote_addr,
                                                        pkt.dma_length)
            except RemoteAccessError:
                return self._access_nak(pkt)
        self.counters.acks_sent += 1
        return roce.encode_ack(dest_qp=pkt.bth.dest_qp, psn=psn, syndrome=0,
                               msn=self.msn, payload=payload,
                               atomic=verb.is_atomic and bool(payload))

    def _access_nak(self, pkt: roce.RocePacket) -> bytes:
        """NAK a request that drew a remote access error; the QP errors."""
        self.responder_commit(0, fault=True)
        return roce.encode_ack(dest_qp=pkt.bth.dest_qp, psn=pkt.bth.psn,
                               syndrome=NAK_REMOTE_ACCESS_ERROR,
                               msn=self.msn)

    def responder_execute_burst(self, wrs) -> tuple[list[bytes], bool, dict]:
        """Execute a burst of requests without wire (de)serialisation.

        The burst arrives in PSN order by construction (the requester
        numbered it in one go), so the per-packet sequence check reduces
        to advancing ``expected_psn``/``msn`` by the executed count.
        Returns ``(responses, fault, shapes)``: one response payload per
        executed request; ``fault`` true if the next request died with a
        remote access error (counters and the ERROR transition then
        match :meth:`responder_receive`'s fatal-NAK path); and the
        messages that reached the responder — the executed ones and the
        offender — counted by ``(wire payload bytes, atomic)``, what
        :meth:`Nic.charge <repro.rdma.nic.Nic.charge>` takes.  One pass
        over the burst makes all three.
        """
        if self.state not in (QpState.RTR, QpState.RTS):
            raise QpError(f"responder_receive in state {self.state}")
        execute = self._execute
        responses: list[bytes] = []
        append = responses.append
        shapes: dict = {}
        written = read = atomics = 0
        fault = False
        for wr in wrs:
            opcode = wr.opcode
            # READ requests and atomics carry no payload on the wire.
            shape = ((0, opcode.is_atomic) if opcode.needs_response
                     else (len(wr.data), False))
            shapes[shape] = shapes.get(shape, 0) + 1
            try:
                response, w, r, a = execute(
                    opcode, wr.rkey, wr.remote_addr, wr.data, wr.length,
                    wr.compare, wr.swap, wr.imm)
            except RemoteAccessError:
                fault = True
                break
            append(response)
            written += w
            read += r
            atomics += a
        self.responder_commit(len(responses), written, read, atomics,
                              fault=fault)
        return responses, fault, shapes

    def responder_commit(self, executed: int, written: int = 0,
                         read: int = 0, atomics: int = 0, *,
                         fault: bool = False) -> None:
        """Account ``executed`` in-order requests in one transaction.

        Advances ``expected_psn``/``msn`` and the responder counters by
        what the requests did (``written``/``read`` bytes, ``atomics``
        executed); ``fault`` records that the next request drew a
        remote access error, which NAKs and errors the QP.
        """
        self.expected_psn = (self.expected_psn + executed) % PSN_MOD
        self.msn = (self.msn + executed) % PSN_MOD
        counters = self.counters
        if executed:
            counters.requests_executed += executed
            counters.acks_sent += executed
        if written:
            counters.bytes_written += written
        if read:
            counters.bytes_read += read
        if atomics:
            counters.atomics += atomics
        if fault:
            counters.access_errors += 1
            counters.naks_sent += 1
            self.state = QpState.ERROR

    def _execute(self, verb: Opcode, rkey: int, addr: int, data: bytes,
                 length: int, compare: int, swap: int,
                 imm: int | None) -> tuple[bytes, int, int, int]:
        """Apply one verb to registered memory.

        Returns ``(response, bytes_written, bytes_read, atomics)`` — the
        payload to send back and the deltas :meth:`responder_commit`
        accounts.  Raises :class:`RemoteAccessError` (nothing applied)
        on a bad rkey, missing rights, or out-of-bounds access.
        Dispatches by identity, the telemetry verbs (WRITE, FETCH_ADD)
        first.
        """
        if verb is WRITE:
            self.pd.lookup(rkey).write(addr, data)
            return b"", len(data), 0, 0
        if verb is FETCH_ADD:
            old = self.pd.lookup(rkey).fetch_add(addr, swap)
            return old.to_bytes(8, "little"), 0, 0, 1
        if verb is WRITE_IMM:
            self.pd.lookup(rkey).write(addr, data)
            self.completions.append(WorkCompletion(
                wr_id=0, opcode=verb, status=SUCCESS,
                byte_len=len(data), imm=imm))
            return b"", len(data), 0, 0
        if verb is READ:
            out = self.pd.lookup(rkey).read(addr, length)
            return out, 0, len(out), 0
        if verb is CMP_SWAP:
            old = self.pd.lookup(rkey).compare_swap(addr, compare, swap)
            return old.to_bytes(8, "little"), 0, 0, 1
        if verb is SEND:
            self.completions.append(WorkCompletion(
                wr_id=0, opcode=verb, status=SUCCESS,
                byte_len=len(data), data=data, imm=imm))
            return b"", 0, 0, 0
        raise QpError(f"unsupported verb {verb}")

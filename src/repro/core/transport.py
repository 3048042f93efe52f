"""Transport glue between DTA components.

Two deployment modes share the same component code:

* **Direct mode** — translator and collector are wired by function
  call (:class:`DirectRdmaTransport`); used by unit tests and the
  throughput benchmarks, where the fabric adds nothing.
* **Fabric mode** — components are :class:`repro.fabric.topology.Node`
  subclasses exchanging typed frames over simulated links; used by the
  loss/flow-control experiments.

Frames are tiny typed envelopes so a node can tell reporter traffic
from RoCE from control messages without sniffing bytes.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass

from repro.obs.registry import emit
from repro.rdma.cm import reestablish
from repro.rdma.nic import Nic
from repro.rdma.qp import PSN_MOD, QpError, QpState, QueuePair
from repro.rdma.verbs import WorkRequest


@dataclass(frozen=True)
class DtaFrame:
    """A DTA report on the wire (reporter -> translator)."""

    src: str
    raw: bytes


@dataclass(frozen=True)
class RoceFrame:
    """A RoCEv2 packet (translator <-> collector NIC)."""

    src: str
    raw: bytes


@dataclass(frozen=True)
class CtrlFrame:
    """A DTA control message (translator -> reporter: NACK/congestion)."""

    src: str
    raw: bytes


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds for post-time QP recovery (retry with backoff).

    ``backoff_base_s`` models the controller's exponential backoff
    between recovery attempts; the event-driven modes have no wall
    clock to sleep on, so the accumulated delay is recorded on
    :attr:`RdmaClient.backoff_s` for the performance model instead of
    being slept.
    """

    max_attempts: int = 3
    backoff_base_s: float = 100e-6
    #: How many fatal NAKs one work request may personally draw (as the
    #: request the responder rejected, not an innocent flushed alongside
    #: it) before recovery abandons it instead of replaying it again —
    #: a persistently-poisonous request must not pin recovery forever.
    wr_replay_cap: int = 16


def recover_qp(client: "RdmaClient", server_nic: Nic) -> bool:
    """Controller-driven QP recovery: reset, re-handshake, replay.

    The Section 4.2 recovery path compressed into one synchronous call:
    the dead client QP and its responder half on ``server_nic`` walk
    ERROR -> RESET -> INIT -> RTR -> RTS with fresh PSNs
    (:func:`repro.rdma.cm.reestablish`), then every work request that
    was in flight when the connection died is re-posted.  A replayed
    request may itself fatal-NAK again (the fault is still active);
    recovery then re-handshakes and keeps replaying, charging each
    fatal NAK to the request that drew it
    (:attr:`RetryPolicy.wr_replay_cap`) so a persistently-poisonous
    request is eventually abandoned — while the innocents flushed
    alongside it replay for free — instead of looping forever.
    Replayed writes are idempotent; like go-back-N retransmission, a
    replayed *atomic* may be applied twice — the same trade real RoCE
    makes.

    Returns False (nothing touched) when the QP is not actually in
    ERROR or its destination QP is unknown to ``server_nic``.
    """
    qp = client.qp
    if qp.state != QpState.ERROR or qp.dest_qpn is None:
        return False
    server = server_nic.qps.get(qp.dest_qpn)
    if server is None:
        return False
    replay = qp.take_failed()
    reestablish(server_nic, server, qp)
    emit("rdma", "qp_recovered", qpn=qp.qpn, server_qpn=server.qpn,
         replayed=len(replay))
    pending = deque(replay)
    while True:
        if qp.state == QpState.ERROR:
            # A replay fatal-NAKed (direct mode completes synchronously
            # inside client.post).  Capture what the QP flushed *before*
            # re-handshaking — RESET clears the captured list — and put
            # it back at the head so replay order is preserved.
            recaptured = qp.take_failed()
            reestablish(server_nic, server, qp)
            pending.extendleft(reversed(recaptured))
        if not pending:
            break
        wr = pending.popleft()
        if wr.fatal_naks >= client.retry.wr_replay_cap:
            emit("rdma", "wr_abandoned", qpn=qp.qpn,
                 opcode=wr.opcode.name, fatal_naks=wr.fatal_naks)
            continue
        client.post(wr)
    return True


class RdmaClient:
    """Requester-side wrapper: posts work requests, handles responses.

    Owns the client half of a QP; ``send_fn`` moves raw packets toward
    the responder (a function call in direct mode, a link send in
    fabric mode).

    A dead QP no longer poisons every subsequent post: when a recovery
    hook is available — ``recover_fn`` bound explicitly (see
    :func:`repro.faults.recovery.bind_qp_recovery`) or a ``recover``
    method on the transport (direct mode) — posting on an errored QP
    triggers bounded retry-with-backoff recovery, and a
    :class:`~repro.rdma.qp.QpError` only propagates once the retry
    budget (:class:`RetryPolicy`) is exhausted.
    """

    def __init__(self, qp: QueuePair, send_fn, *,
                 retry: RetryPolicy | None = None) -> None:
        self.qp = qp
        self.send_fn = send_fn
        self.posted = 0
        self.payload_bytes = 0
        self.retry = retry or RetryPolicy()
        self.recover_fn = None          # callable(client) -> bool
        self.recoveries = 0
        self.recovery_failures = 0
        self.backoff_s = 0.0
        self._recovering = False

    def _try_recover(self) -> bool:
        """Run the recovery hook with bounded attempts and backoff."""
        if self._recovering:
            return False
        recover = self.recover_fn or getattr(self.send_fn, "recover", None)
        if recover is None:
            return False
        self._recovering = True
        try:
            for attempt in range(self.retry.max_attempts):
                self.backoff_s += self.retry.backoff_base_s * (2 ** attempt)
                try:
                    if recover(self) and self.qp.state == QpState.RTS:
                        self.recoveries += 1
                        return True
                except QpError:
                    # A replayed request re-killed the fresh QP (e.g.
                    # the memory region is still invalid): back off and
                    # try again until the budget runs out.
                    continue
            self.recovery_failures += 1
            emit("rdma", "qp_recovery_failed", qpn=self.qp.qpn,
                 attempts=self.retry.max_attempts)
            return False
        finally:
            self._recovering = False

    def post(self, wr: WorkRequest) -> None:
        """Serialise, number, and transmit one verb.

        Recovers a dead QP (bounded, see :meth:`_try_recover`) instead
        of raising on the first post after a fatal NAK.
        """
        try:
            raw = self.qp.post_send(wr)
        except QpError:
            if not self._try_recover():
                raise
            raw = self.qp.post_send(wr)
        self.note_posted(1, wr.payload_bytes)
        self.send_fn(raw)

    def note_posted(self, count: int, payload_bytes: int) -> None:
        """Client bookkeeping for ``count`` requests handed to the QP."""
        self.posted += count
        self.payload_bytes += payload_bytes

    def post_burst(self, wrs: list) -> None:
        """Post a burst of verbs with per-burst bookkeeping.

        When the transport can execute bursts natively (direct mode's
        :meth:`DirectRdmaTransport.execute_burst`), the burst bypasses
        wire (de)serialisation entirely; otherwise — fabric mode, or a
        burst the transport declines (e.g. the destination QP is
        unknown, whose per-packet semantics are silent drops) — it
        degrades to per-verb :meth:`post` calls, which reproduce those
        semantics exactly.  End state is identical either way.

        Like :meth:`post`, a dead QP is recovered (bounded) rather than
        raising outright: a burst that dies mid-flight leaves its
        executed prefix committed and the rest captured on the QP, and
        a successful recovery has already replayed those captured
        requests — so nothing here needs re-posting afterwards.
        """
        if not wrs:
            return
        if self.qp.state == QpState.ERROR and not self._try_recover():
            raise QpError(f"QP {self.qp.qpn} dead and recovery failed")
        try:
            self._post_burst_once(wrs)
        except QpError:
            if not self._try_recover():
                raise

    def _post_burst_once(self, wrs: list) -> None:
        execute = getattr(self.send_fn, "execute_burst", None)
        if execute is not None:
            # Posted means "consumed a PSN", as in :meth:`post`: the
            # whole burst, or — when it died mid-flight — the executed
            # prefix plus the offender; none if the transport declined.
            first_psn = self.qp.send_psn
            try:
                posted = execute(self.qp, wrs)
            except QpError:
                handed = (self.qp.send_psn - first_psn) % PSN_MOD
                self.note_posted(handed, sum(wr.payload_bytes
                                             for wr in wrs[:handed]))
                raise
            if posted is not None:
                self.note_posted(len(wrs), posted)
                return
        for wr in wrs:
            self.post(wr)

    def deliver_response(self, raw: bytes) -> None:
        """Feed an ACK/NAK back in; retransmits on go-back-N rewind."""
        for packet in self.qp.requester_receive(raw):
            self.send_fn(packet)

    def drain_completions(self) -> list:
        out = list(self.qp.completions)
        self.qp.completions.clear()
        return out

    def resend_outstanding(self) -> int:
        """Timeout-driven go-back-N: re-send every unacked request.

        Covers tail loss (the last request or its ACK vanished, so no
        later NAK will expose the gap).  Safe to call any time —
        duplicates are re-ACKed by the responder without re-execution.
        Returns the number of packets re-sent.
        """
        pending = [raw for _psn, raw, _wr in self.qp._unacked]
        for raw in pending:
            self.send_fn(raw)
        self.qp.counters.retransmits += len(pending)
        return len(pending)


class DirectRdmaTransport:
    """Synchronous translator->NIC binding for direct mode.

    Every posted packet is executed by the collector NIC immediately and
    the response fed straight back to the client QP, so callers never
    see outstanding requests.

    The client owns the transport (``RdmaClient.transport``), so the
    back-reference for responses is weak: a strong one is a cycle that
    pins the collector NIC, its protection domain and every registered
    store region until the cycle collector next runs, and a closed
    deployment must be reclaimed when its last name goes.
    """

    def __init__(self, nic: Nic) -> None:
        self.nic = nic
        self._client = lambda: None     # a weakref.ref once bound

    def bind(self, client: RdmaClient) -> None:
        self._client = weakref.ref(client)

    def __call__(self, raw: bytes) -> None:
        response = self.nic.receive(raw)
        if response is not None:
            client = self._client()
            if client is not None:
                client.deliver_response(response)

    def burst_responder(self, qp: QueuePair) -> QueuePair | None:
        """The responder QP a burst from ``qp`` may execute on directly.

        None when a burst must not bypass the wire: the destination QP
        is not a live responder on this NIC (per-packet traffic to such
        a QP is silently dropped, and a burst must not invent a
        different outcome), or the NIC is stalled (its per-packet
        behaviour is dropping everything unanswered).  The one test
        both burst tiers — :meth:`execute_burst` and
        :func:`repro.kernels.burst.resolve_target` — ask.
        """
        if self.nic.stalled:
            return None
        server = self.nic.qps.get(qp.dest_qpn)
        if server is None or server.state not in (QpState.RTR, QpState.RTS):
            return None
        return server

    def execute_burst(self, qp: QueuePair, wrs: list) -> int | None:
        """Execute a verb burst without touching the wire format.

        The requester QP is window-checked once, the collector NIC
        charges and executes the whole burst, and completions are
        committed in one pass — the per-report path's encode/decode
        round trip per verb is skipped while every counter, PSN, and
        memory byte ends up identical.  Returns the payload posted
        (:meth:`QueuePair.requester_complete_burst`), or None (caller
        falls back to per-packet posts) when :meth:`burst_responder`
        declines.
        """
        server = self.burst_responder(qp)
        if server is None:
            return None
        qp.requester_begin_burst(len(wrs))
        responses, fault = self.nic.execute_burst(server, wrs)
        return qp.requester_complete_burst(wrs, responses, fault=fault)

    def recover(self, client: RdmaClient) -> bool:
        """Recovery hook picked up by :meth:`RdmaClient._try_recover`.

        Direct mode wires both QP halves through this transport, so the
        responder NIC needed by :func:`recover_qp` is simply ours.
        """
        return recover_qp(client, self.nic)


def make_direct_client(nic: Nic, server_qp: QueuePair,
                       client_nic: Nic | None = None) -> RdmaClient:
    """Wire a fresh client QP against ``server_qp`` on ``nic`` directly.

    ``client_nic`` (the translator's own RDMA engine in the strawman
    per-switch-RDMA ablation) defaults to a throwaway NIC whose cost
    model is irrelevant — only the collector NIC is ever the bottleneck.
    """
    client_nic = client_nic or Nic("client")
    client_qp = client_nic.create_qp()
    transport = DirectRdmaTransport(nic)
    # Wire PSNs: client sends from 0 and the server expects 0; the
    # server's ACKs carry no data-path PSN state the client lacks.
    nic.connect_qp(server_qp, client_qp.qpn, send_psn=0, expected_psn=0)
    client_nic.connect_qp(client_qp, server_qp.qpn,
                          send_psn=0, expected_psn=0)
    client = RdmaClient(client_qp, transport)
    transport.bind(client)
    return client

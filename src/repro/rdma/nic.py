"""The simulated RDMA NIC: QP dispatch plus an analytic cost model.

Two concerns live here:

* **Function** — the NIC owns a protection domain and a set of queue
  pairs; inbound RoCEv2 packets are dispatched to the destination QP
  and executed against registered memory.  This is the collector-side
  half of the paper's Section 2.2 argument: RDMA NICs scale badly with
  connection count and tolerate no loss, which is why DTA funnels all
  telemetry through one translator-owned QP (Section 3.1).
* **Performance** — every executed message is charged against the
  calibrated cost model (:mod:`repro.calibration`):
  ``t = t_msg + payload * t_byte``, scaled by the atomic penalty
  (Section 5.1's Fetch-and-Add rate gap) and the QP-count degradation
  curve (Fig. 16).  Benchmarks convert accumulated busy time into
  achievable message/report rates, which is how the reproduction
  recovers the paper's throughput figures (Figs. 8, 10, 11) without
  100G hardware.

Busy time accumulates as an exact integer count of femtoseconds, so the
three tiers that execute messages — per-packet :meth:`Nic.receive`, the
work-request burst :meth:`Nic.execute_burst`, and the array kernels of
:mod:`repro.kernels.burst` — all account through the one
:meth:`Nic.charge` and agree by arithmetic (integer addition is
associative: ``count`` identical messages cost ``count * cost``),
whatever order or grouping they charge in.
"""

from __future__ import annotations

from repro import calibration
from repro.calibration import NicModel
from repro.obs.views import InstrumentedStats, counter_field
from repro.rdma import roce
from repro.rdma.memory import AccessFlags, MemoryRegion, ProtectionDomain
from repro.rdma.qp import QpState, QueuePair

FS_PER_NS = 1_000_000
"""Busy-time accumulator resolution.  Each message's cost is rounded to
a whole femtosecond once: at most 0.5 fs on >= ``t_msg`` = 9.52e6 fs,
so no modelled rate moves by more than 5.3e-8 relative (picoseconds
would allow 5.3e-5)."""


class NicStats(InstrumentedStats):
    """Aggregate counters + modelled busy time for one NIC."""

    component = "nic"

    messages = counter_field()
    payload_bytes = counter_field()
    atomics = counter_field()
    drops = counter_field()
    stall_drops = counter_field()
    busy_fs = counter_field()

    @property
    def busy_ns(self) -> float:
        """Modelled busy time in nanoseconds (stored exactly, in fs)."""
        return self.busy_fs / FS_PER_NS

    @busy_ns.setter
    def busy_ns(self, ns: float) -> None:
        self.busy_fs = round(ns * FS_PER_NS)

    def message_rate(self) -> float:
        """Achieved messages/s implied by the cost model."""
        if self.busy_ns == 0:
            return 0.0
        return self.messages * 1e9 / self.busy_ns

    def goodput_gbps(self) -> float:
        """Payload goodput in Gbit/s implied by the cost model."""
        if self.busy_ns == 0:
            return 0.0
        return self.payload_bytes * 8 / self.busy_ns


class Nic:
    """An RDMA-capable NIC attached to a collector host.

    Args:
        name: Diagnostic label.
        model: Cost-model constants (defaults to the calibrated
            BlueField-2-class model).
    """

    def __init__(self, name: str = "nic0",
                 model: NicModel | None = None) -> None:
        self.name = name
        self.model = model or calibration.DEFAULT_NIC_MODEL
        self.pd = ProtectionDomain()
        self.qps: dict[int, QueuePair] = {}
        self.stats = NicStats(labels={"nic": name})
        self._next_qpn = 0x11
        self._stalled = False

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------

    def register_memory(self, length: int,
                        access: AccessFlags | None = None) -> MemoryRegion:
        """Allocate and register a buffer; returns the region (with rkey)."""
        if access is None:
            access = (AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
                      | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_ATOMIC)
        return self.pd.register(length, access)

    def create_qp(self) -> QueuePair:
        """Create a QP in RESET (``ibv_create_qp``)."""
        qpn = self._next_qpn
        self._next_qpn += 1
        qp = QueuePair(qpn, self.pd)
        self.qps[qpn] = qp
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        self.qps.pop(qp.qpn, None)

    def connect_qp(self, qp: QueuePair, dest_qpn: int, *,
                   send_psn: int = 0, expected_psn: int = 0) -> None:
        """Walk the QP to RTS against a remote QPN."""
        qp.modify(QpState.INIT)
        qp.modify(QpState.RTR, dest_qpn=dest_qpn, expected_psn=expected_psn)
        qp.modify(QpState.RTS, send_psn=send_psn)

    @property
    def active_qps(self) -> int:
        """QPs in a connected state (drives the degradation curve)."""
        return sum(1 for qp in self.qps.values()
                   if qp.state in (QpState.RTR, QpState.RTS))

    # ------------------------------------------------------------------
    # Fault injection: data-path stall
    # ------------------------------------------------------------------

    def stall(self) -> None:
        """Freeze the data path (firmware hiccup / PCIe backpressure).

        While stalled, every inbound packet is dropped unanswered — to
        the requester this is indistinguishable from wire loss, so the
        normal timeout-driven go-back-N
        (:meth:`repro.core.transport.RdmaClient.resend_outstanding`)
        recovers everything once the NIC resumes.
        """
        self._stalled = True

    def resume(self) -> None:
        """End a :meth:`stall` window; the data path serves again."""
        self._stalled = False

    @property
    def stalled(self) -> bool:
        return self._stalled

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def receive(self, raw: bytes) -> bytes | None:
        """Ingest one RoCEv2 packet from the wire.

        Returns the response packet (ACK/NAK/read-response) or None if
        the packet addressed an unknown QP (silently dropped, as real
        NICs do for bogus QPNs) or the NIC is stalled.
        """
        if self._stalled:
            self.stats.drops += 1
            self.stats.stall_drops += 1
            return None
        try:
            pkt = roce.decode(raw)
        except roce.RoceDecodeError:
            self.stats.drops += 1
            return None
        qp = self.qps.get(pkt.bth.dest_qp)
        if qp is None or qp.state not in (QpState.RTR, QpState.RTS):
            # Unknown or torn-down QP: silently discarded, like real
            # NICs do for traffic addressing a dead connection.
            self.stats.drops += 1
            return None
        self.charge(1, len(pkt.payload),
                    atomic=pkt.verb is not None and pkt.verb.is_atomic)
        return qp.responder_receive(pkt)

    def charge(self, count: int, payload_bytes: int, *,
               atomic: bool = False,
               degradation: float | None = None) -> None:
        """Account ``count`` identical executed messages.

        ``payload_bytes`` is the on-wire request payload per message
        (:mod:`repro.rdma.roce` framing: writes and sends carry their
        data; READ requests and atomics, whose operands ride in the
        AtomicETH, carry none).  ``degradation`` pins a QP-count factor
        sampled earlier — a burst samples the census once, before any
        of its requests can error a QP out of it.
        """
        model = self.model
        if degradation is None:
            degradation = model.qp_degradation(self.active_qps)
        t = model.t_msg_ns + payload_bytes * model.t_byte_ns
        stats = self.stats
        if atomic:
            t *= model.fetch_add_penalty
            stats.atomics += count
        stats.messages += count
        stats.payload_bytes += count * payload_bytes
        stats.busy_fs += count * round(t * degradation * FS_PER_NS)

    def execute_burst(self, qp: QueuePair, wrs) -> tuple[list, bool]:
        """Charge and execute a burst on a resident responder QP.

        The cost model samples the QP census once (before any request
        can error the QP out of the census), then the responder executes
        the burst, counting message shapes as it goes; every executed
        message — plus the one that faulted, which the per-packet path
        also charges before NAKing — is charged, one :meth:`charge` per
        distinct message shape.
        Returns the responder's ``(responses, fault)`` pair.
        """
        degradation = self.model.qp_degradation(self.active_qps)
        responses, fault, shapes = qp.responder_execute_burst(wrs)
        for (payload, atomic), count in shapes.items():
            self.charge(count, payload, atomic=atomic,
                        degradation=degradation)
        return responses, fault

    def reset_stats(self) -> None:
        self.stats = NicStats(labels={"nic": self.name})


def modelled_collection_rate(payload_bytes: int, reports_per_message: int,
                             *, writes_per_report: int = 1,
                             atomic: bool = False, active_qps: int = 1,
                             model: NicModel | None = None) -> float:
    """Reports/s the collector NIC sustains for a DTA configuration.

    This is the headline throughput formula used across Figs. 8, 10, 11:
    a message carries ``reports_per_message`` reports (Append batching,
    Postcarding chunking) or each report costs ``writes_per_report``
    messages (Key-Write redundancy N).
    """
    model = model or calibration.DEFAULT_NIC_MODEL
    msg_rate = model.message_rate(payload_bytes, atomic=atomic,
                                  active_qps=active_qps)
    return msg_rate * reports_per_message / writes_per_report

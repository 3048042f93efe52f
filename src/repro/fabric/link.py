"""Point-to-point links with serialisation, queuing, latency, and loss.

A link connects a sender to a receiver node.  Packets serialise at the
link rate behind a finite FIFO (tail-drop), propagate after a fixed
delay, and may be dropped at random with a configured loss probability —
the condition that breaks raw RDMA (Section 2.2(3)) and that DTA's
NACK-based retransmission recovers from on the reporter-translator path.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro import calibration
from repro.fabric.simulator import Simulator
from repro.obs.views import InstrumentedStats, counter_field


class LinkStats(InstrumentedStats):
    """Per-link counters."""

    component = "link"

    sent = counter_field()
    delivered = counter_field()
    random_drops = counter_field()
    queue_drops = counter_field()
    fault_drops = counter_field()
    bytes_sent = counter_field()

    @property
    def drops(self) -> int:
        # fault_drops is a sub-count of random_drops (every fault-window
        # loss is also recorded there), so it must not be added again.
        return self.random_drops + self.queue_drops


class Link:
    """One unidirectional link.

    Args:
        sim: The event simulator driving delivery.
        deliver: Callback invoked with each delivered packet.
        rate_gbps: Line rate (serialisation delay = bytes*8/rate).
        latency_s: Propagation delay.
        loss: Per-packet random loss probability.
        queue_packets: FIFO capacity ahead of the serialiser.
        seed: RNG seed for the loss process (deterministic runs).
    """

    def __init__(self, sim: Simulator, deliver: Callable[[Any], None], *,
                 rate_gbps: float = calibration.LINE_RATE_GBPS,
                 latency_s: float = 1e-6, loss: float = 0.0,
                 queue_packets: int = 1024, seed: int = 0,
                 name: str = "link") -> None:
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be a probability")
        self.sim = sim
        self.deliver = deliver
        self.rate_bps = rate_gbps * 1e9
        self.latency_s = latency_s
        self.loss = loss
        self.queue_packets = queue_packets
        self.name = name
        self.stats = LinkStats(labels={"link": name})
        self._rng = random.Random(seed)
        self._busy_until = 0.0
        self._queued = 0
        self._fault_loss: float | None = None

    # -- fault injection ---------------------------------------------------

    def begin_fault(self, loss: float = 1.0) -> None:
        """Open a fault window: raise the loss process to ``loss``.

        ``loss=1.0`` is a blackout (link down); smaller values model a
        lossy burst (flaky optics, a microburst-saturated uplink).  The
        window stays open until :meth:`end_fault`; drops inside it are
        counted in ``fault_drops`` (and in ``random_drops``, keeping the
        aggregate ``drops`` series comparable with fault-free runs).
        """
        if not 0.0 < loss <= 1.0:
            raise ValueError("fault loss must be in (0, 1]")
        self._fault_loss = loss

    def end_fault(self) -> None:
        """Close the fault window; the baseline loss process resumes."""
        self._fault_loss = None

    @property
    def fault_active(self) -> bool:
        return self._fault_loss is not None

    def _drop_decision(self) -> tuple[bool, bool]:
        """Decide one packet's fate: ``(dropped, in_fault_window)``.

        RNG draw ordering is the determinism contract: a baseline-lossy
        link draws exactly once per packet whether or not a fault window
        is open (even a blackout, which needs no draw, still consumes
        the baseline draw), so the packets *after* the window see the
        same draws as in a run where the window closed earlier.
        """
        draw = self._rng.random() if self.loss > 0 else None
        if self._fault_loss is not None:
            p = max(self.loss, self._fault_loss)
            if p >= 1.0:
                return True, True
            if draw is None:
                draw = self._rng.random()
            return draw < p, True
        return draw is not None and draw < self.loss, False

    def wire_bytes(self, payload_bytes: int) -> int:
        """On-wire frame size including Ethernet framing overhead."""
        frame = max(payload_bytes, calibration.MIN_FRAME_BYTES)
        return frame + calibration.ETHERNET_OVERHEAD_BYTES

    def send(self, packet: Any, size_bytes: int) -> bool:
        """Enqueue a packet; returns False if tail-dropped."""
        self.stats.sent += 1
        if self._queued >= self.queue_packets:
            self.stats.queue_drops += 1
            return False
        self.stats.bytes_sent += size_bytes
        self._enqueue(packet, size_bytes)
        return True

    def send_batch(self, items) -> int:
        """Enqueue ``(packet, size_bytes)`` pairs in one stats pass.

        Per-packet mechanics — tail-drop decisions, serialisation
        ordering, and (crucially for determinism) the per-packet loss
        RNG draws — are identical to calling :meth:`send` per item;
        only the counter updates are amortised.  Returns the number of
        packets accepted into the queue.
        """
        sent = 0
        accepted = 0
        tail_drops = 0
        sent_bytes = 0
        for packet, size_bytes in items:
            sent += 1
            if self._queued >= self.queue_packets:
                tail_drops += 1
                continue
            sent_bytes += size_bytes
            self._enqueue(packet, size_bytes)
            accepted += 1
        self.stats.sent += sent
        if tail_drops:
            self.stats.queue_drops += tail_drops
        self.stats.bytes_sent += sent_bytes
        return accepted

    def _enqueue(self, packet: Any, size_bytes: int) -> None:
        """Schedule one accepted packet (serialise, propagate, lose)."""
        self._queued += 1

        serialise = self.wire_bytes(size_bytes) * 8 / self.rate_bps
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + serialise
        done = self._busy_until + self.latency_s

        dropped, faulted = self._drop_decision()

        def arrive() -> None:
            self._queued -= 1
            if dropped:
                self.stats.random_drops += 1
                if faulted:
                    self.stats.fault_drops += 1
                return
            self.stats.delivered += 1
            self.deliver(packet)

        self.sim.at(done, arrive)


class StreamLink:
    """Carrier-granular link accounting for the streaming runtime.

    The runtime's reporter->translator hop is lossless by construction
    (PFC semantics: backpressure comes from the engine's bounded credit
    queues, never from tail drops), so this link performs no event
    simulation and draws no RNG — its accounting is a pure function of
    the carriers that cross it, which keeps streamed obs digests
    bit-identical across worker counts.  The one non-deterministic
    thing a real wire does — going down — is modelled as an explicit
    fault window (:meth:`begin_fault`), the hook
    :class:`repro.faults.FaultInjector`-style plans use to black out
    the hop mid-stream; carriers sent inside the window are dropped
    whole and counted in ``fault_drops``.
    """

    def __init__(self, name: str = "stream") -> None:
        self.name = name
        self.stats = LinkStats(labels={"link": name})
        self._fault = False

    def begin_fault(self) -> None:
        """Open a blackout window: every carrier is dropped whole."""
        self._fault = True

    def end_fault(self) -> None:
        """Close the blackout window; delivery resumes."""
        self._fault = False

    @property
    def fault_active(self) -> bool:
        return self._fault

    def transmit(self, reports: int, size_bytes: int) -> bool:
        """Charge one carrier crossing the hop; False means dropped.

        ``reports`` DTA reports totalling ``size_bytes`` on-wire bytes
        (see :meth:`ReportBatch.wire_bytes
        <repro.core.batch.ReportBatch.wire_bytes>`).  Bytes are charged
        even for a blacked-out carrier — the frames left the reporter;
        they just never arrived.
        """
        self.stats.sent += reports
        self.stats.bytes_sent += size_bytes
        if self._fault:
            self.stats.random_drops += reports
            self.stats.fault_drops += reports
            return False
        self.stats.delivered += reports
        return True

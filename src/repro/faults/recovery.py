"""Recovery machinery: QP re-handshake binding, translator failover,
and the controller recovery sweep.

Three layers bring a faulted deployment back to "every essential report
queryable":

* **QP recovery** — :func:`bind_qp_recovery` installs the controller
  hook (:func:`repro.core.transport.recover_qp`) on a fabric-mode
  client, so a fatal NAK triggers the ERROR -> RESET -> INIT -> RTR ->
  RTS re-handshake with unacked-WR replay instead of poisoning every
  later post.
* **Failover** — :class:`FailoverManager` moves a reporter stream to a
  standby translator mid-run, carrying the loss-detector sequence state
  across so the standby NACKs real gaps instead of forgiving them via
  first-contact acceptance.  :func:`ha_star` builds the topology with
  the standby wired in.
* **Recovery sweep** — :func:`drain_losses` is the controller's
  bounded reconciliation loop: replay every NACKed-but-unfilled
  sequence from reporter backups, re-send silent tails no NACK will
  ever cover (the translator only detects a gap when a *later* report
  arrives), abandon sequences whose backup copies were evicted, and
  re-drive go-back-N on the RoCE leg.
"""

from __future__ import annotations

from repro import obs
from repro.core.flow_control import SEQ_MOD, seq_distance
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.core.transport import RdmaClient, recover_qp
from repro.fabric.simulator import Simulator
from repro.fabric.topology import Topology
from repro.rdma.nic import Nic
from repro.rdma.qp import QpState


def bind_qp_recovery(client: RdmaClient, server_nic: Nic) -> RdmaClient:
    """Install the controller QP-recovery hook on a fabric-mode client.

    Direct mode needs no binding — :class:`DirectRdmaTransport` exposes
    ``recover`` itself.  Fabric mode's send function is a link lambda,
    so the controller (which *does* know the collector NIC, Section 4.2)
    binds the hook explicitly.  The re-handshake runs synchronously over
    the controller's out-of-band channel, not the data-plane links.
    """
    client.recover_fn = lambda c, nic=server_nic: recover_qp(c, nic)
    return client


def ha_star(reporters: list, primary: Translator, standby: Translator,
            collector, *, reporter_loss: float = 0.0, seed: int = 0,
            sim: Simulator | None = None) -> Topology:
    """The DTA star with a standby translator wired for takeover.

    Every reporter gets an extra (equally lossy) link to the standby,
    and the standby gets its own lossless hop to the collector — the
    redundant-translator deployment the failover analysis assumes.
    Link RNG seeds are distinct from the primary star's so the two
    loss processes are independent.
    """
    topo = Topology.dta_star(reporters, primary, collector,
                             reporter_loss=reporter_loss, seed=seed,
                             sim=sim)
    topo.add(standby)
    for i, reporter in enumerate(reporters):
        topo.wire(reporter.name, standby.name, loss=reporter_loss,
                  seed=seed + 10 * i + 5)
    topo.wire(standby.name, collector.name, loss=0.0,
              seed=seed + 1_000_007)
    return topo


class FailoverManager:
    """Moves a reporter stream from a primary to a standby translator.

    The takeover models the controller's failover procedure: copy the
    primary's loss-detector sequence state to the standby (state sync
    over the controller channel — without it, first-contact acceptance
    would silently forgive every report lost around the crash), then
    redirect each reporter.  Fabric-mode reporters are re-pointed at the
    standby node; direct-mode reporters get their transmit callable
    swapped.
    """

    def __init__(self, primary: Translator, standby: Translator,
                 reporters: list) -> None:
        self.primary = primary
        self.standby = standby
        self.reporters = list(reporters)
        self.active = primary
        self.took_over = False

    def takeover(self) -> Translator:
        """Promote the standby; idempotent once taken over."""
        if self.took_over:
            return self.active
        self.standby.loss.import_state(self.primary.loss.export_state())
        for reporter in self.reporters:
            if reporter.transmit is not None:
                reporter.transmit = self.standby.handle_report
            else:
                reporter.translator = self.standby.name
        self.active = self.standby
        self.took_over = True
        obs.emit("faults", "failover", primary=self.primary.name,
                 standby=self.standby.name,
                 reporters=len(self.reporters))
        return self.active


def _reconcile_tail(translator: Translator, reporter: Reporter) -> int:
    """Re-send the silent tail of one reporter's essential stream.

    Reports lost at the very end of an outage are invisible to NACK
    detection — a gap only shows when a *later* essential report
    arrives.  The controller compares the translator's expected counter
    with the reporter's next sequence (state both ends will hand over a
    control channel) and replays the difference from the backup.
    Unrecoverable holes advance the expected counter and are counted
    ``lost_forever``.  Returns the number of re-sends issued.
    """
    rid = reporter.reporter_id
    expected = translator.loss.expected_seq(rid)
    work = 0
    if expected is None:
        # The translator never saw this reporter (crashed before first
        # contact, or a standby without imported state): replay the
        # whole live backup; first-contact retransmit handling adopts
        # the counter and the rest advance it.
        for seq in reporter.backup.seqs():
            reporter.resend_from_backup(seq)
            work += 1
        return work
    gap = seq_distance(reporter._seq, expected)
    if gap == 0 or gap > SEQ_MOD // 2:
        return 0
    capacity = reporter.backup.capacity
    if gap > capacity:
        # Everything older than the backup window is gone for good.
        lost = gap - capacity
        expected = (expected + lost) % SEQ_MOD
        translator.loss.force_expected(rid, expected)
        reporter.stats.lost_forever += lost
        obs.emit("faults", "tail_lost", reporter=rid, count=lost)
        gap = capacity
    for i in range(gap):
        seq = (expected + i) % SEQ_MOD
        if reporter.resend_from_backup(seq):
            work += 1
        else:
            translator.loss.force_expected(rid, (seq + 1) % SEQ_MOD)
            reporter.stats.lost_forever += 1
            obs.emit("faults", "tail_lost", reporter=rid, count=1)
    return work


def recover_stream(engine, reporters: list, *, rounds: int = 8) -> int:
    """Recovery sweep for a drained streaming engine.

    The streaming runtime (:class:`repro.runtime.StreamEngine`)
    collects translator control frames (NACKs, congestion signals)
    instead of short-circuiting them into reporter state mid-stream —
    single-writer determinism — and, in direct deployments without a
    control sink, still holds them after :meth:`drain
    <repro.runtime.StreamEngine.drain>`.  This sweep is the streaming
    counterpart of :func:`drain_losses`: apply those frames to their
    reporters (serving the NACKs, raising congestion levels), then run
    the ordinary controller reconciliation over the engine's
    translator.  Call it after ``drain()``/``close()``, exactly where a
    serial run would call :func:`drain_losses`.  Returns control frames
    applied plus re-sends issued.
    """
    from repro.core import packets

    by_id = {reporter.reporter_id: reporter for reporter in reporters}
    frames, engine.pending_controls = list(engine.pending_controls), []
    work = 0
    for _src, raw in frames:
        header, op = packets.decode_report(raw)
        reporter = by_id.get(header.reporter_id)
        if reporter is None:
            continue
        if isinstance(op, packets.Nack):
            work += reporter.handle_nack(op)
        elif isinstance(op, packets.CongestionSignal):
            reporter.handle_congestion(op)
    return work + drain_losses([engine.translator], reporters,
                               rounds=rounds)


def drain_losses(translators: list, reporters: list, *,
                 sim: Simulator | None = None, rounds: int = 8) -> int:
    """Controller recovery sweep: replay every recoverable report.

    Each round: for every *serving* translator (crashed ones are
    skipped), replay the NACKed-but-unfilled sequences from reporter
    backups (abandoning those the backups evicted — their loss was
    already accounted when the NACK was served), reconcile silent
    tails, and re-drive go-back-N on the RoCE leg (which recovers
    NIC-stall and translator-collector blackout losses).  In fabric
    mode the simulator is drained between rounds so retransmissions
    land — and may themselves be lost, which the next round sees and
    repairs.  Stops early once a round finds nothing to do; ``rounds``
    bounds the sweep against permanently-broken setups.

    Pass the translators currently *serving* the given reporters (after
    failover: the active one) — reconciling a stream against a
    translator that no longer serves it only produces duplicate
    retransmissions.  Returns the total re-sends issued.
    """
    by_id = {reporter.reporter_id: reporter for reporter in reporters}
    total = 0
    for _ in range(rounds):
        work = 0
        for translator in translators:
            if translator.crashed:
                continue
            for rid in translator.loss.awaiting_runs():
                reporter = by_id.get(rid)
                if reporter is None:
                    continue
                for seq in translator.loss.settle(rid,
                                                  reporter.backup.seqs()):
                    work += reporter.resend_from_backup(seq)
            for reporter in by_id.values():
                work += _reconcile_tail(translator, reporter)
            client = translator.client
            if client is not None:
                if client.qp.state == QpState.ERROR:
                    # A fatal NAK with no later post leaves captured
                    # work requests stranded; recovery replays them.
                    if client._try_recover():
                        work += 1
                if client.qp._unacked:
                    work += client.resend_outstanding()
        if sim is not None:
            sim.run()
        total += work
        if work == 0:
            break
    return total

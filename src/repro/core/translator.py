"""The DTA translator: ToR switch converting DTA reports into RDMA verbs.

This is the system's centrepiece (Sections 3.1 and 4.2).  The translator

* owns the single RDMA connection to its collector (solving the
  QP-scaling and multi-writer problems),
* runs each primitive's aggregation — redundancy fan-out, the
  Postcarding cache, Append batching, sketch merging — in that
  primitive's lane,
* detects lost essential reports via per-reporter counters and bounces
  NACKs (Figure 5).

What a primitive *does* lives in its lane class, next to its store
(``core/stores/<primitive>.py``): one ``check`` (the validation), one
``scalar`` reference (which every digest gate anchors to) and one
``plan`` (the vector fast path, returned as a
:class:`~repro.kernels.burst.VectorPlan`).
This module is what is per-report and primitive-agnostic:
loss detection and NACK, the immediate flag, crash and restart, burst
accounting, and the one vector-eligibility decision
(:meth:`Translator.plan_batch` / :meth:`Translator.plan_columns`).
:meth:`Translator.process_batch` consumes a whole
:class:`~repro.core.batch.ReportBatch` — the hot path that amortises
counter updates and posts RDMA verbs in bursts (the software analogue
of Section 4.3's aggregation argument); :meth:`Translator.handle_report`
processes one wire-format report by feeding a one-row column set
through the same scalar lane, so the two are bit-identical in counters
and collector memory by construction as well as by differential test.
"""

from __future__ import annotations

from functools import partial

from repro import calibration, obs
from repro.core import packets, primitives
from repro.core.flow_control import LossDetector
from repro.core.packets import DtaFlags
from repro.core.transport import CtrlFrame, DtaFrame, RdmaClient, RoceFrame
from repro.fabric.topology import Node
from repro.kernels import MIN_VECTOR_BATCH, burst as kburst
from repro.rdma.cm import ServiceAdvert
from repro.rdma.verbs import ATOMIC_BYTES, Opcode


class TranslatorStats(obs.InstrumentedStats):
    """Everything the evaluation wants to count."""

    component = "translator"

    reports_in = obs.counter_field()
    rdma_writes = obs.counter_field()
    rdma_atomics = obs.counter_field()
    rdma_payload_bytes = obs.counter_field()
    keywrites = obs.counter_field()
    keyincrements = obs.counter_field()
    postcards = obs.counter_field()
    postcard_chunks_complete = obs.counter_field()
    postcard_chunks_early = obs.counter_field()
    appends = obs.counter_field()
    append_batches = obs.counter_field()
    sketch_columns = obs.counter_field()
    sketch_column_nacks = obs.counter_field()
    sketch_batches = obs.counter_field()
    nacks_sent = obs.counter_field()
    immediate_writes = obs.counter_field()
    dropped_while_crashed = obs.counter_field()

    @property
    def rdma_messages(self) -> int:
        return self.rdma_writes + self.rdma_atomics


class Translator(Node):
    """A DTA translator bound to one collector.

    Args:
        name: Node name (fabric mode addressing).
        max_reporters: Loss-detector provisioning (Section 5.3: 65K).
    """

    def __init__(self, name: str = "translator", *,
                 max_reporters: int = calibration.RETRANSMIT_MAX_REPORTERS,
                 vectorized: bool = False) -> None:
        super().__init__(name)
        #: Batched lanes use the numpy kernels (repro.kernels) when a
        #: batch is large enough and the burst is eligible; every other
        #: case — tiny batches, fault-prone targets, per-report-lane
        #: triggers — falls back to the scalar reference path, which the
        #: kernels are differentially tested bit-exact against.
        self.vectorized = bool(vectorized)
        self.client: RdmaClient | None = None
        self.stats = TranslatorStats(labels={"node": name})
        self.loss = LossDetector(max_reporters, labels={"node": name})
        self.control_sink = None   # callable(src, raw) in direct mode
        self._crashed = False
        #: ``primitive code -> lane`` for every configured service.
        self._lanes: dict = {}
        self._pending_imm: int | None = None
        self._payload_hist = obs.get_registry().declare_histogram(
            "translator.rdma_payload_hist", node=name)
        self.append_batch_hist = obs.get_registry().declare_histogram(
            "translator.append_batch_hist", node=name)
        self.now = 0.0

    # ------------------------------------------------------------------
    # Control plane: service configuration from collector adverts
    # ------------------------------------------------------------------

    def attach_rdma(self, client: RdmaClient) -> None:
        """Bind the requester side of the translator<->collector QP."""
        self.client = client

    def configure(self, advert: ServiceAdvert) -> None:
        """Install a primitive service from its CM advertisement."""
        primitive = primitives.BY_SERVICE.get(advert.primitive)
        if primitive is None:
            raise ValueError(
                f"unknown primitive service '{advert.primitive}'")
        self._lanes[primitive.code] = primitive.home.LANE(self, advert)

    # ------------------------------------------------------------------
    # Fabric-mode entry point
    # ------------------------------------------------------------------

    def receive(self, packet) -> None:
        if self._crashed:
            self.stats.dropped_while_crashed += 1
            return
        if isinstance(packet, DtaFrame):
            self.handle_report(packet.raw, src=packet.src)
        elif isinstance(packet, RoceFrame):
            if self.client is not None:
                self.client.deliver_response(packet.raw)
        else:
            raise TypeError(f"translator got unexpected {packet!r}")

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def handle_report(self, raw: bytes, *, src: str | None = None,
                      now: float | None = None) -> None:
        """Process one DTA report end to end.

        Everything per-report lives here — decode, loss
        detection / NACK, the immediate flag — and the report then runs
        through the scalar reference lanes as a one-row column set, the
        same code :meth:`process_batch` runs over N rows.
        """
        if self._crashed:
            self.stats.dropped_while_crashed += 1
            return
        if now is not None:
            self.now = now
        header, op = packets.decode_report(raw)
        # A report NACKed below was still received; every other report
        # is counted by the lane that translates it.

        # Loss detection for essential reports.
        if header.essential:
            nack = self.loss.check(
                header.reporter_id, header.seq,
                retransmit=bool(header.flags & DtaFlags.RETRANSMIT))
            if nack is not None:
                self.stats.reports_in += 1
                self.stats.nacks_sent += 1
                obs.emit("translator", "nack_sent", node=self.name,
                         reporter=header.reporter_id,
                         expected_seq=nack.expected_seq,
                         missing=nack.missing)
                self._send_control(src, header.reporter_id, nack)
                return  # processing aborted; the report will be re-sent

        # Section 6, push notifications: an immediate-flagged report
        # turns its (first) RDMA write into WRITE_WITH_IMM, raising a
        # CPU interrupt at the collector.  The 32-bit immediate encodes
        # (primitive, reporter) so the CPU knows what just landed.
        if header.flags & DtaFlags.IMMEDIATE:
            self._pending_imm = (int(header.primitive) << 16) \
                | header.reporter_id
        try:
            primitive = primitives.BY_CODE.get(header.primitive)
            if primitive is None:
                raise ValueError(f"translator cannot process {op!r}")
            cols = primitive.row(op)
            lane = self._scalar(primitive, cols, primitive.extra_of(op),
                                header.reporter_id, src)
            if self._pending_imm is not None:
                self._post_burst(lane.immediate(cols))
        finally:
            self._pending_imm = None

    # ------------------------------------------------------------------
    # Batched data plane
    # ------------------------------------------------------------------

    def process_batch(self, batch, *, src: str | None = None,
                      now: float | None = None) -> None:
        """Process a :class:`~repro.core.batch.ReportBatch` end to end.

        The hot path: per-batch counter updates and burst-posted RDMA
        verbs, with collector memory and every obs counter bit-identical
        to feeding the batch's reports through :meth:`handle_report`
        one by one (enforced by ``tests/core/test_batch_differential``).
        A vector-eligible batch of any primitive runs as one
        :class:`~repro.kernels.burst.VectorPlan` (:meth:`plan_batch`
        decides); every other batch takes the scalar reference lane of
        its primitive.

        Batches that involve per-report control-plane state — essential
        sequence tracking, immediate flags — go through
        :meth:`handle_report` report by report, which keeps their
        semantics (NACK generation, WRITE_IMM conversion) exactly as
        specified.
        Unlike the per-report entry point, a batch is validated whole,
        so a malformed batch raises before any state changes.
        """
        if self._crashed:
            self.stats.dropped_while_crashed += len(batch)
            return
        if now is not None:
            self.now = now
        if len(batch) == 0:
            return
        if batch.essential or batch.immediate:
            for raw in batch.iter_raw():
                self.handle_report(raw, src=src)
            return
        plan = self.plan_batch(batch)
        if plan is not None:
            plan.apply(self.client)
            return
        primitive = primitives.BY_CODE[batch.primitive]
        self._scalar(primitive, primitive.columns_of(batch),
                     primitive.extra_of(batch), batch.reporter_id, src)

    def check(self, kind, cols, extra=None):
        """What this translator's service rejects the ``kind`` reports
        ``cols`` (with run-wide ``extra``) for — the exception
        :meth:`process_batch` / :meth:`handle_report` would raise for
        them, unraised — or None.  Touches nothing: the one validation
        of a primitive (its lane's ``check``), for callers that must
        not let outside input raise through them.
        """
        lane = self._lanes.get(kind)
        if lane is None:
            return RuntimeError(f"{primitives.BY_CODE[kind].wire.label} "
                                "service not configured")
        return lane.check(cols, extra) if len(cols[0]) else None

    def _scalar(self, primitive, cols, extra, reporter_id, src):
        """The scalar reference: check, charge, run the lane, post."""
        error = self.check(primitive.code, cols, extra)
        if error is not None:
            raise error     # before any counter or state moved
        lane = self._lanes[primitive.code]
        self._count(primitive, len(cols[0]))
        self._post_burst(lane.scalar(
            cols, extra, reporter_id,
            partial(self._send_control, src, reporter_id)))
        return lane

    # -- vector fast path: one plan per primitive --------------------------

    def plan_batch(self, batch, client=None, *, arrays=None):
        """:meth:`plan_columns` for a batch object: a charged
        :class:`~repro.kernels.burst.VectorPlan`, or None (no state
        touched) for the scalar lane.

        :meth:`process_batch` (hence the serial path), the streaming
        engine's translate stage and the process lane's parent side ask
        here.  A batch carrying essential / immediate flags is never
        planned; any other reaches its lane's ``plan`` (which advances
        whatever state the scalar lane would, or declines having
        touched nothing) only once the decision went its way, so a
        declined batch costs a few attribute reads.  ``client``
        defaults to the attached one (the engine passes the real
        client while its verb recorder is attached); ``arrays`` is
        ``(indices, payload)`` as a plan worker computed them from
        :meth:`plan_request`.
        """
        if batch.essential or batch.immediate:
            return None
        reports = len(batch)
        hit = self._vector_target(batch.primitive, reports, client)
        if hit is None:
            return None
        lane, target = hit
        if arrays is None:
            primitive = lane.primitive
            arrays = lane.plan(primitive.columns_of(batch),
                               primitive.extra_of(batch),
                               batch.reporter_id, target)
            if arrays is None:
                return None
        return self._charge(lane, reports, *arrays)

    def may_merge(self, batch) -> bool:
        """Whether ``batch`` may wait to be planned as part of a wider
        run of its neighbours (``docs/CONCURRENCY.md``, "Plan width is
        not observable"): a plain batch — no essential or immediate
        flag — that the configured service accepts (an exception is
        not a sum), on a running translator that vectorizes.
        :meth:`plan_batch` still decides for the run.
        """
        if not (self.vectorized and not self._crashed
                and not (batch.essential or batch.immediate)):
            return False
        lane = self._lanes.get(batch.primitive)
        if lane is None:
            return False
        primitive = lane.primitive
        return self.check(primitive.code, primitive.columns_of(batch),
                          primitive.extra_of(batch)) is None

    def plan_columns(self, kind, reports: int, packed, lengths, third,
                     redundancy: int, client=None):
        """The one vector-eligibility decision, over columns: a charged
        :class:`~repro.kernels.burst.VectorPlan`, or None (no state
        touched) for the scalar lane.

        ``packed`` / ``lengths`` are the ``reports`` keys in any form
        :func:`~repro.kernels.crc.hash_lanes_at` takes (a packed matrix,
        or the keys' CRC registers); ``third`` the Key-Write data matrix
        (zero-padded to any width — one wider than the slot declines, as
        the scalar lane raises for it) or the Key-Increment int64
        addends.  Eligible
        means :meth:`_vector_target` resolves a burst target *and*
        the lane's ``plan_columns`` accepts the columns (indices inside
        the region).  Nothing here depends on how many reports one call
        carries beyond ``MIN_VECTOR_BATCH``: every series a plan
        charges is a sum, so the socket lane hands over whatever a
        receive burst delivered for the shard (``docs/CONCURRENCY.md``,
        "Plan width is not observable").
        """
        hit = self._vector_target(kind, reports, client)
        if hit is None or hit[0].plan_columns is None:
            return None     # no plan from columns: its runs come as batches
        lane, target = hit
        arrays = lane.plan_columns(packed, lengths, third, redundancy,
                                   target)
        if arrays is None:
            return None
        return self._charge(lane, reports, *arrays)

    def _count(self, primitive, reports: int) -> TranslatorStats:
        """``reports`` more reports of ``primitive`` translated."""
        stats = self.stats
        stats.reports_in += reports
        setattr(stats, primitive.stat,
                getattr(stats, primitive.stat) + reports)
        return stats

    def _charge(self, lane, reports: int, indices, payload):
        """Charge a computed plan's counters and commit it."""
        primitive = lane.primitive
        stats = self._count(primitive, reports)
        requests = len(indices)
        if primitive.atomic:
            stats.rdma_atomics += requests
            sizes = {8: requests}
        else:
            stats.rdma_writes += requests
            sizes = (kburst.write_sizes(payload)
                     if isinstance(payload, list)
                     else {payload.shape[1]: requests})
        for size, count in sizes.items():
            stats.rdma_payload_bytes += size * count
            self._payload_hist.observe_repeated(size, count)
        return kburst.VectorPlan(primitive.atomic, lane.rkey,
                                 lane.layout.base_addr, lane.stride,
                                 indices, payload, reports)

    def _vector_target(self, kind, reports: int, client):
        """``(lane, burst target)`` if ``reports`` plain reports of
        ``kind`` may run as a plan: vectorization on,
        ``MIN_VECTOR_BATCH`` reports or more, translator up,
        the service configured, and ``client`` resolving to a healthy
        direct-mode burst target whose region is the one the layout
        describes.
        """
        if (not self.vectorized or reports < MIN_VECTOR_BATCH
                or self._crashed):
            return None
        lane = self._lanes.get(kind)
        if lane is None:
            return None
        target = kburst.resolve_target(
            self.client if client is None else client, lane.rkey,
            atomic=lane.primitive.atomic)
        layout = lane.layout
        if (target is None or layout.base_addr != target.region.addr
                or layout.region_bytes > target.region.length):
            return None
        return lane, target

    def plan_request(self, batch, client=None):
        """What a plan worker needs to compute ``batch``'s arrays —
        ``(kind, layout, region_length, packed, lengths, third,
        fanout)``, the lane's ``kernel`` arguments — or None when
        the batch is not worth shipping.  Touches no state: the arrays
        come back through :meth:`plan_batch`, which still decides.
        """
        if batch.essential or batch.immediate:
            return None
        hit = self._vector_target(batch.primitive, len(batch), client)
        if hit is None or hit[0].plan_columns is None:
            return None     # the stateful plans are made where they apply
        lane, target = hit
        columns = lane.request(lane.primitive.columns_of(batch),
                               batch.redundancy)
        if columns is None:
            return None
        return (batch.primitive, lane.layout, target.region.length,
                *columns)

    def plan_vector_keywrite(self, batch, target):
        """A Key-Write scatter plan ``(row_indices, rows)`` — what
        ``kernels.burst.write_rows`` takes — or, for a Key-Increment
        batch, the scatter-add plan ``(counter_indices, addends)`` for
        ``kernels.burst.fetch_add_many``; None when the columns are
        not vector-eligible.  Hashing, entry encoding and bounds
        validation against ``target``'s region; no state touched.
        """
        primitive = primitives.BY_CODE[batch.primitive]
        return self._lanes[primitive.code].plan(
            primitive.columns_of(batch), batch.redundancy,
            batch.reporter_id, target)

    plan_vector_keyincrement = plan_vector_keywrite

    # -- fault injection: fail-stop crash --------------------------------

    def crash(self) -> None:
        """Fail-stop fault: drop every frame until :meth:`restart`.

        Reports and RoCE responses alike hit the floor (counted in
        ``dropped_while_crashed``).  Reporters keep emitting — their
        essential reports stay in local backups, and the sequence gap
        the outage leaves behind is NACKed on the first essential report
        after restart, which is what drives re-delivery.
        """
        self._crashed = True
        obs.emit("translator", "crash", node=self.name)

    def restart(self) -> None:
        """Recover from :meth:`crash` (warm restart).

        Bindings and sequence state survive — they live in switch-CPU
        memory, which the controller restores.  Reports dropped during
        the outage are only *detected* when the next essential report
        exposes the gap; a silent tail (no further traffic) needs the
        recovery sweep (:func:`repro.faults.recovery.drain_losses`).
        """
        self._crashed = False
        obs.emit("translator", "restart", node=self.name)

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _send_control(self, src: str | None, reporter_id: int,
                      message) -> None:
        raw = packets.make_report(message, reporter_id=reporter_id)
        if src is not None and src in self._links:
            self.send(src, CtrlFrame(src=self.name, raw=raw),
                      len(raw) + 42)
        elif self.control_sink is not None:
            self.control_sink(src, raw)

    # -- RDMA emission ---------------------------------------------------

    def _post_burst(self, wrs: list) -> None:
        """Post a burst of verbs with one accounting pass.

        The only way a scalar lane reaches the RDMA client.  A pending
        immediate (set by :meth:`handle_report`) converts the burst's
        first WRITE into WRITE_WITH_IMM and is consumed by it.
        """
        if not wrs:
            return
        client = self.client
        if client is None:
            raise RuntimeError("translator has no RDMA connection")
        if self._pending_imm is not None:
            for wr in wrs:
                if wr.opcode is Opcode.WRITE:
                    wr.opcode = Opcode.WRITE_IMM
                    wr.imm = self._pending_imm
                    self._pending_imm = None
                    self.stats.immediate_writes += 1
                    break
        client.post_burst(wrs)
        atomics = 0
        sizes: dict = {}
        for wr in wrs:
            # ``wr.payload_bytes``, inlined: this loop runs per verb.
            opcode = wr.opcode
            if opcode.is_atomic:
                atomics += 1
                size = ATOMIC_BYTES
            else:
                size = 0 if opcode is Opcode.READ else len(wr.data)
            sizes[size] = sizes.get(size, 0) + 1
        stats = self.stats
        if atomics:
            stats.rdma_atomics += atomics
        if len(wrs) > atomics:
            stats.rdma_writes += len(wrs) - atomics
        payload = 0
        for size, count in sizes.items():
            payload += size * count
            self._payload_hist.observe_repeated(size, count)
        stats.rdma_payload_bytes += payload

    # -- per-service helpers the deployment drives ------------------------

    def flush_appends(self) -> None:
        """Flush every partially-filled Append batch (epoch end)."""
        lane = self._lanes.get(primitives.APPEND.code)
        if lane is not None:
            self._post_burst(lane.flush())

    def append_head(self, list_id: int) -> int:
        """Entries committed to a list so far (for test/query helpers)."""
        lane = self._lanes.get(primitives.APPEND.code)
        return 0 if lane is None else lane.heads.get(list_id, 0)

    def reset_sketch_epoch(self) -> None:
        """Start a fresh sketch epoch (Section 3.2: sketches are
        reported per epoch; counters and per-reporter column cursors
        reset once a network-wide sketch has been transferred)."""
        lane = self._lanes.get(primitives.SKETCH_MERGE.code)
        if lane is None:
            raise RuntimeError("Sketch-Merge service not configured")
        lane.reset_epoch()

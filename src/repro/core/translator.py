"""The DTA translator: ToR switch converting DTA reports into RDMA verbs.

This is the system's centrepiece (Sections 3.1 and 4.2).  The translator

* owns the single RDMA connection to its collector (solving the
  QP-scaling and multi-writer problems),
* expands Key-Write/Key-Increment reports into N redundant verbs using
  the shared global hash functions (the multicast technique),
* aggregates Postcarding reports in an SRAM cache so a full path costs
  one write instead of B,
* batches Append reports B-at-a-time into single writes,
* merges sketch columns from all reporters and transfers network-wide
  columns in contiguous batches of w,
* detects lost essential reports via per-reporter counters and bounces
  NACKs (Figure 5), and
* meters its own RDMA generation rate, shedding low-priority reports
  and signalling congestion upstream when the collector saturates
  (Section 3.3).

Every primitive exists exactly twice here: one *scalar reference* (the
``_batch_*`` column loops, which every digest gate anchors to) and one
*vector fast path* (:meth:`Translator.plan_batch` -> :class:`VectorPlan`).
Key-Write and Key-Increment plans are pure functions of the reports;
Postcarding, Append and Sketch-Merge plans also advance translator
state (cache rows, pending lists and heads, column cursors), so they
validate first and touch nothing unless they will return a plan.
:meth:`Translator.process_batch` consumes a whole
:class:`~repro.core.batch.ReportBatch` — the hot path that amortises
counter updates and posts RDMA verbs in bursts (the software analogue
of Section 4.3's aggregation argument); :meth:`Translator.handle_report`
processes one wire-format report by feeding a one-row column set
through the same scalar code, so the two are bit-identical in counters
and collector memory by construction as well as by differential test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro import calibration, obs
from repro.core import packets
from repro.core.flow_control import LossDetector
from repro.core.packets import (
    Append,
    CongestionSignal,
    DtaFlags,
    DtaPrimitive,
    KeyIncrement,
    KeyWrite,
    Nack,
    Postcard,
    SketchColumn,
)
from repro.core.postcard_cache import PostcardCache
from repro.core.stores.append import AppendLayout
from repro.core.stores.keyincrement import KeyIncrementLayout
from repro.core.stores.keywrite import KeyWriteLayout
from repro.core.stores.postcarding import (
    BLANK,
    CHUNK_LANES,
    PostcardingLayout,
)
from repro.core.stores.sketchstore import SketchLayout
from repro.core.transport import CtrlFrame, DtaFrame, RdmaClient, RoceFrame
from repro.fabric.topology import Node
from repro.kernels import MIN_VECTOR_BATCH, burst as kburst, crc as kcrc
from repro.rdma.cm import ServiceAdvert
from repro.rdma.verbs import Opcode, WorkRequest
from repro.switch.meters import Meter, MeterConfig


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
    congestion_signals = obs.counter_field()
    low_priority_dropped = obs.counter_field()
    rerouted_to_cpu = obs.counter_field()
    immediate_writes = obs.counter_field()
    dropped_while_crashed = obs.counter_field()

    @property
    def rdma_messages(self) -> int:
        return self.rdma_writes + self.rdma_atomics


@dataclass(slots=True)
class VectorPlan:
    """One vector-eligible batch as a single burst-kernel call.

    What :meth:`Translator.plan_batch` returns: the translator counters
    are already charged for ``reports`` reports (and any translator
    state the batch advances is advanced), and the plan is committed —
    :meth:`apply` lands it exactly once, as one burst kernel call or as
    the equivalent scalar burst.  Request ``i`` targets ``base +
    indices[i] * stride``.  ``payload`` is an int64 array of addends
    (Key-Increment), a uint8 matrix of one row per write, at most
    ``stride`` bytes wide (Key-Write, Postcarding), or a list of
    ``bytes``, one contiguous write each, a whole number of slots long
    (Append flushes, Sketch-Merge transfers).  A batch with nothing to
    emit is a plan with zero requests.
    """

    kind: DtaPrimitive
    rkey: int
    base: int
    stride: int
    indices: object
    payload: object
    reports: int

    def apply(self, client) -> None:
        """Execute against ``client`` (the real RDMA client).

        The burst target is re-resolved first: if the dynamic
        conditions changed since planning (NIC stall, QP error,
        revoked MR, full send window) the equivalent scalar burst goes
        through :meth:`RdmaClient.post_burst`, so the reference fault
        machinery (bounded retry, QP re-handshake) handles it.
        """
        atomic = self.kind is DtaPrimitive.KEY_INCREMENT
        target = kburst.resolve_target(client, self.rkey, atomic=atomic)
        if target is not None:
            if atomic:
                landed = kburst.fetch_add_many(target, client, self.indices,
                                               self.payload)
            elif isinstance(self.payload, list):
                landed = kburst.write_spans(target, client, self.indices,
                                            self.payload, self.stride)
            else:
                landed = kburst.write_rows(target, client, self.indices,
                                           self.payload, self.stride)
            if landed is not None:
                return
        client.post_burst(self.scalar_burst())

    def scalar_burst(self) -> list:
        """The plan as the work requests the scalar lane would post."""
        base, stride, rkey = self.base, self.stride, self.rkey
        payload = self.payload
        if isinstance(payload, list):
            return [WorkRequest(opcode=Opcode.WRITE,
                                remote_addr=base + slot * stride,
                                rkey=rkey, data=data)
                    for slot, data in zip(self.indices, payload)]
        indices = self.indices.tolist()
        if self.kind is DtaPrimitive.KEY_INCREMENT:
            return [WorkRequest(opcode=Opcode.FETCH_ADD,
                                remote_addr=base + index * stride,
                                rkey=rkey, swap=addend)
                    for index, addend in zip(indices, payload.tolist())]
        return [WorkRequest(opcode=Opcode.WRITE,
                            remote_addr=base + index * stride,
                            rkey=rkey, data=row.tobytes())
                for index, row in zip(indices, payload)]


@dataclass
class _HashedBinding:
    layout: KeyWriteLayout | KeyIncrementLayout
    rkey: int


class _ValueCodes(dict):
    """``{v: g(v)}`` for the postcard values (and ⊔) a translator has
    encoded, filled as they first appear — the writer's half of the
    table the collector pre-populates for V.  Values are 32-bit, so a
    stream that never repeats one would grow it without bound: it
    starts over at ``LIMIT`` entries."""

    __slots__ = ("_g",)
    LIMIT = 1 << 16

    def __init__(self, g) -> None:
        self._g = g

    def __missing__(self, value) -> int:
        if len(self) >= self.LIMIT:
            self.clear()
        code = self[value] = self._g(value)
        return code


@dataclass
class _PostcardingBinding:
    layout: PostcardingLayout
    rkey: int
    cache: PostcardCache
    codes: _ValueCodes | None = None        # built by the first plan


@dataclass
class _AppendBinding:
    layout: AppendLayout
    rkey: int
    batch_size: int
    batches: dict = field(default_factory=dict)   # list_id -> [data, ...]
    heads: dict = field(default_factory=dict)     # list_id -> total entries


@dataclass
class _SketchBinding:
    layout: SketchLayout
    rkey: int
    expected_reporters: int
    batch_columns: int
    merge: str = "sum"                      # "sum" | "max"
    sketch_id: int = 0
    # Counter storage is allocated by the first report that needs it
    # (width x depth zeros cost more than the rest of a deployment's
    # set-up), in the form of the lane that report runs on.
    columns: object = None                  # width x depth ints
    merged_count: object = None             # per-column reporters
    completed: object = None                # per-column bool
    next_column: dict = field(default_factory=dict)   # reporter -> expected
    next_transfer: int = 0

    def alloc_storage(self, *, arrays: bool) -> None:
        """Allocate zeroed counter storage for a fresh epoch.

        List storage is the scalar lane's and the reference semantics
        (unbounded Python ints); ``arrays`` is the plan's: the same
        values in int64 arrays, which every scalar code path indexes
        identically (the scalar lane works unchanged on either).
        """
        width, depth = self.layout.width, self.layout.depth
        if arrays:
            self.columns = np.zeros((width, depth), dtype=np.int64)
            self.merged_count = np.zeros(width, dtype=np.int64)
            self.completed = np.zeros(width, dtype=bool)
        else:
            self.columns = [[0] * depth for _ in range(width)]
            self.merged_count = [0] * width
            self.completed = [False] * width

    def array_storage(self) -> bool:
        """Make the storage arrays (allocating, or converting what the
        scalar lane built); False if a counter no longer fits int64."""
        if self.columns is None:
            self.alloc_storage(arrays=True)
        elif isinstance(self.columns, list):
            try:
                columns = np.array(self.columns, dtype=np.int64)
            except OverflowError:
                return False
            self.columns = columns
            self.merged_count = np.array(self.merged_count, dtype=np.int64)
            self.completed = np.array(self.completed, dtype=bool)
        return True


class Translator(Node):
    """A DTA translator bound to one collector.

    Args:
        name: Node name (fabric mode addressing).
        rate_limit_mps: Collector saturation point in RDMA messages/s;
            enables the flow-control meter when set (reports arriving
            above this rate trigger shedding + congestion signals).
        max_reporters: Loss-detector provisioning (Section 5.3: 65K).
    """

    def __init__(self, name: str = "translator", *,
                 rate_limit_mps: float | None = None,
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
        self.cpu_backlog: deque = deque()
        self._crashed = False
        self._kw: _HashedBinding | None = None
        self._ki: _HashedBinding | None = None
        self._pc: _PostcardingBinding | None = None
        self._ap: _AppendBinding | None = None
        self._sm: _SketchBinding | None = None
        self._pending_imm: int | None = None
        #: Optional per-tenant quota table
        #: (:class:`repro.retention.tenants.TenantTable`); consulted
        #: right after the ingress meter, with the same verdict
        #: mapping.  Installed by the retention tier.
        self.tenants = None
        self._meter: Meter | None = None
        if rate_limit_mps is not None:
            self._meter = Meter(MeterConfig(
                committed_rate=rate_limit_mps,
                committed_burst=max(64.0, rate_limit_mps / 1000),
                peak_rate=rate_limit_mps * 1.25,
                peak_burst=max(128.0, rate_limit_mps / 500)),
                name=name)
        self._payload_hist = obs.get_registry().declare_histogram(
            "translator.rdma_payload_hist", node=name)
        self._batch_hist = obs.get_registry().declare_histogram(
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
        handlers = {
            "key_write": self._configure_keywrite,
            "key_increment": self._configure_keyincrement,
            "postcarding": self._configure_postcarding,
            "append": self._configure_append,
            "sketch_merge": self._configure_sketch,
            "cuckoo": self._configure_cuckoo,
        }
        try:
            handlers[advert.primitive](advert)
        except KeyError:
            raise ValueError(
                f"unknown primitive service '{advert.primitive}'") from None

    def _configure_keywrite(self, advert: ServiceAdvert) -> None:
        p = advert.params
        layout = KeyWriteLayout(base_addr=advert.addr, slots=p["slots"],
                                data_bytes=p["data_bytes"])
        self._kw = _HashedBinding(layout=layout, rkey=advert.rkey)

    def _configure_keyincrement(self, advert: ServiceAdvert) -> None:
        p = advert.params
        layout = KeyIncrementLayout(base_addr=advert.addr,
                                    slots_per_row=p["slots_per_row"],
                                    rows=p["rows"])
        self._ki = _HashedBinding(layout=layout, rkey=advert.rkey)

    def _configure_postcarding(self, advert: ServiceAdvert) -> None:
        p = advert.params
        layout = PostcardingLayout(base_addr=advert.addr,
                                   chunks=p["chunks"], hops=p["hops"],
                                   slot_bits=p.get("slot_bits", 32),
                                   pad_to=p.get(
                                       "pad_to",
                                       calibration.POSTCARDING_SLOT_PAD_BYTES))
        cache = PostcardCache(slots=p.get("cache_slots",
                                          calibration.POSTCARDING_CACHE_SLOTS),
                              hops=p["hops"], labels={"node": self.name})
        self._pc = _PostcardingBinding(layout=layout, rkey=advert.rkey,
                                       cache=cache)

    def _configure_append(self, advert: ServiceAdvert) -> None:
        p = advert.params
        layout = AppendLayout(base_addr=advert.addr, lists=p["lists"],
                              capacity=p["capacity"],
                              data_bytes=p["data_bytes"])
        self._ap = _AppendBinding(layout=layout, rkey=advert.rkey,
                                  batch_size=p.get(
                                      "batch_size",
                                      calibration.DEFAULT_BATCH_SIZE))

    def _configure_cuckoo(self, advert: ServiceAdvert) -> None:
        from repro.core.stores.cuckoo import CuckooLayout

        p = advert.params
        layout = CuckooLayout(base_addr=advert.addr,
                              buckets=p["buckets"],
                              key_bytes=p["key_bytes"],
                              value_bytes=p["value_bytes"])
        self._cuckoo = (layout, advert.rkey)

    def cuckoo_manager(self, max_kicks: int = 32):
        """The Section 6 read-capable aggregation manager, bound to
        this translator's RDMA connection."""
        from repro.core.stores.cuckoo import CuckooManager

        if getattr(self, "_cuckoo", None) is None:
            raise RuntimeError("cuckoo service not configured")
        if self.client is None:
            raise RuntimeError("translator has no RDMA connection")
        layout, rkey = self._cuckoo
        return CuckooManager(self.client, layout, rkey,
                             max_kicks=max_kicks)

    def _configure_sketch(self, advert: ServiceAdvert) -> None:
        p = advert.params
        layout = SketchLayout(base_addr=advert.addr, width=p["width"],
                              depth=p["depth"])
        self._sm = _SketchBinding(layout=layout, rkey=advert.rkey,
                                  expected_reporters=p["expected_reporters"],
                                  batch_columns=p.get("batch_columns", 8),
                                  merge=p.get("merge", "sum"),
                                  sketch_id=p.get("sketch_id", 0))

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

        Everything per-report lives here — decode, ingress meter,
        tenant quota, loss detection / NACK, the immediate flag — and
        the report then runs through the scalar reference lanes as a
        one-row column set, the same code :meth:`process_batch` runs
        over N rows.
        """
        if self._crashed:
            self.stats.dropped_while_crashed += 1
            return
        if now is not None:
            self.now = now
        header, op = packets.decode_report(raw)
        # A report shed, deferred or NACKed below was still received;
        # every other report is counted by the lane that translates it.

        # Flow control: congestion shedding happens before any state
        # is touched, mirroring the ingress meter in hardware.
        if self._meter is not None and not self._admit(header, raw, src):
            self.stats.reports_in += 1
            return

        # Tenant quotas: the keyspace partition's own trTCM meter,
        # consulted after the shared ingress meter with the same
        # verdict mapping (over-quota essential -> CPU backlog,
        # over-quota low-priority -> shed).
        if self.tenants is not None \
                and not self._admit_tenant(header, op, raw, src):
            self.stats.reports_in += 1
            return

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
            if isinstance(op, KeyWrite):
                self._batch_keywrite((op.key,), (op.data,), op.redundancy)
            elif isinstance(op, KeyIncrement):
                self._batch_keyincrement((op.key,), (op.value,),
                                         op.redundancy)
            elif isinstance(op, Postcard):
                self._batch_postcard((op.key,), (op.hop,), (op.value,),
                                     (op.path_length,), op.redundancy)
            elif isinstance(op, Append):
                self._batch_append((op.list_id,), (op.data,))
                if self._pending_imm is not None:
                    # Batching would defer the notification indefinitely;
                    # flush so the interrupted CPU finds the data in place.
                    wrs: list = []
                    self._flush_list(op.list_id, wrs)
                    self._post_burst(wrs)
            elif isinstance(op, SketchColumn):
                self._batch_sketch(op.sketch_id, (op.column,),
                                   (op.counters,), header.reporter_id, src)
            else:
                raise ValueError(f"translator cannot process {op!r}")
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
        :class:`VectorPlan` (:meth:`plan_batch` decides); every other
        batch takes the scalar reference lane of its primitive.

        Batches that involve per-report control-plane state — a
        configured rate meter, tenant quotas, essential sequence
        tracking, immediate flags — go through :meth:`handle_report`
        report by report, which keeps their semantics (shedding order,
        NACK generation, WRITE_IMM conversion) exactly as specified.
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
        if (self._meter is not None or self.tenants is not None
                or batch.essential or batch.immediate):
            for raw in batch.iter_raw():
                self.handle_report(raw, src=src)
            return
        plan = self.plan_batch(batch)
        if plan is not None:
            plan.apply(self.client)
            return
        # Each scalar lane bumps reports_in itself, *after* its own
        # validation, so a rejected batch leaves every counter untouched.
        primitive = batch.primitive
        if primitive is DtaPrimitive.KEY_WRITE:
            self._batch_keywrite(batch.keys, batch.datas, batch.redundancy)
        elif primitive is DtaPrimitive.KEY_INCREMENT:
            self._batch_keyincrement(batch.keys, batch.values,
                                     batch.redundancy)
        elif primitive is DtaPrimitive.POSTCARDING:
            self._batch_postcard(batch.keys, batch.hops, batch.values,
                                 batch.path_lengths, batch.redundancy)
        elif primitive is DtaPrimitive.APPEND:
            self._batch_append(batch.list_ids, batch.datas)
        elif primitive is DtaPrimitive.SKETCH_MERGE:
            self._batch_sketch(batch.sketch_id, batch.columns,
                               batch.counter_rows, batch.reporter_id, src)
        else:
            for raw in batch.iter_raw():
                self.handle_report(raw, src=src)

    # -- vector fast path: one plan per primitive --------------------------

    def plan_batch(self, batch, client=None, *, arrays=None):
        """:meth:`plan_columns` for a batch object: a charged
        :class:`VectorPlan`, or None (no state touched) for the scalar
        lane.

        :meth:`process_batch` (hence the serial path), the streaming
        engine's translate stage and the process lane's parent side ask
        here.  A batch carrying essential / immediate flags is never
        planned; any other is packed (``plan_vector_*``) only once the
        decision went its way, so a declined batch costs a few
        attribute reads.  A Postcarding, Append or Sketch-Merge plan
        also advances the state its scalar lane would (cache rows,
        pending lists and heads, column cursors): its planner validates
        the whole batch first and declines with nothing touched.
        ``client`` defaults to the attached one (the
        engine passes the real client while its verb recorder is
        attached); ``arrays`` is ``(indices, payload)`` as a plan
        worker computed them from :meth:`plan_request`.
        """
        if batch.essential or batch.immediate:
            return None
        kind = batch.primitive
        if kind is DtaPrimitive.KEY_WRITE:
            planner = self.plan_vector_keywrite
        elif kind is DtaPrimitive.KEY_INCREMENT:
            planner = self.plan_vector_keyincrement
        elif kind is DtaPrimitive.POSTCARDING:
            planner = self._plan_postcard
        elif kind is DtaPrimitive.APPEND:
            planner = self._plan_append
        else:
            planner = self._plan_sketch
        return self._plan(kind, len(batch), client, arrays, planner, batch)

    def plan_columns(self, kind, reports: int, packed, lengths, third,
                     redundancy: int, client=None):
        """The one vector-eligibility decision, over columns: a charged
        :class:`VectorPlan`, or None (no state touched) for the scalar
        lane.

        ``packed`` / ``lengths`` are the ``reports`` keys as a packed
        matrix; ``third`` the Key-Write data matrix (zero-padded to any
        width — one wider than the slot declines, as the scalar lane
        raises for it) or the Key-Increment int64 addends.  Eligible
        means :meth:`_vector_target` resolves a burst target *and*
        ``PLAN_KERNELS[kind]`` accepts the columns (indices inside the
        region).  Nothing here depends on how many reports one call
        carries beyond ``MIN_VECTOR_BATCH``: every series a plan
        charges is a sum, so the socket lane hands over whatever a
        receive burst delivered for the shard (``docs/CONCURRENCY.md``,
        "Plan width is not observable").
        """
        if kind not in PLAN_KERNELS:
            return None     # no plan from columns: its runs come as batches
        return self._plan(kind, reports, client, None, self._plan_vector,
                          kind, packed, lengths, third, redundancy)

    def _plan(self, kind, reports: int, client, arrays, planner, *source):
        """Decide, then compute, then charge — the body both
        :meth:`plan_columns` and :meth:`plan_batch` are entries to.
        ``planner(*source, target)`` yields the plan's ``(indices,
        payload)``, or None having touched nothing; it runs only once
        the decision went its way."""
        hit = self._vector_target(kind, reports, client)
        if hit is None:
            return None
        binding, target = hit
        if arrays is None:
            arrays = planner(*source, target)
            if arrays is None:
                return None
        indices, payload = arrays
        layout = binding.layout
        stats = self.stats
        stats.reports_in += reports
        if kind is DtaPrimitive.KEY_WRITE:
            stride = layout.slot_bytes
            stats.keywrites += reports
        elif kind is DtaPrimitive.KEY_INCREMENT:
            stride = 8
            stats.keyincrements += reports
        elif kind is DtaPrimitive.POSTCARDING:
            stride = layout.pad_to
            stats.postcards += reports
        elif kind is DtaPrimitive.APPEND:
            stride = layout.entry_bytes
            stats.appends += reports
        else:
            stride = layout.column_bytes
            stats.sketch_columns += reports
        requests = len(indices)
        if kind is DtaPrimitive.KEY_INCREMENT:
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
        return VectorPlan(kind, binding.rkey, layout.base_addr, stride,
                          indices, payload, reports)

    def _vector_target(self, kind, reports: int, client):
        """``(binding, burst target)`` if ``reports`` plain reports of
        ``kind`` may run as a plan: vectorization on,
        ``MIN_VECTOR_BATCH`` reports or more, no meter or tenant
        quotas, translator up, the service configured, and ``client``
        resolving to a healthy direct-mode burst target whose region is
        the one the layout describes.
        """
        if (not self.vectorized or reports < MIN_VECTOR_BATCH
                or self._meter is not None or self.tenants is not None
                or self._crashed):
            return None
        if kind is DtaPrimitive.KEY_WRITE:
            binding = self._kw
        elif kind is DtaPrimitive.KEY_INCREMENT:
            binding = self._ki
        elif kind is DtaPrimitive.POSTCARDING:
            binding = self._pc
        elif kind is DtaPrimitive.APPEND:
            binding = self._ap
        elif kind is DtaPrimitive.SKETCH_MERGE:
            binding = self._sm
        else:
            return None
        if binding is None:
            return None
        target = kburst.resolve_target(
            self.client if client is None else client, binding.rkey,
            atomic=kind is DtaPrimitive.KEY_INCREMENT)
        layout = binding.layout
        if (target is None or layout.base_addr != target.region.addr
                or layout.region_bytes > target.region.length):
            return None
        return binding, target

    def plan_request(self, batch, client=None):
        """What a plan worker needs to compute ``batch``'s arrays —
        ``(kind, layout, region_length, packed, lengths, third,
        fanout)``, the ``PLAN_KERNELS[kind]`` arguments — or None when
        the batch is not worth shipping.  Touches no state: the arrays
        come back through :meth:`plan_batch`, which still decides.
        """
        if (batch.essential or batch.immediate
                or batch.primitive not in PLAN_KERNELS):
            return None     # the stateful plans are made where they apply
        hit = self._vector_target(batch.primitive, len(batch), client)
        if hit is None:
            return None
        binding, target = hit
        columns = _value_columns(batch, binding.layout)
        if columns is None:
            return None
        return (batch.primitive, binding.layout, target.region.length,
                *kcrc.pack_keys(batch.keys), *columns)

    def plan_vector_keywrite(self, batch, target):
        """A Key-Write scatter plan ``(row_indices, rows)`` — what
        ``kernels.burst.write_rows`` takes — or None when the columns
        are not vector-eligible.  Hashing, entry encoding and bounds
        validation against ``target``'s region; no state touched.
        """
        return _batch_arrays(self._kw.layout, batch, target)

    def plan_vector_keyincrement(self, batch, target):
        """A Key-Increment scatter-add plan ``(counter_indices,
        addends)`` for ``kernels.burst.fetch_add_many``, likewise."""
        return _batch_arrays(self._ki.layout, batch, target)

    def _plan_vector(self, kind, packed, lengths, third, redundancy,
                     target):
        """``plan_vector_*`` for columns that are already matrices:
        pad the Key-Write data to the slot (wider declines — the scalar
        lane raises for it), clamp the Key-Increment fan-out."""
        if kind is DtaPrimitive.KEY_WRITE:
            layout = self._kw.layout
            width = third.shape[1]
            if width > layout.data_bytes:
                return None
            if width < layout.data_bytes:
                third = _pad_columns(third, layout.data_bytes)
        else:
            layout = self._ki.layout
            redundancy = min(redundancy, layout.rows)
        return PLAN_KERNELS[kind](layout, packed, lengths, third,
                                  redundancy, target.region.length)

    # -- the stateful plans: decide and validate before touching anything,
    # return None with nothing touched -----------------------------------

    def _plan_postcard(self, batch, target):
        """A Postcarding plan: the cache takes the whole batch
        (:meth:`PostcardCache.insert_many`), and every chunk that left
        it — in the order the scalar lane would have collected them —
        is hashed and encoded in one pass over the emitted keys.  Rows
        are ``chunk_payload_bytes`` wide on a ``pad_to`` stride.
        """
        pc = self._pc
        layout = pc.layout
        copies = max(1, batch.redundancy)
        values = batch.values
        if copies > CHUNK_LANES or min(values) < 0 \
                or max(values) > 0xFFFFFFFF:
            return None         # the scalar lane raises for these
        try:
            emissions = pc.cache.insert_many(batch.keys, batch.hops, values,
                                             batch.path_lengths)
        except IndexError:
            return None         # a hop out of range: nothing was touched
        count = len(emissions)
        complete = sum(emission.complete for emission in emissions)
        self.stats.postcard_chunks_complete += complete
        self.stats.postcard_chunks_early += count - complete
        if not count:
            return [], []
        codes = pc.codes
        if codes is None:
            codes = pc.codes = _ValueCodes(layout.g)
        encoded = np.fromiter(
            map(codes.__getitem__, chain.from_iterable(
                emission.values for emission in emissions)),
            dtype=np.uint64, count=count * layout.hops,
        ).reshape(count, layout.hops)
        chunks, checksums = layout.probes_many(
            *kcrc.hash_input([emission.key for emission in emissions]),
            copies)
        encoded ^= checksums.T
        rows = encoded.astype(f">u{layout.slot_bytes_per_slot}").view(
            np.uint8).reshape(count, layout.chunk_payload_bytes)
        if copies > 1:
            rows = np.repeat(rows, copies, axis=0)
        # Emission-major: all copies of one chunk, then the next chunk.
        return chunks.T.reshape(-1), rows

    def _plan_append(self, batch, target):
        """An Append plan: every flush the batch triggers, as one
        contiguous write each.

        Per list the batch's entries join the pending carry and the
        sequence is cut exactly where :meth:`_batch_append` flushes —
        when the pending count reaches ``batch_size`` or the room left
        before the ring boundary, and again at the boundary inside a
        flush — with the writes ordered by the arrival of the entry
        that triggered them.  The tail stays pending.
        """
        ap = self._ap
        layout = ap.layout
        list_ids, datas = batch.list_ids, batch.datas
        arrivals: dict = {}     # list -> [arrival of each new entry]
        for at, list_id in enumerate(list_ids):
            seen = arrivals.get(list_id)
            if seen is None:
                arrivals[list_id] = [at]
            else:
                seen.append(at)
        if (min(arrivals) < 0 or max(arrivals) >= layout.lists
                or max(map(len, datas)) > layout.data_bytes):
            return None         # the scalar lane raises
        pending, heads = ap.batches, ap.heads
        capacity, batch_size = layout.capacity, ap.batch_size

        writes = []     # (trigger arrival, order, first slot, payload)
        tails = {}
        new_heads = {}
        for list_id, ats in arrivals.items():
            carry = pending.get(list_id) or ()
            carried = len(carry)
            entries = [*carry, *(datas[at] for at in ats)]
            head = heads.get(list_id, 0)
            waiting = carried
            done = 0
            while True:
                # The pending count at which the next entry flushes.
                waiting = max(waiting + 1,
                              min(batch_size, capacity - head % capacity))
                if done + waiting > len(entries):
                    break
                trigger = ats[done + waiting - 1 - carried]
                while waiting:      # never wrap within one write
                    slot = head % capacity
                    span = min(waiting, capacity - slot)
                    writes.append((trigger, len(writes),
                                   list_id * capacity + slot,
                                   layout.encode_run(
                                       entries[done:done + span], head)))
                    head += span
                    done += span
                    waiting -= span
            new_heads[list_id] = head
            tails[list_id] = entries[done:]
        writes.sort()

        pending.update(tails)
        heads.update(new_heads)
        self.stats.append_batches += len(writes)
        entry_bytes = layout.entry_bytes
        payloads = [write[3] for write in writes]
        for payload in payloads:
            self._batch_hist.observe(len(payload) // entry_bytes)
        return [write[2] for write in writes], payloads

    def _plan_sketch(self, batch, target):
        """A Sketch-Merge plan for a run that continues the reporter's
        column sequence: one block merge, and every transfer the merge
        completes — ``batch_columns`` columns to a write, the tail
        fewer.  Anything else — an out-of-order column owed a NACK,
        counters beyond int64 — is the scalar lane's.
        """
        sm = self._sm
        layout = sm.layout
        columns = batch.columns
        n = len(columns)
        reporter_id = batch.reporter_id
        start = sm.next_column.get(reporter_id, 0)
        if (batch.sketch_id != sm.sketch_id or start + n > layout.width
                or columns != list(range(start, start + n))):
            return None
        counter_rows = batch.counter_rows
        if set(map(len, counter_rows)) != {layout.depth}:
            return None         # the scalar lane raises
        try:
            counters = np.fromiter(
                chain.from_iterable(counter_rows), dtype=np.int64,
                count=n * layout.depth).reshape(n, layout.depth)
        except OverflowError:
            return None
        if not sm.array_storage():
            return None

        block = sm.columns[start:start + n]
        if sm.merge == "max":
            np.maximum(block, counters, out=block)
        else:
            block += counters
        sm.next_column[reporter_id] = start + n
        merged = sm.merged_count[start:start + n]
        merged += 1
        np.greater_equal(merged, sm.expected_reporters,
                         out=sm.completed[start:start + n])

        # Transfers: whole batches of completed columns from the
        # cursor, and the short tail once the last column is done.
        first = sm.next_transfer
        rest = sm.completed[first:]
        through = layout.width if rest.all() else first + int(rest.argmin())
        starts = list(range(first, through - sm.batch_columns + 1,
                            sm.batch_columns))
        end = first + sm.batch_columns * len(starts)
        if through == layout.width and end < through:
            starts.append(end)
            end = through
        sm.next_transfer = end
        self.stats.sketch_batches += len(starts)
        blob = layout.encode_columns_array(sm.columns[first:end])
        cuts = [(at - first) * layout.column_bytes for at in (*starts, end)]
        return starts, [blob[a:b] for a, b in zip(cuts, cuts[1:])]

    # -- scalar reference lanes: one per primitive, over parallel columns
    # (a batch's from process_batch, one-row tuples from handle_report) --

    def _batch_keywrite(self, keys, datas, redundancy: int) -> None:
        """Key-Write: one burst of N x len(keys) writes."""
        if self._kw is None:
            raise RuntimeError("Key-Write service not configured")
        self.stats.reports_in += len(keys)
        self.stats.keywrites += len(keys)
        layout = self._kw.layout
        rkey = self._kw.rkey
        encode = layout.encode_entry
        slot_addrs = layout.slot_addrs
        wrs = []
        append = wrs.append
        # The multicast technique: one DTA report fans out into N
        # identical writes at N hash locations.
        for key, data in zip(keys, datas):
            entry = encode(key, data)
            for addr in slot_addrs(key, redundancy):
                append(WorkRequest(opcode=Opcode.WRITE, remote_addr=addr,
                                   rkey=rkey, data=entry))
        self._post_burst(wrs)

    def _batch_keyincrement(self, keys, values, redundancy: int) -> None:
        """Key-Increment: one burst of Fetch-and-Adds."""
        if self._ki is None:
            raise RuntimeError("Key-Increment service not configured")
        self.stats.reports_in += len(keys)
        self.stats.keyincrements += len(keys)
        layout = self._ki.layout
        rkey = self._ki.rkey
        rows = min(redundancy, layout.rows)
        counter_addrs = layout.counter_addrs
        wrs = []
        append = wrs.append
        for key, value in zip(keys, values):
            for addr in counter_addrs(key, rows):
                append(WorkRequest(opcode=Opcode.FETCH_ADD,
                                   remote_addr=addr, rkey=rkey,
                                   swap=value))
        self._post_burst(wrs)

    def _batch_postcard(self, keys, hops, values, path_lengths,
                        redundancy: int) -> None:
        """Postcarding: cache inserts, then one write burst.

        Cache state transitions are inherently per-report (each insert
        may evict or complete a chunk), but every resulting chunk write
        is collected into a single burst.
        """
        if self._pc is None:
            raise RuntimeError("Postcarding service not configured")
        cache = self._pc.cache
        for hop in hops:
            if not 0 <= hop < cache.hops:
                raise IndexError(f"hop {hop} outside [0, {cache.hops})")
        self.stats.reports_in += len(keys)
        self.stats.postcards += len(keys)
        wrs: list = []
        for key, hop, value, path_len in zip(keys, hops, values,
                                             path_lengths):
            emission = cache.insert(key, hop, value,
                                    path_len=path_len or None)
            if emission is not None:
                self._emit_chunk(emission, redundancy, wrs)
            while cache.pending_evicted:
                self._emit_chunk(cache.pending_evicted.pop(), redundancy,
                                 wrs)
        self._post_burst(wrs)

    def _batch_append(self, list_ids, datas) -> None:
        """Append: per-entry flush points, burst-posted writes.

        The flush rule (flush when a list's pending batch reaches the
        configured size or the ring-boundary room) is evaluated after
        every entry, so write boundaries — and therefore
        ``append_batches``/histogram accounting — do not depend on how
        the entries were batched on the way in.
        """
        if self._ap is None:
            raise RuntimeError("Append service not configured")
        ap = self._ap
        lists = ap.layout.lists
        for list_id in list_ids:
            if list_id >= lists:
                raise ValueError(f"list {list_id} not provisioned")
        data_bytes = ap.layout.data_bytes
        for data in datas:
            if len(data) > data_bytes:
                raise ValueError("entry data too wide for this layout")
        self.stats.reports_in += len(list_ids)
        self.stats.appends += len(list_ids)
        capacity = ap.layout.capacity
        batch_size = ap.batch_size
        batches = ap.batches
        heads = ap.heads
        wrs: list = []
        for list_id, data in zip(list_ids, datas):
            pending = batches.setdefault(list_id, [])
            pending.append(data)
            room = capacity - (heads.get(list_id, 0) % capacity)
            if len(pending) >= batch_size or len(pending) >= room:
                self._flush_list(list_id, wrs)
        self._post_burst(wrs)

    def _batch_sketch(self, sketch_id: int, columns, counter_rows,
                      reporter_id: int, src: str | None) -> None:
        """Sketch-Merge: batched merges, burst transfers.

        Validates all columns first (a malformed batch raises before
        any state changes), then runs the column state machine —
        in-order checks, NACKs (Section 4.2: an out-of-order column is
        NACKed back to the reporter and not merged), merge, completion
        — with every resulting transfer write collected into one burst.
        """
        if self._sm is None:
            raise RuntimeError("Sketch-Merge service not configured")
        sm = self._sm
        if sketch_id != sm.sketch_id:
            raise ValueError(
                f"sketch {sketch_id} not served here (this translator "
                f"aggregates sketch {sm.sketch_id}; deploy one service "
                "per sketch, Section 6: sketches all go to one collector)")
        depth = sm.layout.depth
        for column, counters in zip(columns, counter_rows):
            if column >= sm.layout.width:
                raise ValueError("sketch column out of range")
            if len(counters) != depth:
                raise ValueError("sketch column depth mismatch")
        if sm.columns is None:
            sm.alloc_storage(arrays=False)
        n = len(columns)
        self.stats.reports_in += n
        self.stats.sketch_columns += n
        is_max = sm.merge == "max"
        wrs: list = []
        for column, counters in zip(columns, counter_rows):
            expected = sm.next_column.get(reporter_id, 0)
            if column != expected:
                self.stats.sketch_column_nacks += 1
                self._send_control(src, reporter_id,
                                   Nack(expected_seq=expected, missing=1))
                continue
            sm.next_column[reporter_id] = expected + 1
            local = sm.columns[column]
            if is_max:
                for i, value in enumerate(counters):
                    if value > local[i]:
                        local[i] = value
            else:
                for i, value in enumerate(counters):
                    local[i] += value
            sm.merged_count[column] += 1
            if sm.merged_count[column] >= sm.expected_reporters:
                sm.completed[column] = True
                self._transfer_completed_columns(wrs)
        self._post_burst(wrs)

    # -- flow control --------------------------------------------------

    def _admit(self, header, raw: bytes, src: str | None) -> bool:
        assert self._meter is not None
        color = self._meter.mark(self.now)
        if color.name == "GREEN":
            return True
        if color.name == "YELLOW":
            if header.essential:
                # Reroute essential overload through the switch CPU
                # path, to be re-injected when the meter cools down.
                self.cpu_backlog.append(raw)
                self.stats.rerouted_to_cpu += 1
            else:
                self.stats.low_priority_dropped += 1
            return False
        # RED: signal the reporter to slow down; shed the report.
        self.stats.congestion_signals += 1
        obs.emit("translator", "congestion_signal", node=self.name,
                 reporter=header.reporter_id, level=2)
        self._send_control(src, header.reporter_id, CongestionSignal(level=2))
        if header.essential:
            self.cpu_backlog.append(raw)
            self.stats.rerouted_to_cpu += 1
        else:
            self.stats.low_priority_dropped += 1
        return False

    def _admit_tenant(self, header, op, raw: bytes,
                      src: str | None) -> bool:
        """Per-tenant quota check; mirrors :meth:`_admit`'s mapping."""
        assert self.tenants is not None
        key = getattr(op, "key", None)
        color = self.tenants.admit(key, self.now)
        if color.name == "GREEN":
            return True
        if color.name == "RED":
            self.stats.congestion_signals += 1
            obs.emit("translator", "congestion_signal", node=self.name,
                     reporter=header.reporter_id, level=2)
            self._send_control(src, header.reporter_id,
                               CongestionSignal(level=2))
        if header.essential:
            self.cpu_backlog.append(raw)
            self.stats.rerouted_to_cpu += 1
            self.tenants.stats.deferred += 1
        else:
            self.stats.low_priority_dropped += 1
            self.tenants.stats.rejected += 1
        return False

    def reinject_cpu_backlog(self, now: float, max_reports: int = 1024
                             ) -> int:
        """Switch-CPU re-injection of rerouted essential reports.

        Drains in arrival order and stops at the first report the meter
        rejects *again*: re-admission goes through :meth:`handle_report`
        (and therefore :meth:`_admit`), so a still-hot meter would
        otherwise bounce the same report back to the backlog tail inside
        the drain loop — spinning until ``max_reports`` while inflating
        ``rerouted_to_cpu`` once per lap.  A re-rejected report is moved
        back to the *head* so backlog order is preserved for the next
        drain.  Returns the number of reports actually re-admitted.
        """
        if self._crashed:
            return 0
        self.now = now
        count = 0
        while self.cpu_backlog and count < max_reports:
            raw = self.cpu_backlog.popleft()
            self.handle_report(raw, now=self.now)
            if self.cpu_backlog and self.cpu_backlog[-1] is raw:
                # The meter is still hot: restore the report's place at
                # the front and give the meter time to cool down.
                self.cpu_backlog.appendleft(self.cpu_backlog.pop())
                break
            count += 1
        return count

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
                if wr.opcode == Opcode.WRITE:
                    wr.opcode = Opcode.WRITE_IMM
                    wr.imm = self._pending_imm
                    self._pending_imm = None
                    self.stats.immediate_writes += 1
                    break
        client.post_burst(wrs)
        writes = 0
        atomics = 0
        sizes = []
        payload = 0
        for wr in wrs:
            if wr.opcode.is_atomic:
                atomics += 1
            else:
                writes += 1
            size = wr.payload_bytes
            sizes.append(size)
            payload += size
        if atomics:
            self.stats.rdma_atomics += atomics
        if writes:
            self.stats.rdma_writes += writes
        self.stats.rdma_payload_bytes += payload
        self._payload_hist.observe_many(sizes)

    # -- Postcarding ---------------------------------------------------------

    def _emit_chunk(self, emission, redundancy: int, sink: list) -> None:
        """Collect one postcard chunk's writes into the burst ``sink``."""
        assert self._pc is not None
        layout = self._pc.layout
        if emission.complete:
            self.stats.postcard_chunks_complete += 1
        else:
            self.stats.postcard_chunks_early += 1
        values = [BLANK if v is None else v for v in emission.values]
        payload = layout.encode_chunk(emission.key, values)
        for j in range(max(1, redundancy)):
            sink.append(WorkRequest(
                opcode=Opcode.WRITE,
                remote_addr=layout.chunk_addr(emission.key, j),
                rkey=self._pc.rkey, data=payload))

    # -- Append ------------------------------------------------------------

    def _flush_list(self, list_id: int, sink: list) -> None:
        """Collect a list's pending entries into the burst ``sink``."""
        assert self._ap is not None
        ap = self._ap
        batch = ap.batches.get(list_id)
        if not batch:
            return
        head = ap.heads.get(list_id, 0)
        # Never wrap within one write: split at the ring boundary.
        while batch:
            slot = head % ap.layout.capacity
            room = ap.layout.capacity - slot
            chunk, batch = batch[:room], batch[room:]
            payload = ap.layout.encode_batch(chunk, head)
            sink.append(WorkRequest(
                opcode=Opcode.WRITE,
                remote_addr=ap.layout.entry_addr(list_id, slot),
                rkey=ap.rkey, data=payload))
            head += len(chunk)
            self.stats.append_batches += 1
            self._batch_hist.observe(len(chunk))
        ap.heads[list_id] = head
        ap.batches[list_id] = []

    def flush_appends(self) -> None:
        """Flush every partially-filled Append batch (epoch end)."""
        if self._ap is None:
            return
        wrs: list = []
        for list_id in list(self._ap.batches):
            self._flush_list(list_id, wrs)
        self._post_burst(wrs)

    def append_head(self, list_id: int) -> int:
        """Entries committed to a list so far (for test/query helpers)."""
        if self._ap is None:
            return 0
        return self._ap.heads.get(list_id, 0)

    # -- Sketch-Merge ---------------------------------------------------------

    def reset_sketch_epoch(self) -> None:
        """Start a fresh sketch epoch (Section 3.2: sketches are
        reported per epoch; counters and per-reporter column cursors
        reset once a network-wide sketch has been transferred)."""
        if self._sm is None:
            raise RuntimeError("Sketch-Merge service not configured")
        sm = self._sm
        sm.columns = sm.merged_count = sm.completed = None
        sm.next_column.clear()
        sm.next_transfer = 0
        obs.emit("translator", "sketch_epoch_reset", node=self.name,
                 sketch_id=sm.sketch_id)
        obs.get_registry().advance_epoch()

    def _transfer_completed_columns(self, sink: list) -> None:
        """Collect writes of w contiguous completed columns into ``sink``."""
        assert self._sm is not None
        sm = self._sm
        array_storage = not isinstance(sm.columns, list)
        while True:
            start = sm.next_transfer
            end = start + sm.batch_columns
            if end > sm.layout.width:
                # Tail shorter than w: transfer once everything is done.
                if start < sm.layout.width and all(
                        sm.completed[start:sm.layout.width]):
                    end = sm.layout.width
                else:
                    return
            if not all(sm.completed[start:end]):
                return
            if array_storage:
                payload = sm.layout.encode_columns_array(
                    sm.columns[start:end])
            else:
                payload = sm.layout.encode_columns(sm.columns[start:end])
            sink.append(WorkRequest(
                opcode=Opcode.WRITE,
                remote_addr=sm.layout.column_addr(start),
                rkey=sm.rkey, data=payload))
            self.stats.sketch_batches += 1
            sm.next_transfer = end
            if sm.next_transfer >= sm.layout.width:
                return


# ----------------------------------------------------------------------
# Pure plan kernels — shared with the shared-memory plan workers
# ----------------------------------------------------------------------
#
# ``plan_vector_*`` and the process-lane plan workers
# (:mod:`repro.runtime.shm`) both end in ``PLAN_KERNELS[kind]``: one
# implementation on either side of the ring, which is what makes the
# process lane digest-identical to the serial reference by
# construction.  The kernels take *packed* columns (what
# :func:`repro.kernels.crc.pack_keys` produces) because that is the
# form a batch crosses a shared-memory ring in — no per-report Python
# objects, just matrices.  A small batch planned where it is held
# passes its keys as they are (``lengths`` None,
# :func:`repro.kernels.crc.hash_input`): the same lanes, hashed without
# the packing.


def _pad_columns(matrix, width: int):
    """``matrix`` zero-padded on the right to ``width`` columns."""
    padded = np.zeros((matrix.shape[0], width), dtype=np.uint8)
    padded[:, :matrix.shape[1]] = matrix
    return padded


def _value_columns(batch, layout):
    """A batch's non-key columns in kernel form: ``(third, fanout)``,
    or None where only the scalar lane has the semantics.

    ``third`` is the zero-padded data matrix and ``fanout`` the
    redundancy for Key-Write; the int64 values and the redundancy
    clamped to ``layout.rows`` for Key-Increment.
    """
    if batch.primitive is DtaPrimitive.KEY_WRITE:
        third, _ = kcrc.pack_keys(batch.datas)
        width = third.shape[1]
        if width > layout.data_bytes:
            return None  # oversize data: scalar lane raises for it
        if width < layout.data_bytes:
            third = _pad_columns(third, layout.data_bytes)
        return third, batch.redundancy
    try:
        third = np.array(batch.values, dtype=np.int64)
    except (OverflowError, ValueError):
        return None      # beyond int64: scalar wrap semantics apply
    return third, min(batch.redundancy, layout.rows)


def _batch_arrays(layout, batch, target):
    columns = _value_columns(batch, layout)
    if columns is None:
        return None
    return PLAN_KERNELS[batch.primitive](
        layout, *kcrc.hash_input(batch.keys), *columns,
        target.region.length)


def plan_keywrite_packed(layout, packed, lengths, packed_data,
                         redundancy: int, region_length: int):
    """Pure Key-Write scatter plan: ``(row_indices, rows)`` or None.

    ``layout`` is a :class:`~repro.core.stores.keywrite.KeyWriteLayout`;
    ``packed``/``lengths`` the packed key matrix (or the keys and
    None); ``packed_data`` the
    ``(n, data_bytes)`` zero-padded value matrix (lengths already
    validated by the caller); ``region_length`` the byte length of the
    RDMA region the plan will be bounds-checked against.  Touches no
    translator or store state.
    """
    if layout.region_bytes > region_length:
        return None      # same bounds check write_rows would fail
    # One hash pass: the N slot lanes and the checksum lane together.
    slot_idx, checksums = layout.probes_many(packed, lengths, redundancy)
    entries = layout.encode_entries_packed(packed_data, checksums)
    # Key-major flattening preserves arrival order, which the
    # scatter's last-write-wins dedup relies on.
    return slot_idx.T.reshape(-1), entries.repeat(redundancy, axis=0)


def plan_keyincrement_packed(layout, packed, lengths, values, rows: int,
                             region_length: int):
    """Pure Key-Increment scatter-add plan:
    ``(counter_indices, addends)`` or None.

    ``layout`` is a
    :class:`~repro.core.stores.keyincrement.KeyIncrementLayout`;
    ``values`` an int64 array (the caller handles the beyond-int64
    overflow fallback); ``rows`` already clamped to ``layout.rows``.
    Touches no translator or store state.
    """
    if region_length % 8 or layout.region_bytes > region_length:
        return None      # same bounds check fetch_add_many applies
    idx = layout.counter_indices_many(packed, lengths, rows)
    return idx.T.reshape(-1), values.repeat(rows)


#: Plan kernel and store layout per vector-capable primitive: all a
#: plan worker needs to turn a :meth:`Translator.plan_request` into
#: plan arrays.
PLAN_KERNELS = {DtaPrimitive.KEY_WRITE: plan_keywrite_packed,
                DtaPrimitive.KEY_INCREMENT: plan_keyincrement_packed}
PLAN_LAYOUTS = {DtaPrimitive.KEY_WRITE: KeyWriteLayout,
                DtaPrimitive.KEY_INCREMENT: KeyIncrementLayout}

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
*vector fast path* (:meth:`Translator.plan_batch` -> :class:`VectorPlan`
for Key-Write / Key-Increment, ``_vector_sketch`` for Sketch-Merge).
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
from repro.core.stores.postcarding import BLANK, PostcardingLayout
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
    """One vector-eligible batch as a single array operation.

    What :meth:`Translator.plan_batch` returns: the translator counters
    are already charged for ``reports`` reports, and the plan is
    committed — :meth:`apply` lands it exactly once, as one burst
    kernel call or as the equivalent scalar burst.  Request ``i``
    targets ``base + indices[i] * stride``; ``payload`` holds one
    ``stride``-byte row per Key-Write request, one int64 addend per
    Key-Increment request.
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
        kernel = kburst.fetch_add_many if atomic else kburst.write_rows
        target = kburst.resolve_target(client, self.rkey, atomic=atomic)
        if target is not None and kernel(target, client, self.indices,
                                         self.payload) is not None:
            return
        base, stride, rkey = self.base, self.stride, self.rkey
        if atomic:
            wrs = [WorkRequest(opcode=Opcode.FETCH_ADD,
                               remote_addr=base + int(index) * stride,
                               rkey=rkey, swap=int(addend))
                   for index, addend in zip(self.indices, self.payload)]
        else:
            wrs = [WorkRequest(opcode=Opcode.WRITE,
                               remote_addr=base + int(index) * stride,
                               rkey=rkey, data=row.tobytes())
                   for index, row in zip(self.indices, self.payload)]
        client.post_burst(wrs)


@dataclass
class _HashedBinding:
    layout: KeyWriteLayout | KeyIncrementLayout
    rkey: int


@dataclass
class _PostcardingBinding:
    layout: PostcardingLayout
    rkey: int
    cache: PostcardCache


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
    vectorized: bool = False                # numpy counter storage
    columns: list = field(default_factory=list)       # width x depth ints
    merged_count: list = field(default_factory=list)  # per-column reporters
    next_column: dict = field(default_factory=dict)   # reporter -> expected
    completed: list = field(default_factory=list)     # per-column bool
    next_transfer: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.columns, list) and not self.columns:
            self.alloc_storage()

    def alloc_storage(self) -> None:
        """(Re)allocate zeroed counter storage for a fresh epoch.

        List storage is the reference semantics; the vectorized binding
        holds the same values in int64 arrays, which every scalar code
        path indexes identically (the per-report lane works unchanged on
        either).
        """
        width, depth = self.layout.width, self.layout.depth
        if self.vectorized:
            self.columns = np.zeros((width, depth), dtype=np.int64)
            self.merged_count = np.zeros(width, dtype=np.int64)
            self.completed = np.zeros(width, dtype=bool)
        else:
            self.columns = [[0] * depth for _ in range(width)]
            self.merged_count = [0] * width
            self.completed = [False] * width


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
                                  sketch_id=p.get("sketch_id", 0),
                                  vectorized=self.vectorized)

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
        A vector-eligible batch runs as one :class:`VectorPlan`
        (:meth:`plan_batch` decides); every other batch takes the
        scalar reference lane of its primitive.

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

    # -- vector fast path: Key-Write / Key-Increment ----------------------

    def plan_batch(self, batch, client=None, *, arrays=None):
        """:meth:`plan_columns` for a batch object: a charged
        :class:`VectorPlan`, or None (no state touched) for the scalar
        lane.

        :meth:`process_batch` (hence the serial path), the streaming
        engine's translate stage and the process lane's parent side ask
        here.  A batch carrying essential / immediate flags is never
        planned; any other is packed (``plan_vector_*``) only once the
        decision went its way, so a declined batch costs a few
        attribute reads.  ``client`` defaults to the attached one (the
        engine passes the real client while its verb recorder is
        attached); ``arrays`` is ``(indices, payload)`` as a plan
        worker computed them from :meth:`plan_request`.
        """
        if batch.essential or batch.immediate:
            return None
        kind = batch.primitive
        planner = (self.plan_vector_keywrite
                   if kind is DtaPrimitive.KEY_WRITE
                   else self.plan_vector_keyincrement)
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
        return self._plan(kind, reports, client, None, self._plan_vector,
                          kind, packed, lengths, third, redundancy)

    def _plan(self, kind, reports: int, client, arrays, planner, *source):
        """Decide, then compute, then charge — the body both
        :meth:`plan_columns` and :meth:`plan_batch` are entries to.
        ``planner(*source, target)`` yields the plan arrays, or None;
        it runs only once the decision went its way."""
        hit = self._vector_target(kind, reports, client)
        if hit is None:
            return None
        binding, target = hit
        if arrays is None:
            arrays = planner(*source, target)
            if arrays is None:
                return None
        indices, payload = arrays
        count = len(indices)
        stats = self.stats
        stats.reports_in += reports
        if kind is DtaPrimitive.KEY_WRITE:
            stride = binding.layout.slot_bytes
            stats.keywrites += reports
            stats.rdma_writes += count
        else:
            stride = 8
            stats.keyincrements += reports
            stats.rdma_atomics += count
        stats.rdma_payload_bytes += count * stride
        self._payload_hist.observe_repeated(stride, count)
        return VectorPlan(kind, binding.rkey, binding.layout.base_addr,
                          stride, indices, payload, reports)

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
        if batch.essential or batch.immediate:
            return None
        hit = self._vector_target(batch.primitive, len(batch), client)
        if hit is None:
            return None
        binding, target = hit
        columns = _pack_columns(batch, binding.layout)
        if columns is None:
            return None
        return (batch.primitive, binding.layout,
                target.region.length) + columns

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
            rows, width = third.shape
            if width > layout.data_bytes:
                return None
            if width < layout.data_bytes:
                padded = np.zeros((rows, layout.data_bytes), dtype=np.uint8)
                padded[:, :width] = third
                third = padded
        else:
            layout = self._ki.layout
            redundancy = min(redundancy, layout.rows)
        return PLAN_KERNELS[kind](layout, packed, lengths, third,
                                  redundancy, target.region.length)

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
        self.stats.reports_in += len(keys)
        self.stats.postcards += len(keys)
        cache = self._pc.cache
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
        Large in-order runs take the vectorized merge when enabled.
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
        n = len(columns)
        if (self.vectorized and n >= MIN_VECTOR_BATCH
                and self._vector_sketch(columns, counter_rows,
                                        reporter_id)):
            return
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

    def _vector_sketch(self, columns, counter_rows,
                       reporter_id: int) -> bool:
        """Vectorized Sketch-Merge for an in-order column run.

        Only the clean case vectorizes — numpy-backed storage and a
        run that continues the reporter's expected column sequence
        exactly; anything else (out-of-order columns needing NACKs,
        list storage, counters beyond int64) returns False for the
        scalar lane.
        """
        sm = self._sm
        if isinstance(sm.columns, list):
            return False
        expected = sm.next_column.get(reporter_id, 0)
        n = len(columns)
        cols = np.asarray(columns, dtype=np.int64)
        if not np.array_equal(cols, np.arange(expected, expected + n)):
            return False
        try:
            counters = np.asarray(counter_rows, dtype=np.int64)
        except (OverflowError, ValueError):
            return False
        block = sm.columns[expected:expected + n]
        if sm.merge == "max":
            np.maximum(block, counters, out=block)
        else:
            block += counters
        sm.next_column[reporter_id] = expected + n
        sm.merged_count[expected:expected + n] += 1
        done = sm.merged_count[expected:expected + n] \
            >= sm.expected_reporters
        sm.completed[expected:expected + n] = done
        self.stats.reports_in += n
        self.stats.sketch_columns += n
        if done.any():
            wrs: list = []
            self._transfer_completed_columns(wrs)
            self._post_burst(wrs)
        return True

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
        sm.alloc_storage()
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
# objects, just matrices.


def _pack_columns(batch, layout):
    """A batch's columns in kernel form: ``(packed, lengths, third,
    fanout)``, or None where only the scalar lane has the semantics.

    ``third`` is the zero-padded data matrix and ``fanout`` the
    redundancy for Key-Write; the int64 values and the redundancy
    clamped to ``layout.rows`` for Key-Increment.
    """
    if batch.primitive is DtaPrimitive.KEY_WRITE:
        for data in batch.datas:
            if len(data) > layout.data_bytes:
                return None  # oversize data: scalar lane raises for it
        third, _ = kcrc.pack_keys(batch.datas, pad_to=layout.data_bytes)
        fanout = batch.redundancy
    else:
        try:
            third = np.asarray(batch.values, dtype=np.int64)
        except (OverflowError, ValueError):
            return None      # beyond int64: scalar wrap semantics apply
        fanout = min(batch.redundancy, layout.rows)
    packed, lengths = kcrc.pack_keys(batch.keys)
    return packed, lengths, third, fanout


def _batch_arrays(layout, batch, target):
    columns = _pack_columns(batch, layout)
    if columns is None:
        return None
    return PLAN_KERNELS[batch.primitive](layout, *columns,
                                         target.region.length)


def plan_keywrite_packed(layout, packed, lengths, packed_data,
                         redundancy: int, region_length: int):
    """Pure Key-Write scatter plan: ``(row_indices, rows)`` or None.

    ``layout`` is a :class:`~repro.core.stores.keywrite.KeyWriteLayout`;
    ``packed``/``lengths`` the packed key matrix; ``packed_data`` the
    ``(n, data_bytes)`` zero-padded value matrix (lengths already
    validated by the caller); ``region_length`` the byte length of the
    RDMA region the plan will be bounds-checked against.  Touches no
    translator or store state.
    """
    entries = layout.encode_entries_packed(packed, lengths, packed_data)
    slot_idx = layout.slot_indices_many(packed, lengths, redundancy)
    # Key-major flattening preserves arrival order, which the
    # scatter's last-write-wins dedup relies on.
    row_indices = slot_idx.T.reshape(-1)
    rows = np.repeat(entries, redundancy, axis=0)
    row_bytes = rows.shape[1]
    if row_bytes == 0:
        return None
    slots = region_length // row_bytes
    if len(row_indices) and (int(row_indices.min()) < 0
                             or int(row_indices.max()) >= slots):
        return None      # same bounds check write_rows would fail
    return row_indices, rows


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
    idx = layout.counter_indices_many(packed, lengths, rows)
    counter_indices = idx.T.reshape(-1)
    addends = np.repeat(values, rows)
    if region_length % 8:
        return None
    slots = region_length // 8
    if len(counter_indices) and (int(counter_indices.min()) < 0
                                 or int(counter_indices.max()) >= slots):
        return None      # same bounds check fetch_add_many applies
    return counter_indices, addends


#: Plan kernel and store layout per vector-capable primitive: all a
#: plan worker needs to turn a :meth:`Translator.plan_request` into
#: plan arrays.
PLAN_KERNELS = {DtaPrimitive.KEY_WRITE: plan_keywrite_packed,
                DtaPrimitive.KEY_INCREMENT: plan_keyincrement_packed}
PLAN_LAYOUTS = {DtaPrimitive.KEY_WRITE: KeyWriteLayout,
                DtaPrimitive.KEY_INCREMENT: KeyIncrementLayout}

"""The five DTA primitives, one record each — the write path's one table.

DTA's whole interface is five reporting primitives (Sections 3.2 and
4).  Everything the write path needs to know *about* a primitive —
as opposed to what it does with one — is a row of :data:`REGISTRY`:
its wire sub-header (the field table its operation class declares in
:mod:`repro.core.packets`), its :class:`~repro.core.batch.ReportBatch`
columns, how a report is routed to a collector, what identifies a run
of reports that may share a batch, which ``TranslatorStats`` counter
and which collector store it feeds.  The codecs (``packets``,
``ReportBatch.iter_raw``, ``kernels.wire.decode``), the routing
(``transport.serve.route_report``, ``ReportAssembler``) and the
translator's dispatch all read this table instead of naming primitives.

The rest is stated once, in the store module the row names: what a
primitive *does* at the translator — ``LANE`` (a :class:`Lane`) — and
its collector side — ``LAYOUT``, ``STORE`` (a :class:`Store`) and
``TRACKER`` (a :class:`Tracker`).  Adding a sixth primitive is one
operation class, one row here and one store module.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from operator import attrgetter

from repro.core import packets
from repro.core.packets import DtaPrimitive
from repro.kernels import crc as kcrc


@dataclass(frozen=True, eq=False)
class Primitive:
    """Everything table-shaped about one DTA primitive.

    Attributes:
        code: The wire operation code.
        service: Its name in CM adverts, workloads and fault plans.
        op: The operation dataclass; ``op.WIRE`` is the sub-header
            (also reachable as ``wire``).
        fields: The operation attributes that vary per report, in
            :class:`~repro.core.batch.ReportBatch` constructor order.
        columns: The batch attribute holding each of ``fields``.
        extra: The operation attribute a batch carries once — and that
            a run of reports must therefore share, next to primitive
            and reporter — or None.
        route: Routing kind: ``ClusterMap.for_<route>`` of the
            ``routed_by`` attribute picks the collector.
        reporter: The :class:`~repro.core.reporter.Reporter` method
            that sends one.
        stat: The ``TranslatorStats`` counter of translated reports.
        store: The :class:`~repro.core.collector.Collector` attribute
            of the store it lands in.
        module: The store module (:attr:`home`).
        value: The field a plan made straight from wire columns takes
            beside the keys, for the primitives whose lane has one
            (:attr:`Lane.plan_columns`).
        atomic: Lands as RDMA Fetch-and-Add rather than Write.
        batch_accept: Ranges the ``ReportBatch`` constructors hold a
            field to where they are *narrower* than the wire's (the
            sub-header's ``accept``, which the operation constructors
            and ``kernels.wire.decode`` enforce).
    """

    code: DtaPrimitive
    service: str
    op: type
    fields: tuple
    columns: tuple
    extra: str | None
    route: str
    routed_by: str
    reporter: str
    stat: str
    store: str
    module: str
    value: str | None = None
    atomic: bool = False
    batch_accept: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        derive = partial(object.__setattr__, self)
        derive("columns_of", attrgetter(*self.columns))
        derive("_fields_of", attrgetter(*self.fields))
        wire = self.op.WIRE
        derive("wire", wire)
        accept = {f.name: f.accept for f in wire.fields if f.accept}
        accept.update(self.batch_accept)
        #: field -> the batch attribute that holds it.
        column = dict(zip(self.fields, self.columns))
        derive("column_of", column)
        #: Per column ``(field, batch attribute, wire tail or None,
        #: batch accept range or None)`` — what ``ReportBatch`` checks.
        derive("column_specs", tuple(
            (name, column[name], wire.tail_of.get(name), accept.get(name))
            for name in self.fields))
        derive("extra_accept", accept.get(self.extra))
        #: ``(wire tail, batch attribute)`` in wire order.
        derive("tail_columns", tuple(
            (tail, column[tail.name]) for tail in wire.tails))

    def row(self, op) -> list:
        """One operation as one-row columns."""
        return list(zip(self._fields_of(op)))

    def extra_of(self, source):
        """The run-wide ``extra`` of an operation or a batch."""
        return getattr(source, self.extra) if self.extra else None

    def shard(self, cluster_map, routed) -> int:
        """The collector a report whose ``routed_by`` is ``routed``
        belongs to."""
        return getattr(cluster_map, "for_" + self.route)(routed)

    @cached_property
    def home(self):
        """The store module, declaring ``LANE``, ``LAYOUT``, ``STORE``
        and ``TRACKER``."""
        return importlib.import_module(self.module)

    @cached_property
    def _layout_geometry(self) -> tuple:
        """``(LAYOUT, its geometry field names)``, resolved once."""
        layout_class = self.home.LAYOUT
        return layout_class, geometry_fields(layout_class)

    def layout(self, addr: int, params: dict):
        """The store layout at ``addr`` for a service's ``params``: the
        geometry fields ``params`` holds, the others at their defaults."""
        layout_class, names = self._layout_geometry
        return layout_class(addr, **{
            name: params[name] for name in names if name in params})


@cache
def geometry_fields(layout_class) -> tuple:
    """A layout class's geometry: its dataclass fields but
    ``base_addr``."""
    return tuple(f.name for f in dataclasses.fields(layout_class)
                 if f.name != "base_addr")


def geometry(layout) -> dict:
    """``{field: value}`` of a layout's geometry, as adverts and
    checkpoint manifests record it."""
    return {name: getattr(layout, name)
            for name in geometry_fields(type(layout))}


def served(holder) -> list:
    """``(primitive, store)`` per store a collector — or a snapshot of
    one — serves, in registry order."""
    return [(primitive, store) for primitive in REGISTRY
            if (store := getattr(holder, primitive.store, None)) is not None]


KEY_WRITE = Primitive(
    DtaPrimitive.KEY_WRITE, "key_write", packets.KeyWrite,
    fields=("key", "data"), columns=("keys", "datas"), extra="redundancy",
    route="key", routed_by="key", reporter="key_write",
    stat="keywrites", store="keywrite",
    module="repro.core.stores.keywrite", value="data")
KEY_INCREMENT = Primitive(
    DtaPrimitive.KEY_INCREMENT, "key_increment", packets.KeyIncrement,
    fields=("key", "value"), columns=("keys", "values"), extra="redundancy",
    route="key", routed_by="key", reporter="key_increment",
    stat="keyincrements", store="keyincrement",
    module="repro.core.stores.keyincrement", value="value", atomic=True)
POSTCARDING = Primitive(
    DtaPrimitive.POSTCARDING, "postcarding", packets.Postcard,
    fields=("key", "hop", "value", "path_length"),
    columns=("keys", "hops", "values", "path_lengths"), extra="redundancy",
    route="key", routed_by="key", reporter="postcard",
    stat="postcards", store="postcarding",
    module="repro.core.stores.postcarding",
    # The wire takes any redundancy byte (0 means one copy, and what
    # the provisioned layout cannot hold is the lane's ``check`` to
    # reject); a batch built here is held to the documented 1..16.
    batch_accept={"redundancy": (1, 16)})
APPEND = Primitive(
    DtaPrimitive.APPEND, "append", packets.Append,
    fields=("list_id", "data"), columns=("list_ids", "datas"), extra=None,
    route="list", routed_by="list_id", reporter="append",
    stat="appends", store="append", module="repro.core.stores.append")
SKETCH_MERGE = Primitive(
    DtaPrimitive.SKETCH_MERGE, "sketch_merge", packets.SketchColumn,
    fields=("column", "counters"), columns=("columns", "counter_rows"),
    extra="sketch_id", route="sketch", routed_by="sketch_id",
    reporter="sketch_column", stat="sketch_columns", store="sketch",
    module="repro.core.stores.sketchstore")

#: Every primitive, in store-digest order (load-bearing:
#: ``runtime.engine.store_digest``, snapshots, checkpoints and the
#: socket lane's shared segments all walk the stores in this order).
#: Read these at call time, never into a module-level copy.
REGISTRY = (KEY_WRITE, KEY_INCREMENT, POSTCARDING, APPEND, SKETCH_MERGE)
BY_CODE = {primitive.code: primitive for primitive in REGISTRY}
BY_SERVICE = {primitive.service: primitive for primitive in REGISTRY}
STORES = tuple(primitive.store for primitive in REGISTRY)


class Store:
    """A primitive's collector side: queries over the registered region
    the translator writes into — all of its state but the query
    counters :meth:`reset_stats` zeroes."""

    def __init__(self, region, layout) -> None:
        if layout.region_bytes > region.length:
            raise ValueError("layout does not fit the memory region")
        if layout.base_addr != region.addr:
            raise ValueError("layout base address must match the region")
        self.region = region
        self.layout = layout
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the query counters, if the store keeps any."""


@dataclass(frozen=True)
class Tracker:
    """Which :mod:`repro.retention.epochs` tracker rotates a store, with
    its geometry (``cells`` and ``cell_bytes`` name layout attributes):
    ``"slots"`` tags each of ``cells`` cells of ``cell_bytes`` bytes
    with a generation; ``"deltas"`` keeps per-epoch deltas of ``cells``
    counters of struct code ``counter`` — of the whole region where
    each epoch re-streams it (``reset``); ``"segments"`` seals head
    ranges per ring list.
    """

    kind: str
    cells: str | None = None
    cell_bytes: str | None = None
    counter: str | None = None
    reset: bool = False


class Lane:
    """What one primitive does at a translator: built by
    ``Translator.configure`` from the service's CM advert, holding the
    store layout, the rkey and whatever state the primitive aggregates.

    ``cols`` is always the primitive's per-report columns
    (:attr:`Primitive.fields` order: a batch's lists, or one-row tuples
    for a single report) and ``extra`` its run-wide field.  Every lane
    has exactly one of each:

    * :meth:`check` — the one validation: the exception the service
      rejects these reports with, unraised, or None.  Depends on the
      layout only, never on lane state, and touches nothing.
    * :meth:`scalar` — the reference semantics every digest gate
      anchors to: run checked reports through the lane's state one by
      one and return the work requests to post.
    * :meth:`plan` — the same state transitions and RDMA effects as
      :meth:`scalar` over the same columns, as burst-kernel arrays
      ``(indices, payload)`` (see ``kernels.burst.VectorPlan``;
      index ``i`` is ``stride`` bytes times ``i`` into the region), or
      None *having touched nothing* where only the scalar lane has
      the semantics; it declines whatever :meth:`check` rejects.

    ``scalar(cols, extra, reporter_id, control)`` — ``control(message)``
    sends a control message back to the reporter — and ``plan(cols,
    extra, reporter_id, target)`` are each lane's own; so is ``stride``.
    """

    __slots__ = ("stats", "node", "rkey", "layout")
    primitive: Primitive
    #: ``plan_columns(packed, lengths, third, redundancy, target)``
    #: for the lanes that can plan straight from wire columns.
    plan_columns = None

    def __init__(self, translator, advert) -> None:
        # Not the translator itself: it owns its lanes, and a closed
        # deployment must be reclaimed by reference count alone.
        self.stats = translator.stats
        self.node = translator.name
        self.rkey = advert.rkey
        self.layout = self.primitive.layout(advert.addr, advert.params)

    def check(self, cols, extra):
        return None

    def immediate(self, cols) -> list:
        """Work requests that must go out now because the report was
        immediate-flagged and its notification found no write to ride."""
        return []


class ColumnLane(Lane):
    """A lane whose plan is a pure function of the report columns
    (Key-Write, Key-Increment): ``kernel(layout, packed, lengths,
    third, fanout, region_length)``, which the shared-memory plan
    workers (:mod:`repro.runtime.shm`) run from the layout's fields and
    the columns alone, and the socket lane feeds straight from a
    receive burst.  ``value_dtype`` is how ``third`` (and the plan's
    payload) crosses a shared slot: ``"u1"`` a byte matrix, ``"<i8"`` a
    vector.  Each such lane says how its value column becomes
    ``third``: ``matrix(values)`` from a batch's list (None where only
    the scalar lane has the semantics), then ``normalise(third,
    redundancy)`` to the ``(third, fanout)`` the kernel wants (None
    for what :meth:`check` rejects).
    """

    __slots__ = ()
    value_dtype: str
    kernel = None

    def request(self, cols, extra):
        """The kernel's column arguments ``(packed, lengths, third,
        fanout)`` for a plan worker, or None."""
        keys, values = cols
        third = self.matrix(values)
        columns = None if third is None else self.normalise(third, extra)
        if columns is None:
            return None
        return (*kcrc.pack_keys(keys), *columns)

    def plan(self, cols, extra, reporter_id: int, target):
        keys, values = cols
        third = self.matrix(values)
        if third is None:
            return None
        return self.plan_columns(*kcrc.hash_input(keys), third, extra,
                                 target)

    def plan_columns(self, packed, lengths, third, redundancy: int, target):
        """:meth:`plan` for columns that are already matrices."""
        columns = self.normalise(third, redundancy)
        if columns is None:
            return None
        return self.kernel(self.layout, packed, lengths, *columns,
                           target.region.length)

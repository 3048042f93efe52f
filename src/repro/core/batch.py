"""Struct-of-arrays report batches: the hot-path carrier.

Section 4.3 of the paper has the translator aggregate many DTA reports
into few RDMA verbs; Confluo (PAPERS.md) makes the same argument for
software collectors with its batched atomic appends.  This module is
the software-model analogue: a :class:`ReportBatch` carries N
homogeneous reports as parallel columns (struct of arrays) so every
pipeline stage — reporter, translator, link, NIC, queue pair — can
amortise its per-report overhead over the whole batch instead of
paying it N times.

Semantics are exactly those of the per-report path: a batch of N
reports produces the same collector store contents and the same obs
counter values as N individual reports (the differential tests in
``tests/core/test_batch_differential.py`` enforce this bit-for-bit).
The batched path only changes *how often* Python-level bookkeeping
runs, never *what* is counted or written.

Batches are homogeneous (one primitive, one reporter) because that is
what the hardware pipeline produces: a reporter emits runs of
same-typed reports, and the translator's per-primitive state machines
consume them independently.  Heterogeneous traffic is simply several
batches.
"""

from __future__ import annotations

import struct
from itertools import repeat

from repro import calibration
from repro.core import packets, primitives
from repro.core.packets import DtaFlags, DtaPrimitive

_HDR = struct.Struct(packets._BASE_FMT)

#: Per-report framing: Eth + IPv4 + UDP + the DTA base header.
_FRAMING_BYTES = (calibration.ETH_HDR_BYTES + calibration.IPV4_HDR_BYTES
                  + calibration.UDP_HDR_BYTES + packets.BASE_HEADER_BYTES)


def _check_sizes(column, tail) -> int:
    """Validate a column of byte strings (or counter tuples) against
    its wire tail's item-count range; returns its total item count.
    Works on the *set* of sizes: a telemetry column has one or two,
    whatever its length."""
    sizes = set(map(len, column))
    lo, hi = tail.accept
    if sizes and not lo <= min(sizes) <= max(sizes) <= hi:
        raise ValueError(f"len({tail.name}) must be in [{lo}, {hi}]")
    if len(sizes) == 1:
        (size,) = sizes
        return size * len(column)
    return sum(map(len, column))


class ReportBatch:
    """N same-primitive reports as parallel columns.

    Build one with the per-primitive constructors
    (:meth:`key_writes`, :meth:`key_increments`, :meth:`postcards`,
    :meth:`appends`), hand it to :meth:`Reporter.send_batch
    <repro.core.reporter.Reporter.send_batch>` or directly to
    :meth:`Translator.process_batch
    <repro.core.translator.Translator.process_batch>`.

    Attributes:
        primitive: The shared :class:`~repro.core.packets.DtaPrimitive`.
        reporter_id: Stamped by the reporter at send time (0 until then).
        essential: Batch-wide essential flag.  Essential reports carry
            per-report sequence numbers and backup state, so they take
            the per-report lane inside the batched entry points.
        immediate: Batch-wide RDMA-immediate flag (Section 6); also a
            per-report-lane trigger.
        redundancy: Batch-wide redundancy N (Key-Write/Key-Increment/
            Postcarding).  Reports needing distinct N go in distinct
            batches.
        seqs: Per-report sequence numbers, filled by the reporter for
            essential batches.
    """

    __slots__ = ("primitive", "reporter_id", "essential", "immediate",
                 "redundancy", "keys", "datas", "values", "hops",
                 "path_lengths", "list_ids", "seqs", "sketch_id",
                 "columns", "counter_rows", "_column_bytes", "_first")

    def __init__(self, primitive: DtaPrimitive, *, redundancy: int = 1,
                 essential: bool = False, immediate: bool = False) -> None:
        self.primitive = primitive
        #: The column ``len()`` counts (the primitive's first).
        self._first = primitives.BY_CODE[primitive].columns[0]
        self.reporter_id = 0
        self.essential = essential
        self.immediate = immediate
        self.redundancy = redundancy
        self.keys: list = []
        self.datas: list = []
        self.values: list = []
        self.hops: list = []
        self.path_lengths: list = []
        self.list_ids: list = []
        self.seqs: list = []
        self.sketch_id = 0
        self.columns: list = []
        self.counter_rows: list = []
        #: Bytes of the variable-length columns (keys, datas, sketch
        #: counters) as a constructor summed them while validating;
        #: None for a batch whose columns were filled in directly.
        self._column_bytes: int | None = None

    # ------------------------------------------------------------------
    # Constructors — one per batched primitive
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(cls, primitive, columns, extra=None, *,
                     essential: bool = False,
                     immediate: bool = False) -> "ReportBatch":
        """A validated batch of ``primitive`` (a
        :class:`~repro.core.primitives.Primitive`) from its columns, in
        ``primitive.fields`` order, and its run-wide ``extra``.

        What the named constructors below call: every range comes from
        the primitive's wire table (``primitive.batch_accept`` where a
        batch is held to a narrower one).
        """
        batch = cls(primitive.code, essential=essential, immediate=immediate)
        if primitive.extra is not None:
            accept = primitive.extra_accept
            if accept is not None and not accept[0] <= extra <= accept[1]:
                raise ValueError(f"{primitive.extra} must be in "
                                 f"[{accept[0]}, {accept[1]}]")
            setattr(batch, primitive.extra, extra)
        reports = len(columns[0])
        items = 0
        for (name, attr, tail, accept), column in zip(
                primitive.column_specs, columns):
            if len(column) != reports:
                raise ValueError(f"{'/'.join(primitive.columns)} must be "
                                 "the same length")
            if tail is None:
                column = list(column)
                if accept is not None:
                    lo, hi = accept
                    for value in column:
                        if not lo <= value <= hi:
                            raise ValueError(
                                f"{name} must be in [{lo}, {hi}]")
            else:
                column = list(column if tail.item == 1
                              else map(tuple, column))
                items += tail.item * _check_sizes(column, tail)
            setattr(batch, attr, column)
        batch._column_bytes = items
        return batch

    @classmethod
    def key_writes(cls, keys, datas, *, redundancy: int = 2,
                   essential: bool = False,
                   immediate: bool = False) -> "ReportBatch":
        """A batch of Key-Write reports (parallel ``keys``/``datas``)."""
        return cls.from_columns(primitives.KEY_WRITE, (keys, datas),
                                redundancy, essential=essential,
                                immediate=immediate)

    @classmethod
    def key_increments(cls, keys, values, *, redundancy: int = 2,
                       essential: bool = False,
                       immediate: bool = False) -> "ReportBatch":
        """A batch of Key-Increment reports."""
        return cls.from_columns(primitives.KEY_INCREMENT, (keys, values),
                                redundancy, essential=essential,
                                immediate=immediate)

    @classmethod
    def postcards(cls, keys, hops, values, *, path_lengths=None,
                  redundancy: int = 1, essential: bool = False,
                  immediate: bool = False) -> "ReportBatch":
        """A batch of Postcarding reports (one hop observation each)."""
        if path_lengths is None:
            path_lengths = [0] * len(keys)
        return cls.from_columns(primitives.POSTCARDING,
                                (keys, hops, values, path_lengths),
                                redundancy, essential=essential,
                                immediate=immediate)

    @classmethod
    def appends(cls, list_ids, datas, *, essential: bool = False,
                immediate: bool = False) -> "ReportBatch":
        """A batch of Append reports."""
        return cls.from_columns(primitives.APPEND, (list_ids, datas),
                                essential=essential, immediate=immediate)

    @classmethod
    def sketch_columns(cls, sketch_id: int, columns, counter_rows, *,
                       essential: bool = False,
                       immediate: bool = False) -> "ReportBatch":
        """A batch of Sketch-Merge column reports.

        ``columns[i]`` carries the ``counter_rows[i]`` counters (one per
        sketch row) of sketch ``sketch_id`` — a run of the in-order
        column stream one reporter emits per epoch (Section 4.2).
        """
        return cls.from_columns(primitives.SKETCH_MERGE,
                                (columns, counter_rows), sketch_id,
                                essential=essential, immediate=immediate)

    @classmethod
    def concat(cls, batches) -> "ReportBatch":
        """One batch of ``batches``' reports, in order.

        The batches share primitive, reporter, flags and run-wide
        ``extra`` — a run the streaming engine plans as one (every
        column the primitive's table names is joined; nothing is
        re-validated).  A single batch is returned as it is.
        """
        first = batches[0]
        if len(batches) == 1:
            return first
        spec = primitives.BY_CODE[first.primitive]
        batch = cls(first.primitive, redundancy=first.redundancy,
                    essential=first.essential, immediate=first.immediate)
        batch.reporter_id = first.reporter_id
        if spec.extra is not None:
            setattr(batch, spec.extra, getattr(first, spec.extra))
        for _name, attr, _tail, _accept in spec.column_specs:
            column: list = []
            for part in batches:
                column += getattr(part, attr)
            setattr(batch, attr, column)
        sizes = [part._column_bytes for part in batches]
        batch._column_bytes = None if None in sizes else sum(sizes)
        return batch

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(getattr(self, self._first))

    @property
    def flags(self) -> DtaFlags:
        flags = DtaFlags.NONE
        if self.essential:
            flags |= DtaFlags.ESSENTIAL
        if self.immediate:
            flags |= DtaFlags.IMMEDIATE
        return flags

    def wire_bytes(self) -> int:
        """Total on-wire bytes of the batch's reports.

        Eth+IPv4+UDP framing plus DTA header and subheader per report —
        exactly ``sum(packets.report_wire_bytes(op))`` over the batch's
        operations, computed from the column lengths without
        serialising anything.  The streaming runtime's link stage
        charges byte accounting from this.  The constructors summed the
        variable-length columns while validating them; a batch filled
        in directly is summed here.
        """
        spec = primitives.BY_CODE[self.primitive]
        column_bytes = self._column_bytes
        if column_bytes is None:
            column_bytes = sum(
                tail.item * sum(map(len, getattr(self, column)))
                for tail, column in spec.tail_columns)
        return ((_FRAMING_BYTES + spec.wire.size) * len(self)
                + column_bytes)

    def _headers(self):
        """Per-report packed DTA base headers.

        Non-essential batches share one header (seq 0); essential ones
        carry the reporter-assigned per-report sequence numbers.
        """
        ver_prim = (packets.DTA_VERSION << 4) | int(self.primitive)
        flags = int(self.flags)
        rid = self.reporter_id
        if self.essential:
            if len(self.seqs) != len(self):
                raise ValueError("essential batch without assigned seqs "
                                 "(send it through Reporter.send_batch)")
            for seq in self.seqs:
                yield _HDR.pack(ver_prim, flags, rid, seq & 0xFFFFFFFF)
        else:
            header = _HDR.pack(ver_prim, flags, rid, 0)
            for _ in range(len(self)):
                yield header

    def iter_raw(self):
        """Yield each report as DTA wire bytes.

        Byte-identical to :func:`repro.core.packets.make_report` on the
        equivalent per-report operation — this is what the per-report
        fallback lanes and the fabric path transmit.
        """
        spec = primitives.BY_CODE[self.primitive]
        wire, column = spec.wire, spec.column_of
        # One value stream per fixed field, in wire order: a tail's
        # item count, a per-report column, or the run-wide extra.
        fixed = map(wire.struct.pack, *(
            map(len, getattr(self, column[field.sizes])) if field.sizes
            else getattr(self, column[field.name]) if field.name in column
            else repeat(getattr(self, field.name))
            for field in wire.fields))
        tails = [getattr(self, name) if tail.item == 1
                 else map(packets.pack_counters, getattr(self, name))
                 for tail, name in spec.tail_columns]
        body = tails[0] if len(tails) == 1 else map(b"".join, zip(*tails))
        for header, sub, tail in zip(self._headers(), fixed, body):
            yield header + sub + tail

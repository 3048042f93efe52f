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

from repro import calibration
from repro.core import packets
from repro.core.packets import (
    MAX_DATA_BYTES,
    MAX_KEY_BYTES,
    DtaFlags,
    DtaPrimitive,
)

_HDR = struct.Struct(packets._BASE_FMT)
_KW_SUB = struct.Struct(">BBH")    # redundancy, key_len, data_len
_KI_SUB = struct.Struct(">BBq")    # redundancy, key_len, value
_PC_SUB = struct.Struct(">BBBBI")  # redundancy, key_len, hop, path_len, value
_AP_SUB = struct.Struct(">HH")     # list_id, data_len
_SM_SUB = struct.Struct(">HHB")    # sketch_id, column, depth

_SUBHEADERS = {DtaPrimitive.KEY_WRITE: _KW_SUB,
               DtaPrimitive.KEY_INCREMENT: _KI_SUB,
               DtaPrimitive.POSTCARDING: _PC_SUB,
               DtaPrimitive.APPEND: _AP_SUB,
               DtaPrimitive.SKETCH_MERGE: _SM_SUB}

#: Per-report framing: Eth + IPv4 + UDP + the DTA base header.
_FRAMING_BYTES = (calibration.ETH_HDR_BYTES + calibration.IPV4_HDR_BYTES
                  + calibration.UDP_HDR_BYTES + packets.BASE_HEADER_BYTES)


def _total_bytes(column, sizes: set) -> int:
    """Bytes in ``column``, whose distinct item sizes are ``sizes``."""
    if len(sizes) == 1:
        (size,) = sizes
        return size * len(column)
    return sum(map(len, column))


def _check_keys(keys) -> int:
    """Validate the key column; returns its total byte count."""
    sizes = set(map(len, keys))
    if sizes and not 0 < min(sizes) <= max(sizes) <= MAX_KEY_BYTES:
        raise ValueError(f"key must be 1..{MAX_KEY_BYTES} bytes")
    return _total_bytes(keys, sizes)


def _check_datas(datas, *, allow_empty: bool) -> int:
    """Validate a data column; returns its total byte count."""
    sizes = set(map(len, datas))
    if sizes:
        if not allow_empty and not min(sizes):
            raise ValueError("append data must be non-empty")
        if max(sizes) > MAX_DATA_BYTES:
            raise ValueError(f"data exceeds {MAX_DATA_BYTES} bytes")
    return _total_bytes(datas, sizes)


def _check_redundancy(redundancy: int) -> None:
    if not 1 <= redundancy <= 16:
        raise ValueError("redundancy must be in [1, 16]")


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
                 "columns", "counter_rows", "_column_bytes")

    def __init__(self, primitive: DtaPrimitive, *, redundancy: int = 1,
                 essential: bool = False, immediate: bool = False) -> None:
        self.primitive = primitive
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
    def key_writes(cls, keys, datas, *, redundancy: int = 2,
                   essential: bool = False,
                   immediate: bool = False) -> "ReportBatch":
        """A batch of Key-Write reports (parallel ``keys``/``datas``)."""
        if len(keys) != len(datas):
            raise ValueError("keys and datas must be the same length")
        _check_redundancy(redundancy)
        column_bytes = _check_keys(keys) + _check_datas(datas,
                                                        allow_empty=True)
        batch = cls(DtaPrimitive.KEY_WRITE, redundancy=redundancy,
                    essential=essential, immediate=immediate)
        batch.keys = list(keys)
        batch.datas = list(datas)
        batch._column_bytes = column_bytes
        return batch

    @classmethod
    def key_increments(cls, keys, values, *, redundancy: int = 2,
                       essential: bool = False,
                       immediate: bool = False) -> "ReportBatch":
        """A batch of Key-Increment reports."""
        if len(keys) != len(values):
            raise ValueError("keys and values must be the same length")
        _check_redundancy(redundancy)
        column_bytes = _check_keys(keys)
        batch = cls(DtaPrimitive.KEY_INCREMENT, redundancy=redundancy,
                    essential=essential, immediate=immediate)
        batch.keys = list(keys)
        batch.values = list(values)
        batch._column_bytes = column_bytes
        return batch

    @classmethod
    def postcards(cls, keys, hops, values, *, path_lengths=None,
                  redundancy: int = 1, essential: bool = False,
                  immediate: bool = False) -> "ReportBatch":
        """A batch of Postcarding reports (one hop observation each)."""
        if not len(keys) == len(hops) == len(values):
            raise ValueError("keys/hops/values must be the same length")
        _check_redundancy(redundancy)
        column_bytes = _check_keys(keys)
        for hop in hops:
            if not 0 <= hop < 32:
                raise ValueError("hop must be in [0, 32)")
        for value in values:
            if not 0 <= value < (1 << 32):
                raise ValueError("postcard value must fit 32 bits")
        batch = cls(DtaPrimitive.POSTCARDING, redundancy=redundancy,
                    essential=essential, immediate=immediate)
        batch.keys = list(keys)
        batch.hops = list(hops)
        batch.values = list(values)
        batch.path_lengths = ([0] * len(batch.keys) if path_lengths is None
                              else list(path_lengths))
        if len(batch.path_lengths) != len(batch.keys):
            raise ValueError("path_lengths must match keys in length")
        batch._column_bytes = column_bytes
        return batch

    @classmethod
    def appends(cls, list_ids, datas, *, essential: bool = False,
                immediate: bool = False) -> "ReportBatch":
        """A batch of Append reports."""
        if len(list_ids) != len(datas):
            raise ValueError("list_ids and datas must be the same length")
        for list_id in list_ids:
            if not 0 <= list_id < (1 << 16):
                raise ValueError("list_id must fit 16 bits")
        column_bytes = _check_datas(datas, allow_empty=False)
        batch = cls(DtaPrimitive.APPEND, essential=essential,
                    immediate=immediate)
        batch.list_ids = list(list_ids)
        batch.datas = list(datas)
        batch._column_bytes = column_bytes
        return batch

    @classmethod
    def sketch_columns(cls, sketch_id: int, columns, counter_rows, *,
                       essential: bool = False,
                       immediate: bool = False) -> "ReportBatch":
        """A batch of Sketch-Merge column reports.

        ``columns[i]`` carries the ``counter_rows[i]`` counters (one per
        sketch row) of sketch ``sketch_id`` — a run of the in-order
        column stream one reporter emits per epoch (Section 4.2).
        """
        if len(columns) != len(counter_rows):
            raise ValueError("columns and counter_rows must be the "
                             "same length")
        if not 0 <= sketch_id < (1 << 16):
            raise ValueError("sketch_id must fit 16 bits")
        for column in columns:
            if not 0 <= column < (1 << 16):
                raise ValueError("column index must fit 16 bits")
        counters_total = 0
        for counters in counter_rows:
            depth = len(counters)
            if not depth:
                raise ValueError("a sketch column carries >= 1 counter")
            if depth > 255:
                raise ValueError("at most 255 counters per column")
            counters_total += depth
        batch = cls(DtaPrimitive.SKETCH_MERGE, essential=essential,
                    immediate=immediate)
        batch.sketch_id = sketch_id
        batch.columns = list(columns)
        batch.counter_rows = [tuple(counters) for counters in counter_rows]
        batch._column_bytes = 4 * counters_total
        return batch

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self.primitive is DtaPrimitive.APPEND:
            return len(self.list_ids)
        if self.primitive is DtaPrimitive.SKETCH_MERGE:
            return len(self.columns)
        return len(self.keys)

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
        prim = self.primitive
        sub = _SUBHEADERS.get(prim)
        if sub is None:
            raise ValueError(f"cannot size a {prim.name} batch")
        column_bytes = self._column_bytes
        if column_bytes is None:
            if prim is DtaPrimitive.SKETCH_MERGE:
                column_bytes = 4 * sum(map(len, self.counter_rows))
            else:
                column_bytes = (sum(map(len, self.keys))
                                + sum(map(len, self.datas)))
        return (_FRAMING_BYTES + sub.size) * len(self) + column_bytes

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
        prim = self.primitive
        headers = self._headers()
        if prim is DtaPrimitive.KEY_WRITE:
            red = self.redundancy
            for header, key, data in zip(headers, self.keys, self.datas):
                yield (header + _KW_SUB.pack(red, len(key), len(data))
                       + key + data)
        elif prim is DtaPrimitive.KEY_INCREMENT:
            red = self.redundancy
            for header, key, value in zip(headers, self.keys, self.values):
                yield header + _KI_SUB.pack(red, len(key), value) + key
        elif prim is DtaPrimitive.POSTCARDING:
            red = self.redundancy
            for header, key, hop, value, plen in zip(
                    headers, self.keys, self.hops, self.values,
                    self.path_lengths):
                yield (header + _PC_SUB.pack(red, len(key), hop, plen, value)
                       + key)
        elif prim is DtaPrimitive.APPEND:
            for header, list_id, data in zip(headers, self.list_ids,
                                             self.datas):
                yield header + _AP_SUB.pack(list_id, len(data)) + data
        elif prim is DtaPrimitive.SKETCH_MERGE:
            sketch_id = self.sketch_id
            for header, column, counters in zip(headers, self.columns,
                                                self.counter_rows):
                depth = len(counters)
                yield (header + _SM_SUB.pack(sketch_id, column, depth)
                       + struct.pack(f">{depth}I",
                                     *[c & 0xFFFFFFFF for c in counters]))
        else:
            raise ValueError(f"cannot serialise a {prim.name} batch")

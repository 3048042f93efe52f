"""The merged-sketch store: network-wide sketch counters in collector memory.

Section 4.2 ("Sketch-Merge"): the translator merges per-switch columns
and, once a column has been merged by every expected reporter, flags it
for transfer; completed columns are written to collector memory in
contiguous batches of w columns, cutting the RDMA message rate by w.

The region holds the counter matrix column-major (all of column 0's
depth counters, then column 1's, ...), so a w-column batch is one
contiguous write.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from itertools import chain

from repro import obs
from repro.core import primitives
from repro.core.packets import Nack
from repro.kernels import crc as kcrc
from repro.rdma.verbs import Opcode, WorkRequest

COUNTER_BYTES = 4


@dataclass(frozen=True)
class SketchLayout:
    """Address arithmetic for a column-major sketch counter region."""

    base_addr: int
    width: int   # columns
    depth: int   # counters per column

    def __post_init__(self) -> None:
        if self.width <= 0 or self.depth <= 0:
            raise ValueError("width and depth must be positive")

    @property
    def counters(self) -> int:
        return self.width * self.depth

    @property
    def column_bytes(self) -> int:
        return self.depth * COUNTER_BYTES

    @property
    def region_bytes(self) -> int:
        return self.width * self.column_bytes

    def column_addr(self, column: int) -> int:
        if not 0 <= column < self.width:
            raise IndexError("column out of range")
        return self.base_addr + column * self.column_bytes

    def encode_columns(self, columns: list) -> bytes:
        """Payload for a batch of column tuples (each depth counters)."""
        out = bytearray()
        for counters in columns:
            if len(counters) != self.depth:
                raise ValueError("column depth mismatch")
            out += struct.pack(f">{self.depth}I",
                               *[c & 0xFFFFFFFF for c in counters])
        return bytes(out)

    def encode_columns_array(self, columns) -> bytes:
        """Array twin of :meth:`encode_columns` for a ``(w, depth)``
        integer matrix — same masked big-endian byte stream."""
        cols = np.asarray(columns)
        if cols.ndim != 2 or cols.shape[1] != self.depth:
            raise ValueError("column depth mismatch")
        return (cols & 0xFFFFFFFF).astype(">u4").tobytes()


class SketchStore(primitives.Store):
    """Collector-side reads of the merged network-wide sketch."""

    def column(self, index: int) -> tuple:
        """The depth counters of one column."""
        offset = index * self.layout.column_bytes
        raw = self.region.local_read(offset, self.layout.column_bytes)
        return struct.unpack(f">{self.layout.depth}I", raw)

    def counters(self) -> np.ndarray:
        """The region as a ``(width, depth)`` big-endian ``uint32``
        view — ``counters()[j, r]`` is row ``r`` of column ``j``.

        Built per call and not kept (a cached view would pin a
        shared-memory segment); index it and let it go.
        """
        layout = self.layout
        return np.frombuffer(
            self.region.buf, dtype=">u4", count=layout.counters,
        ).reshape(layout.width, layout.depth)

    def matrix(self) -> list:
        """The full counter matrix as rows (depth lists of width ints)."""
        return self.counters().T.tolist()

    def point_query(self, key: bytes, hashes) -> int:
        """CMS-style min-row estimate using the provided hash family."""
        counters = self.counters()
        width = self.layout.width
        return min(int(counters[h(key) % width, r])
                   for r, h in zip(range(self.layout.depth), hashes))

    def point_query_many(self, keys, *, rows: int | None = None,
                         packed=None) -> list:
        """:meth:`point_query` for a whole key batch under the global
        hash family: ``[point_query(key, hash_family(rows)) for key in
        keys]`` with ``rows`` defaulting to (and capped at) the
        sketch's depth.

        The counter view is built once (:func:`point_estimates` does
        the rest).
        """
        depth = self.layout.depth
        return point_estimates(self.counters(), keys,
                               min(rows or depth, depth), packed)


def point_estimates(counters, keys, rows: int, packed=None) -> list:
    """CMS min-row estimates of ``keys`` over a ``(width, depth)``
    counter matrix — rows ``0..rows-1`` of the global hash family, each
    lane run once over the packed batch (``packed`` is an optional
    ``kernels.crc.pack_keys(keys)`` pair)."""
    matrix, lengths = packed if packed is not None else kcrc.pack_keys(keys)
    columns = kcrc.hash_lanes(rows, matrix, lengths) \
        % np.uint32(counters.shape[0])
    return counters[columns, np.arange(rows)[:, None]].min(axis=0).tolist()


#: The collector side (``primitives.Primitive.home``).  Every epoch
#: re-streams the sketch (Section 3.2), so the region holds one epoch.
LAYOUT, STORE = SketchLayout, SketchStore
TRACKER = primitives.Tracker("deltas", cells="counters", counter=">I",
                             reset=True)


class SketchMergeLane(primitives.Lane):
    """Sketch-Merge at the translator: columns from all reporters are
    merged, and network-wide columns transferred in contiguous batches
    of w (state: the counters, per-column merge counts and completion
    flags, per-reporter column cursors, the transfer cursor)."""

    __slots__ = ("expected_reporters", "batch_columns", "merge", "sketch_id",
                 "columns", "merged_count", "completed", "next_column",
                 "next_transfer")
    primitive = primitives.SKETCH_MERGE

    def __init__(self, translator, advert) -> None:
        super().__init__(translator, advert)
        p = advert.params
        self.expected_reporters = p["expected_reporters"]
        self.batch_columns = p.get("batch_columns", 8)
        self.merge = p.get("merge", "sum")          # "sum" | "max"
        self.sketch_id = p.get("sketch_id", 0)
        # Counter storage is allocated by the first report that needs
        # it (width x depth zeros cost more than the rest of a
        # deployment's set-up), in the form of the lane that report
        # runs on.
        self.columns = None                 # width x depth ints
        self.merged_count = None            # per-column reporters
        self.completed = None               # per-column bool
        self.next_column: dict = {}         # reporter -> expected
        self.next_transfer = 0

    @property
    def stride(self) -> int:
        return self.layout.column_bytes

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

    def reset_epoch(self) -> None:
        """Start a fresh sketch epoch (Section 3.2: sketches are
        reported per epoch; counters and per-reporter column cursors
        reset once a network-wide sketch has been transferred)."""
        self.columns = self.merged_count = self.completed = None
        self.next_column.clear()
        self.next_transfer = 0
        obs.emit("translator", "sketch_epoch_reset",
                 node=self.node, sketch_id=self.sketch_id)
        obs.get_registry().advance_epoch()

    def check(self, cols, sketch_id):
        columns, counter_rows = cols
        if sketch_id != self.sketch_id:
            return ValueError(
                f"sketch {sketch_id} not served here (this translator "
                f"aggregates sketch {self.sketch_id}; deploy one service "
                "per sketch, Section 6: sketches all go to one collector)")
        if min(columns) < 0 or max(columns) >= self.layout.width:
            return ValueError("sketch column out of range")
        if set(map(len, counter_rows)) != {self.layout.depth}:
            return ValueError("sketch column depth mismatch")
        return None

    def scalar(self, cols, sketch_id, reporter_id, control) -> list:
        """The column state machine — in-order checks, NACKs (Section
        4.2: an out-of-order column is NACKed back to the reporter and
        not merged), merge, completion — with every resulting transfer
        write collected into one burst."""
        if self.columns is None:
            self.alloc_storage(arrays=False)
        is_max = self.merge == "max"
        wrs: list = []
        for column, counters in zip(*cols):
            expected = self.next_column.get(reporter_id, 0)
            if column != expected:
                self.stats.sketch_column_nacks += 1
                control(Nack(expected_seq=expected, missing=1))
                continue
            self.next_column[reporter_id] = expected + 1
            local = self.columns[column]
            if is_max:
                for i, value in enumerate(counters):
                    if value > local[i]:
                        local[i] = value
            else:
                for i, value in enumerate(counters):
                    local[i] += value
            self.merged_count[column] += 1
            if self.merged_count[column] >= self.expected_reporters:
                self.completed[column] = True
                self._transfer_completed_columns(wrs)
        return wrs

    def _transfer_completed_columns(self, sink: list) -> None:
        """Collect writes of w contiguous completed columns into ``sink``."""
        layout = self.layout
        array_storage = not isinstance(self.columns, list)
        while True:
            start = self.next_transfer
            end = start + self.batch_columns
            if end > layout.width:
                # Tail shorter than w: transfer once everything is done.
                if start < layout.width and all(
                        self.completed[start:layout.width]):
                    end = layout.width
                else:
                    return
            if not all(self.completed[start:end]):
                return
            if array_storage:
                payload = layout.encode_columns_array(
                    self.columns[start:end])
            else:
                payload = layout.encode_columns(self.columns[start:end])
            sink.append(WorkRequest(
                opcode=Opcode.WRITE, remote_addr=layout.column_addr(start),
                rkey=self.rkey, data=payload, signaled=False))
            self.stats.sketch_batches += 1
            self.next_transfer = end
            if self.next_transfer >= layout.width:
                return

    def plan(self, cols, sketch_id, reporter_id, target):
        """A run that continues the reporter's column sequence: one
        block merge, and every transfer the merge completes —
        ``batch_columns`` columns to a write, the tail fewer.  Anything
        else — an out-of-order column owed a NACK, counters beyond
        int64 — is the scalar lane's.
        """
        if self.check(cols, sketch_id) is not None:
            return None
        layout = self.layout
        columns, counter_rows = cols
        n = len(columns)
        start = self.next_column.get(reporter_id, 0)
        if columns != list(range(start, start + n)):
            return None
        try:
            counters = np.fromiter(
                chain.from_iterable(counter_rows), dtype=np.int64,
                count=n * layout.depth).reshape(n, layout.depth)
        except OverflowError:
            return None
        if not self.array_storage():
            return None

        block = self.columns[start:start + n]
        if self.merge == "max":
            np.maximum(block, counters, out=block)
        else:
            block += counters
        self.next_column[reporter_id] = start + n
        merged = self.merged_count[start:start + n]
        merged += 1
        np.greater_equal(merged, self.expected_reporters,
                         out=self.completed[start:start + n])

        # Transfers: whole batches of completed columns from the
        # cursor, and the short tail once the last column is done.
        first = self.next_transfer
        rest = self.completed[first:]
        through = layout.width if rest.all() else first + int(rest.argmin())
        starts = list(range(first, through - self.batch_columns + 1,
                            self.batch_columns))
        end = first + self.batch_columns * len(starts)
        if through == layout.width and end < through:
            starts.append(end)
            end = through
        self.next_transfer = end
        self.stats.sketch_batches += len(starts)
        blob = layout.encode_columns_array(self.columns[first:end])
        cuts = [(at - first) * layout.column_bytes for at in (*starts, end)]
        return starts, [blob[a:b] for a, b in zip(cuts, cuts[1:])]


#: The translator side (``primitives.Primitive.home``).
LANE = SketchMergeLane

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

from repro.kernels import crc as kcrc
from repro.rdma.memory import MemoryRegion

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


class SketchStore:
    """Collector-side reads of the merged network-wide sketch."""

    def __init__(self, region: MemoryRegion, layout: SketchLayout) -> None:
        if layout.region_bytes > region.length:
            raise ValueError("layout does not fit the memory region")
        if layout.base_addr != region.addr:
            raise ValueError("layout base address must match the region")
        self.region = region
        self.layout = layout

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
            self.region.buf, dtype=">u4", count=layout.width * layout.depth,
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

        The counter view is built once and each of the ``rows`` hash
        lanes runs once over the packed batch (``packed`` is an
        optional ``kernels.crc.pack_keys(keys)`` pair).
        """
        layout = self.layout
        rows = min(rows or layout.depth, layout.depth)
        matrix, lengths = packed if packed is not None \
            else kcrc.pack_keys(keys)
        columns = kcrc.hash_lanes(rows, matrix, lengths) \
            % np.uint32(layout.width)
        cells = self.counters()[columns, np.arange(rows)[:, None]]
        return cells.min(axis=0).tolist()

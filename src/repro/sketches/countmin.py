"""Count-Min sketch (Cormode & Muthukrishnan) with column transport.

Merging is counter-wise addition; the query is the row-wise minimum,
giving an overestimate bounded by ``eps * total`` with probability
``1 - delta`` for ``width = ceil(e / eps)`` and ``depth = ceil(ln 1/delta)``.
DTA's Key-Increment store is "a Count-Min Sketch" over RDMA
Fetch-and-Add (Section 3.2), so this module is also its reference
semantics in the test suite.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.sketches.base import MergeError, Sketch
from repro.switch.crc import hash_family


class CountMinSketch(Sketch):
    """A depth x width array of counters with per-row hashing.

    Args:
        width: Counters per row.
        depth: Number of rows (independent hash functions).
    """

    def __init__(self, width: int = 2048, depth: int = 4) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self._rows = [[0] * width for _ in range(depth)]
        self._hashes = hash_family(depth)
        self.total = 0

    @classmethod
    def from_error_bounds(cls, epsilon: float, delta: float
                          ) -> "CountMinSketch":
        """Size the sketch for an (epsilon, delta) guarantee."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ValueError("epsilon and delta must be in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=depth)

    def update(self, key: bytes, weight: int = 1) -> None:
        self.total += weight
        for row, h in zip(self._rows, self._hashes):
            row[h(key) % self.width] += weight

    def query(self, key: bytes) -> int:
        """Point estimate: min over rows (never underestimates)."""
        return min(row[h(key) % self.width]
                   for row, h in zip(self._rows, self._hashes))

    def merge(self, other: Sketch) -> None:
        self.check_compatible(other)
        assert isinstance(other, CountMinSketch)
        if (self.width, self.depth) != (other.width, other.depth):
            raise MergeError("CountMin shapes differ")
        for mine, theirs in zip(self._rows, other._rows):
            for i, value in enumerate(theirs):
                mine[i] += value
        self.total += other.total

    # -- column transport ---------------------------------------------------

    def columns(self) -> Iterable[tuple]:
        """Yield (column index, (row0, row1, ...)) for DTA transport."""
        for j in range(self.width):
            yield j, tuple(row[j] for row in self._rows)

    def merge_column(self, index: int, column: tuple) -> None:
        if not 0 <= index < self.width:
            raise IndexError("column index out of range")
        if len(column) != self.depth:
            raise MergeError("column depth mismatch")
        for row, value in zip(self._rows, column):
            row[index] += value

    def counters(self) -> list[list[int]]:
        """Copy of the raw counter matrix (for serialisation/tests)."""
        return [[int(v) for v in row] for row in self._rows]

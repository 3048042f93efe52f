"""Count sketch (Charikar, Chen, Farach-Colton): signed counters.

Like Count-Min but each update is multiplied by a +/-1 sign hash and
the query is the *median* of the per-row estimates, giving an unbiased
estimator.  Merging remains counter-wise addition, which is what the
DTA translator performs.
"""

from __future__ import annotations

import statistics
from typing import Iterable

from repro.sketches.base import MergeError, Sketch
from repro.switch.crc import hash_family


class CountSketch(Sketch):
    """A depth x width matrix of signed counters."""

    def __init__(self, width: int = 2048, depth: int = 5) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self._rows = [[0] * width for _ in range(depth)]
        self._hashes = hash_family(depth)
        self._signs = hash_family(2 * depth)[depth:]
        self.total = 0

    def _sign(self, row: int, key: bytes) -> int:
        return 1 if self._signs[row](key) & 1 else -1

    def update(self, key: bytes, weight: int = 1) -> None:
        self.total += weight
        for r, (row, h) in enumerate(zip(self._rows, self._hashes)):
            row[h(key) % self.width] += self._sign(r, key) * weight

    def query(self, key: bytes) -> int:
        """Unbiased point estimate: median of signed row estimates."""
        estimates = [
            self._sign(r, key) * row[h(key) % self.width]
            for r, (row, h) in enumerate(zip(self._rows, self._hashes))
        ]
        return int(statistics.median(estimates))

    def merge(self, other: Sketch) -> None:
        self.check_compatible(other)
        assert isinstance(other, CountSketch)
        if (self.width, self.depth) != (other.width, other.depth):
            raise MergeError("CountSketch shapes differ")
        for mine, theirs in zip(self._rows, other._rows):
            for i, value in enumerate(theirs):
                mine[i] += value
        self.total += other.total

    def columns(self) -> Iterable[tuple]:
        for j in range(self.width):
            yield j, tuple(row[j] for row in self._rows)

    def merge_column(self, index: int, column: tuple) -> None:
        if not 0 <= index < self.width:
            raise IndexError("column index out of range")
        if len(column) != self.depth:
            raise MergeError("column depth mismatch")
        for row, value in zip(self._rows, column):
            row[index] += value

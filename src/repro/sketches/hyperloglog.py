"""HyperLogLog cardinality estimator (Flajolet et al.) with max-merging.

The estimator keeps ``m = 2**p`` registers of leading-zero counts;
merging is register-wise max — an operation RDMA verbs *cannot* express
(no atomic max), which is precisely the paper's argument for merging at
the programmable translator instead of at the NIC (Section 3.2:
"Programmable switches support merging procedures that RDMA do not,
such as max").
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.sketches.base import MergeError, Sketch
from repro.switch.crc import hash_family


def _alpha(m: int) -> float:
    """Bias-correction constant from the HLL paper."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


class HyperLogLog(Sketch):
    """An HLL with ``2**precision`` six-bit registers.

    Args:
        precision: p in [4, 18]; standard error ~ 1.04 / sqrt(2**p).
    """

    HASH_BITS = 64

    def __init__(self, precision: int = 12) -> None:
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in [4, 18]")
        self.precision = precision
        self.m = 1 << precision
        self.registers = [0] * self.m
        (self._hash,) = hash_family(1, width_bits=self.HASH_BITS)

    def update(self, key: bytes, weight: int = 1) -> None:
        """Observe ``key``; weight is ignored (cardinality counts once)."""
        h = self._hash(key)
        index = h >> (self.HASH_BITS - self.precision)
        remainder = h & ((1 << (self.HASH_BITS - self.precision)) - 1)
        # rho: position of the leftmost 1-bit in the remainder (1-based).
        width = self.HASH_BITS - self.precision
        rho = width - remainder.bit_length() + 1
        if remainder == 0:
            rho = width + 1
        if rho > self.registers[index]:
            self.registers[index] = rho

    def estimate(self) -> float:
        """Cardinality estimate with small/large-range corrections."""
        m = self.m
        raw = _alpha(m) * m * m / sum(2.0 ** -r for r in self.registers)
        if raw <= 2.5 * m:
            zeros = sum(1 for r in self.registers if r == 0)
            if zeros:
                return m * math.log(m / zeros)
        return raw

    def merge(self, other: Sketch) -> None:
        self.check_compatible(other)
        assert isinstance(other, HyperLogLog)
        if self.precision != other.precision:
            raise MergeError("HLL precisions differ")
        self.registers = [max(a, b) for a, b
                          in zip(self.registers, other.registers)]

    # -- column transport (registers chunked into groups of 64) -----------

    COLUMN_REGISTERS = 64

    def columns(self) -> Iterable[tuple]:
        for j in range(0, self.m, self.COLUMN_REGISTERS):
            yield (j // self.COLUMN_REGISTERS,
                   tuple(self.registers[j:j + self.COLUMN_REGISTERS]))

    def merge_column(self, index: int, column: tuple) -> None:
        base = index * self.COLUMN_REGISTERS
        if base >= self.m:
            raise IndexError("column index out of range")
        for offset, value in enumerate(column):
            i = base + offset
            if value > self.registers[i]:
                self.registers[i] = value

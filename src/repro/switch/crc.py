"""The Tofino-native CRC engine with configurable polynomials.

Section 4.2: "The Tofino-native CRC engine is used to calculate the N
memory locations, and is also used to calculate a concatenated 4B
checksum for Key-Write. ... The hop-specific checksums are implemented
through custom CRC polynomials."

This module provides a table-driven CRC over arbitrary polynomials (any
width up to 64 bits, with reflection and init/xor-out parameters), plus
the standard polynomials Tofino exposes.  The translator derives its
independent hash functions exactly as the hardware does: same engine,
different polynomial/seed per function.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class CrcPoly:
    """A CRC parameter set (Rocksoft model).

    Attributes:
        width: CRC width in bits (<= 64).
        poly: Generator polynomial (normal representation, no top bit).
        init: Initial register value.
        refin / refout: Reflect input bytes / final register.
        xorout: Final XOR value.
    """

    width: int
    poly: int
    init: int
    refin: bool
    refout: bool
    xorout: int
    name: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.width <= 64:
            raise ValueError("CRC width must be in [1, 64]")


# Standard parameter sets available on Tofino's hash engine.
CRC32 = CrcPoly(32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0xFFFFFFFF, "crc32")
CRC32C = CrcPoly(32, 0x1EDC6F41, 0xFFFFFFFF, True, True, 0xFFFFFFFF, "crc32c")
CRC32_BZIP2 = CrcPoly(32, 0x04C11DB7, 0xFFFFFFFF, False, False, 0xFFFFFFFF,
                      "crc32-bzip2")
CRC16 = CrcPoly(16, 0x8005, 0x0000, True, True, 0x0000, "crc16-arc")
CRC16_CCITT = CrcPoly(16, 0x1021, 0xFFFF, False, False, 0x0000,
                      "crc16-ccitt-false")
CRC64_XZ = CrcPoly(64, 0x42F0E1EBA9EA3693, 0xFFFFFFFFFFFFFFFF, True, True,
                   0xFFFFFFFFFFFFFFFF, "crc64-xz")


def _reflect(value: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


# Module-level table cache.  The 256-entry lookup table depends only on
# (width, poly, refin) — init/xorout/refout/name are applied outside the
# table loop — so parameter sets that differ only in those fields (and
# every engine instance over the same polynomial) share one table
# object.  A plain dict, not an lru_cache: the handful of polynomials a
# deployment uses must never be evicted mid-run.
_TABLE_CACHE: dict = {}


def _make_table(poly: CrcPoly) -> tuple:
    """The (cached) 256-entry lookup table for a parameter set."""
    key = (poly.width, poly.poly, poly.refin)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _TABLE_CACHE[key] = _build_table(poly)
    return table


def _build_table(poly: CrcPoly) -> tuple:
    """Compute the 256-entry lookup table (uncached)."""
    mask = (1 << poly.width) - 1
    top = 1 << (poly.width - 1)
    table = []
    for byte in range(256):
        if poly.refin:
            crc = _reflect(byte, 8) << (poly.width - 8) \
                if poly.width >= 8 else _reflect(byte, 8) >> (8 - poly.width)
        else:
            crc = byte << (poly.width - 8) if poly.width >= 8 \
                else byte >> (8 - poly.width)
        for _ in range(8):
            crc = ((crc << 1) ^ poly.poly) & mask if crc & top \
                else (crc << 1) & mask
        if poly.refin:
            crc = _reflect(crc, poly.width)
        table.append(crc)
    return tuple(table)


class CrcEngine:
    """Computes CRCs for one parameter set; cheap to instantiate.

    The common CRC-32 parameter set is delegated to :func:`zlib.crc32`
    for speed (the benchmark harness hashes tens of millions of keys);
    every other parameter set uses the generic table-driven path, which
    is validated against zlib in the test suite.
    """

    def __init__(self, poly: CrcPoly = CRC32, seed: int | None = None):
        self.poly = poly
        self._seed = seed if seed is not None else poly.init
        self._mask = (1 << poly.width) - 1
        self._is_zlib = (poly == CRC32 and seed is None)
        self._table = None if self._is_zlib else _make_table(poly)

    def compute(self, data: bytes) -> int:
        """CRC of ``data`` under this engine's parameters."""
        if self._is_zlib:
            return zlib.crc32(data)
        poly = self.poly
        crc = self._seed & self._mask
        if poly.refin:
            crc = _reflect(crc, poly.width)
            for byte in data:
                crc = (crc >> 8) ^ self._table[(crc ^ byte) & 0xFF]
        else:
            shift = poly.width - 8
            if shift >= 0:
                for byte in data:
                    crc = ((crc << 8) ^
                           self._table[((crc >> shift) ^ byte) & 0xFF]) \
                        & self._mask
            else:
                for byte in data:
                    crc = self._table[((crc << (8 - poly.width)) ^ byte)
                                      & 0xFF]
        if poly.refin != poly.refout:
            crc = _reflect(crc, poly.width)
        return (crc ^ poly.xorout) & self._mask

    def __call__(self, data: bytes) -> int:
        return self.compute(data)


@lru_cache(maxsize=1024)
def _hash_lane(index: int, width_bits: int):
    """One memoized hash-family lane (see :func:`hash_family`).

    Lanes are keyed on (index, width) so every layout object in the
    process — each Key-Write/Key-Increment layout derives the same
    "global hash functions" — shares one closure per lane instead of
    rebuilding the family per instance.
    """
    mask = (1 << width_bits) - 1
    prefix = index.to_bytes(4, "big")

    if width_bits > 32:
        def h(data: bytes, _prefix=prefix, _mask=mask) -> int:
            full = zlib.crc32(_prefix + data)
            # Two CRC passes are jointly affine in the input bits,
            # which biases leading-zero statistics (HyperLogLog is
            # sensitive to this).  A splitmix64 finaliser breaks the
            # linear structure while staying deterministic.
            hi = zlib.crc32(b"\xA5" + _prefix + data)
            return _splitmix64((hi << 32) | full) & _mask
    else:
        def h(data: bytes, _prefix=prefix, _mask=mask) -> int:
            return zlib.crc32(_prefix + data) & _mask

    return h


def hash_family(count: int, width_bits: int = 32) -> list:
    """Derive ``count`` practically-independent hash functions.

    Mirrors how the translator configures distinct CRC units: the same
    engine seeded with different prefixes.  Each returned callable maps
    ``bytes -> int`` in ``[0, 2**width_bits)``.  Lanes are memoized per
    (index, width): repeated calls return the same callables, so layout
    instances share the hot-path closures.
    """
    return [_hash_lane(i, width_bits) for i in range(count)]


def _splitmix64(value: int) -> int:
    """The splitmix64 finaliser: a strong 64-bit bit mixer."""
    mask64 = (1 << 64) - 1
    value = (value + 0x9E3779B97F4A7C15) & mask64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask64
    return value ^ (value >> 31)

"""Vectorized table-driven CRC and hash-family lanes.

Bit-exact numpy twins of :mod:`repro.switch.crc`: the same 256-entry
lookup tables (shared via the module-level table cache, so scalar and
vectorized paths literally walk the same polynomials), applied one key
*column* at a time across a whole packed batch instead of one byte at
a time per key.  ``crc_many`` covers every Rocksoft parameter set the
scalar :class:`~repro.switch.crc.CrcEngine` accepts (width <= 64,
refin/refout, init/xorout, custom seeds); ``hash_lanes_at`` reproduces
the :func:`~repro.switch.crc.hash_family` lane construction, including
the two-pass + splitmix64 finaliser for lanes wider than 32 bits.

Keys of mixed lengths are packed into a zero-padded ``(n, maxlen)``
byte matrix; a column step only advances the registers of keys long
enough to own that column, so padding never contaminates a digest.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import repeat

import numpy as np

from repro.switch.crc import CRC32, CrcPoly, _make_table, _reflect

_MASK32 = np.uint32(0xFFFFFFFF)

# numpy copies of the scalar engine's lookup tables, keyed exactly like
# repro.switch.crc._TABLE_CACHE so one polynomial costs one conversion.
_NP_TABLE_CACHE: dict = {}


def _np_table(poly: CrcPoly) -> np.ndarray:
    key = (poly.width, poly.poly, poly.refin)
    table = _NP_TABLE_CACHE.get(key)
    if table is None:
        dtype = np.uint32 if poly.width <= 32 else np.uint64
        table = _NP_TABLE_CACHE[key] = np.asarray(_make_table(poly),
                                                  dtype=dtype)
    return table


_CRC32_TABLE = _np_table(CRC32)


def pack_keys(keys, pad_to: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Pack variable-length byte keys into a zero-padded byte matrix.

    Returns ``(packed, lengths)`` where ``packed`` is ``(n, maxlen)``
    uint8 and ``lengths`` the true per-key byte counts.  The join runs
    at C speed; equal-length batches (the common hot-path case — fixed
    flow-key widths) skip the per-key padding entirely.
    """
    n = len(keys)
    sizes = set(map(len, keys))
    if len(sizes) == 1 and (pad_to is None or pad_to in sizes):
        (maxlen,) = sizes
        lengths = np.full(n, maxlen, dtype=np.intp)
        if maxlen == 0:
            return np.zeros((n, 0), dtype=np.uint8), lengths
        return np.frombuffer(b"".join(keys),
                             dtype=np.uint8).reshape(n, maxlen), lengths
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=n)
    maxlen = max(sizes, default=0)
    if pad_to is not None:
        if pad_to < maxlen:
            raise ValueError("pad_to smaller than the longest key")
        maxlen = pad_to
    if n == 0 or maxlen == 0:
        return np.zeros((n, maxlen), dtype=np.uint8), lengths
    pad = bytes(maxlen)
    buf = b"".join((key + pad)[:maxlen] for key in keys)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(n, maxlen)
    return packed, lengths


#: Up to this many keys a ``zlib.crc32`` call per key beats one pass of
#: the column kernel over the packed matrix (packing included) at any
#: key width: measured 13 against 27 us at 64 four-byte keys, 33
#: against 43 us at 256.  Four-byte keys cross near 800 (392 against
#: 345 us at 4096) and wider keys later, so a large batch keeps the
#: packed form the plan workers, the socket columns and the probes hash.
PACK_ABOVE = 256


def hash_input(keys) -> tuple:
    """``keys`` (a list of ``bytes``) in the form :func:`hash_lanes_at`
    hashes fastest: ``(keys, None)`` as they are for a small batch,
    the :func:`pack_keys` pair for a large one."""
    if len(keys) <= PACK_ABOVE:
        return keys, None
    return pack_keys(keys)


def _reflect_many(values: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized bit reflection (twin of ``switch.crc._reflect``)."""
    out = np.zeros_like(values)
    one = values.dtype.type(1)
    for _ in range(bits):
        out = (out << one) | (values & one)
        values = values >> one
    return out


def crc_many(poly: CrcPoly, packed: np.ndarray, lengths: np.ndarray,
             seed: int | None = None) -> np.ndarray:
    """CRC of every packed key under ``poly`` (one value per row).

    Bit-exact against ``CrcEngine(poly, seed).compute(key)`` for every
    key, including the zlib-delegated CRC-32 fast path (same
    polynomial, same table, same result).  Returns uint32 for widths
    <= 32 and uint64 above.
    """
    n, maxlen = packed.shape
    table = _np_table(poly)
    dtype = table.dtype
    mask = dtype.type((1 << poly.width) - 1)
    init = seed if seed is not None else poly.init
    crc0 = init & int(mask)
    if poly.refin:
        crc0 = _reflect(crc0, poly.width)
    crc = np.full(n, crc0, dtype=dtype)
    uniform = n == 0 or int(lengths.min()) == maxlen
    one_byte = dtype.type(8)
    low = dtype.type(0xFF)
    if poly.refin:
        for j in range(maxlen):
            byte = packed[:, j].astype(dtype)
            step = (crc >> one_byte) ^ table[(crc ^ byte) & low]
            crc = step if uniform else np.where(j < lengths, step, crc)
    elif poly.width >= 8:
        shift = dtype.type(poly.width - 8)
        for j in range(maxlen):
            byte = packed[:, j].astype(dtype)
            step = ((crc << one_byte)
                    ^ table[((crc >> shift) ^ byte) & low]) & mask
            crc = step if uniform else np.where(j < lengths, step, crc)
    else:
        up = dtype.type(8 - poly.width)
        for j in range(maxlen):
            byte = packed[:, j].astype(dtype)
            step = table[((crc << up) ^ byte) & low]
            crc = step if uniform else np.where(j < lengths, step, crc)
    if poly.refin != poly.refout:
        crc = _reflect_many(crc, poly.width)
    return (crc ^ dtype.type(poly.xorout & int(mask))) & mask


# ---------------------------------------------------------------------------
# hash_family lanes
# ---------------------------------------------------------------------------

_SM_C1 = np.uint64(0x9E3779B97F4A7C15)
_SM_C2 = np.uint64(0xBF58476D1CE4E5B9)
_SM_C3 = np.uint64(0x94D049BB133111EB)


def splitmix64_many(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finaliser (twin of ``crc._splitmix64``)."""
    v = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        v += _SM_C1
        v = (v ^ (v >> np.uint64(30))) * _SM_C2
        v = (v ^ (v >> np.uint64(27))) * _SM_C3
    return v ^ (v >> np.uint64(31))


@lru_cache(maxsize=2048)
def _lane_state(index: int, marked: bool) -> int:
    """CRC-32 register state after a lane's constant prefix.

    The scalar lanes compute ``zlib.crc32(prefix + data)``; resuming
    from the post-prefix register (``crc32(prefix) ^ 0xFFFFFFFF``) and
    table-stepping the data bytes is the standard CRC continuation
    identity, so the vectorized lane needs only ``len(data)`` column
    steps per batch regardless of prefix.
    """
    prefix = index.to_bytes(4, "big")
    if marked:
        prefix = b"\xA5" + prefix
    return zlib.crc32(prefix) ^ 0xFFFFFFFF


def key_registers(packed, lengths: np.ndarray | None = None
                  ) -> np.ndarray:
    """Every key's CRC-32 register stepped from zero over its bytes.

    ``packed`` / ``lengths`` are a :func:`pack_keys` pair, or with
    ``lengths`` None the keys themselves.  The register is linear in
    its starting state, so this one pass is all that any CRC-32 lane of
    a key needs: a lane resumed from state ``s`` ends at this register
    XOR the register ``s`` reaches over as many zero bytes
    (:func:`_crc32_resume`).  uint32, one per key.
    """
    if lengths is None:
        return np.fromiter(map(zlib.crc32, packed, repeat(0xFFFFFFFF)),
                           dtype=np.uint32, count=len(packed)) ^ _MASK32
    n, maxlen = packed.shape
    uniform = n == 0 or int(lengths.min()) == maxlen
    reg = np.zeros(n, dtype=np.uint32)
    for j in range(maxlen):
        # Table index = low register byte ^ key byte, kept in uint8.
        low = reg.astype(np.uint8) ^ packed[:, j]
        step = (reg >> np.uint32(8)) ^ _CRC32_TABLE[low]
        reg = step if uniform else np.where(j < lengths, step, reg)
    return reg


@lru_cache(maxsize=4096)
def _zeros_crc(state: int, size: int) -> int:
    """CRC-32 resumed from register ``state`` over ``size`` zero bytes."""
    return zlib.crc32(bytes(size), state ^ 0xFFFFFFFF)


def _crc32_resume(states, packed, lengths) -> np.ndarray:
    """CRC-32 resumed from each of ``states`` over every key:
    ``(len(states), n)``.

    The keys come in any form :func:`hash_lanes_at` takes; one
    register pass (:func:`key_registers`) serves every state, each
    lane adding its constant for the key's length.
    """
    if lengths is None:
        reg = key_registers(packed)
        distinct = sorted(set(map(len, packed)))
    else:
        reg = packed if packed.ndim == 1 else key_registers(packed, lengths)
        distinct = sorted({int(lengths.min()), int(lengths.max())}
                          if len(lengths) else ())
        if len(distinct) > 1:
            distinct = sorted(set(lengths.tolist()))
    table = np.array([[_zeros_crc(state, size) for size in distinct or (0,)]
                      for state in states], dtype=np.uint32)
    if len(distinct) <= 1:
        return reg ^ table
    if lengths is None:
        lengths = np.fromiter(map(len, packed), dtype=np.intp,
                              count=len(packed))
    return reg ^ table[:, np.searchsorted(distinct, lengths)]


def hash_lanes_at(indices, packed, lengths: np.ndarray | None = None,
                  width_bits: int = 32) -> np.ndarray:
    """The hash-family lanes named by ``indices``, one row each.

    Row ``r`` is bit-exact against ``hash_family(indices[r] + 1,
    width_bits)[-1](key)`` per key: narrow lanes are a prefix-seeded
    CRC-32, wide lanes are the two-pass CRC + splitmix64 construction
    (see :func:`repro.switch.crc._hash_lane`).  ``packed`` /
    ``lengths`` are a :func:`pack_keys` pair — all rows then step
    through the key columns together — or, with ``lengths`` None, the
    keys themselves (a sequence of ``bytes``), hashed where they lie:
    a caller holding byte strings need not pack them to hash them — or,
    one-dimensional, the keys' :func:`key_registers`, the pass a caller
    that already hashed the keys (the socket lane routes on it) shares.
    """
    count = len(indices)
    states = [_lane_state(i, False) for i in indices]
    if width_bits > 32:
        states += [_lane_state(i, True) for i in indices]
    out = _crc32_resume(states, packed, lengths)
    if width_bits > 32:
        both = out.astype(np.uint64)
        mixed = splitmix64_many((both[count:] << np.uint64(32))
                                | both[:count])
        return mixed & np.uint64((1 << width_bits) - 1)
    if width_bits < 32:
        out = out & np.uint32((1 << width_bits) - 1)
    return out


def hash_lanes(count: int, packed, lengths: np.ndarray | None = None,
               width_bits: int = 32) -> np.ndarray:
    """Lanes ``0 .. count-1`` as a ``(count, n)`` array."""
    return hash_lanes_at(range(count), packed, lengths, width_bits)

"""The Key-Increment store: a Count-Min-Sketch over RDMA Fetch-and-Add.

Section 3.2 ("Key-Increment"): "Our KI memory acts as a Count-Min
Sketch and we increment N value locations using the RDMA Fetch-and-Add
primitive.  On a query, KI returns the minimum value from these N
locations." — so unlike Key-Write there are no checksums: collisions
*add*, and the row-minimum bounds the overestimate exactly as in a CMS.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core import primitives
from repro.kernels import crc as kcrc
from repro.rdma.verbs import Opcode, WorkRequest
from repro.switch.crc import hash_family

COUNTER_BYTES = 8  # RDMA atomics operate on 64-bit words


@dataclass(frozen=True)
class KeyIncrementLayout:
    """Address arithmetic for a Key-Increment counter region.

    The region is organised as N logical rows of ``slots_per_row``
    counters, so the N locations of a key never collide with each other
    (standard CMS layout; hash n indexes row n).
    """

    base_addr: int
    slots_per_row: int
    rows: int = 4

    def __post_init__(self) -> None:
        if self.slots_per_row <= 0 or self.rows <= 0:
            raise ValueError("slots_per_row and rows must be positive")
        object.__setattr__(self, "_hashes",
                           tuple(hash_family(self.rows)))

    @property
    def counters(self) -> int:
        return self.rows * self.slots_per_row

    @property
    def region_bytes(self) -> int:
        return self.counters * COUNTER_BYTES

    def counter_index(self, n: int, key: bytes) -> int:
        """Flat index of the key's counter in row ``n``."""
        if not 0 <= n < self.rows:
            raise IndexError("row out of range")
        col = self._hashes[n](key) % self.slots_per_row
        return n * self.slots_per_row + col

    def counter_addr(self, n: int, key: bytes) -> int:
        return self.base_addr + self.counter_index(n, key) * COUNTER_BYTES

    def counter_addrs(self, key: bytes, rows: int) -> list:
        """The key's counter addresses in rows ``0..rows-1``, one pass.

        Hot-path form of ``[counter_addr(n, key) for n in range(rows)]``
        for the batched Key-Increment lane (``rows`` must already be
        clamped to ``self.rows``).
        """
        base = self.base_addr
        spr = self.slots_per_row
        return [base + (n * spr + h(key) % spr) * COUNTER_BYTES
                for n, h in enumerate(self._hashes[:rows])]

    # -- vectorized twin (numpy-gated; see repro.kernels) ----------------

    def counter_indices_many(self, packed, lengths, rows: int):
        """Flat counter indices of a packed key batch: ``(rows, n)`` int64.

        Row ``n`` holds each key's row-``n`` counter index — identical to
        :meth:`counter_index` per key (``rows`` already clamped to
        ``self.rows``).
        """
        lanes = kcrc.hash_lanes(rows, packed, lengths)
        cols = (lanes % np.uint32(self.slots_per_row)).astype(np.int64)
        offsets = np.arange(rows, dtype=np.int64) * self.slots_per_row
        return cols + offsets[:, None]


class KeyIncrementStore(primitives.Store):
    """Collector-side Key-Increment queries (CMS point estimates)."""

    def reset_stats(self) -> None:
        self.queries = 0

    def query(self, key: bytes, *, redundancy: int | None = None) -> int:
        """CMS point estimate: min over the key's N counters."""
        self.queries += 1
        n_rows = min(redundancy or self.layout.rows, self.layout.rows)
        values = []
        for n in range(n_rows):
            offset = self.layout.counter_index(n, key) * COUNTER_BYTES
            raw = self.region.local_read(offset, COUNTER_BYTES)
            values.append(struct.unpack("<Q", raw)[0])
        return min(values)

    def query_many(self, keys, *, redundancy: int | None = None,
                   packed=None) -> list:
        """:meth:`query` for a whole key batch.

        Returns ``[query(key, ...) for key in keys]`` as Python ints
        and counts as many :attr:`queries`: the N row lanes hash the
        packed batch once (``packed`` is an optional
        ``kernels.crc.pack_keys(keys)`` pair), one fancy index reads
        the N x n counters, ``min`` folds the rows.
        """
        self.queries += len(keys)
        layout = self.layout
        n_rows = min(redundancy or layout.rows, layout.rows)
        matrix, lengths = packed if packed is not None \
            else kcrc.pack_keys(keys)
        counters = np.frombuffer(self.region.buf, dtype="<u8",
                                 count=layout.counters)
        indices = layout.counter_indices_many(matrix, lengths, n_rows)
        return counters[indices].min(axis=0).tolist()

    def local_increment(self, key: bytes, value: int = 1, *,
                        redundancy: int | None = None) -> None:
        """Testing/analysis helper: increment without the RDMA path."""
        n_rows = min(redundancy or self.layout.rows, self.layout.rows)
        for n in range(n_rows):
            offset = self.layout.counter_index(n, key) * COUNTER_BYTES
            raw = self.region.local_read(offset, COUNTER_BYTES)
            current = struct.unpack("<Q", raw)[0]
            self.region.local_write(
                offset, struct.pack("<Q", current + value))

    def reset(self) -> None:
        """Zero the counters ("memory may be reset periodically")."""
        self.region.local_write(0, b"\x00" * self.layout.region_bytes)


#: The collector side (``primitives.Primitive.home``).
LAYOUT, STORE = KeyIncrementLayout, KeyIncrementStore
TRACKER = primitives.Tracker("deltas", cells="counters", counter="<Q")


def plan_keyincrement_packed(layout, packed, lengths, values, rows: int,
                             region_length: int):
    """Pure Key-Increment scatter-add plan:
    ``(counter_indices, addends)`` or None.

    ``layout`` is a :class:`KeyIncrementLayout`; ``values`` an int64
    array (the caller handles the beyond-int64 overflow fallback);
    ``rows`` already clamped to ``layout.rows``.  Touches no translator
    or store state.
    """
    if region_length % 8 or layout.region_bytes > region_length:
        return None      # same bounds check fetch_add_many applies
    idx = layout.counter_indices_many(packed, lengths, rows)
    return idx.T.reshape(-1), values.repeat(rows)


class KeyIncrementLane(primitives.ColumnLane):
    """Key-Increment at the translator: stateless fan-out into one
    Fetch-and-Add per CMS row.  Any addend the wire can carry is
    acceptable, so :meth:`check` is the base's."""

    __slots__ = ()
    primitive = primitives.KEY_INCREMENT
    value_dtype = "<i8"
    kernel = staticmethod(plan_keyincrement_packed)
    stride = COUNTER_BYTES

    def scalar(self, cols, redundancy, reporter_id, control) -> list:
        rkey = self.rkey
        rows = min(redundancy, self.layout.rows)
        counter_addrs = self.layout.counter_addrs
        wrs = []
        append = wrs.append
        for key, value in zip(*cols):
            for addr in counter_addrs(key, rows):
                append(WorkRequest(opcode=Opcode.FETCH_ADD,
                                   remote_addr=addr, rkey=rkey,
                                   swap=value, signaled=False))
        return wrs

    def matrix(self, values):
        try:
            return np.array(values, dtype=np.int64)
        except (OverflowError, ValueError):
            return None      # beyond int64: scalar wrap semantics apply

    def normalise(self, third, redundancy: int):
        return third, min(redundancy, self.layout.rows)


#: The translator side (``primitives.Primitive.home``).
LANE = KeyIncrementLane

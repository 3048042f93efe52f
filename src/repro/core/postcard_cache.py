"""The translator's postcard-aggregation cache (Section 4.2).

An SRAM hash table of ``slots`` rows; each row caches the postcards of
one in-flight flow/packet until all of them (per the announced path
length) have arrived, at which point the row is *emitted* as a single
chunk write.  A different flow hashing into an occupied row evicts it —
an **early emission**, written with blank tail slots and counted as a
collection failure in Fig. 10 ("early emissions ... are counted as
failures in this test despite being potentially useful").

The cache is deliberately standalone (keys are opaque hashables) so the
Fig. 10 Monte Carlo can drive it at millions of postcards without the
packet codec in the loop; the translator wraps it with real flow keys.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.obs.views import InstrumentedStats, counter_field
from repro.switch.crc import _splitmix64


#: ``crc32(b"PC" + key)`` is ``crc32(key, _BYTES_SEED)``: flow keys get
#: a cache-row hash of their own, apart from the store's hash family.
_BYTES_SEED = zlib.crc32(b"\x50\x43")


@dataclass
class Emission:
    """A chunk leaving the cache toward collector memory."""

    key: object
    values: list            # length == hops; missing postcards are None
    complete: bool          # all expected postcards present?
    reason: str             # "complete" | "collision"


class CacheStats(InstrumentedStats):
    component = "postcard_cache"

    postcards = counter_field()
    emissions_complete = counter_field()
    emissions_early = counter_field()
    duplicates = counter_field()

    @property
    def aggregated_fraction(self) -> float:
        """Fraction of emissions that carried a full path."""
        total = self.emissions_complete + self.emissions_early
        return self.emissions_complete / total if total else 0.0


class _Row:
    __slots__ = ("key", "values", "count", "path_len")

    def __init__(self, key, hops: int, path_len: int) -> None:
        self.key = key
        self.values = [None] * hops
        self.count = 0
        self.path_len = path_len


class PostcardCache:
    """A ``slots``-row direct-mapped aggregation cache.

    Args:
        slots: Row count (32K in the hardware implementation).
        hops: B, the maximum postcards per flow.
    """

    def __init__(self, slots: int = 32 * 1024, hops: int = 5, *,
                 labels: dict | None = None) -> None:
        if slots <= 0 or hops <= 0:
            raise ValueError("slots and hops must be positive")
        self.slots = slots
        self.hops = hops
        self._rows: list[_Row | None] = [None] * slots
        self.stats = CacheStats(labels=labels)
        #: Collision emissions displaced by an insert whose new row
        #: completed immediately; drained by the caller alongside the
        #: returned emission.
        self.pending_evicted: list[Emission] = []

    def _index(self, key) -> int:
        if isinstance(key, bytes):
            return zlib.crc32(key, _BYTES_SEED) % self.slots
        if isinstance(key, int):
            # Mix the bits: sequential flow ids must spread like the
            # hardware CRC does, not fall into consecutive rows.
            return _splitmix64(key) % self.slots
        return hash(key) % self.slots

    def insert(self, key, hop: int, value, *,
               path_len: int | None = None) -> Emission | None:
        """Add one postcard; returns an emission if a chunk left the cache.

        A collision both evicts the old row (early emission) and starts
        a new row for the incoming flow, so at most one emission results
        per insert (collision-then-complete on a 1-hop path yields the
        collision emission first; the new row emits on a later call or,
        for single-postcard paths, immediately — in which case the
        *complete* emission is returned and the collision one is
        recorded in stats and :attr:`pending_evicted`).
        """
        if not 0 <= hop < self.hops:
            raise IndexError(f"hop {hop} outside [0, {self.hops})")
        self.stats.postcards += 1
        expected = path_len if path_len else self.hops
        index = self._index(key)
        row = self._rows[index]

        evicted: Emission | None = None
        if row is not None and row.key != key:
            evicted = self._emit(index, "collision")
            row = None
        if row is None:
            row = _Row(key, self.hops, expected)
            self._rows[index] = row
        if path_len:
            row.path_len = path_len
        if row.values[hop] is None:
            row.values[hop] = value
            row.count += 1
        else:
            self.stats.duplicates += 1
            row.values[hop] = value

        if row.count >= min(row.path_len, self.hops):
            completed = self._emit(index, "complete")
            if evicted is not None:
                self.pending_evicted.append(evicted)
            return completed
        return evicted

    def insert_many(self, keys, hops, values, path_lens) -> list:
        """:meth:`insert` over parallel columns, in order.

        Returns every emission the loop ``insert(keys[i], hops[i],
        values[i], path_len=path_lens[i] or None)`` would have produced
        — each insert's returned emission, then whatever it left in
        :attr:`pending_evicted` — and leaves rows and counters as that
        loop would.  A flow whose postcards all sit in this batch and
        complete its path exactly once, on a row that is free and that
        no other flow of the batch hashes to, never meets another
        flow's state, so it is assembled without entering the table;
        every other postcard (a collision, a resident or straddling
        flow, a repeated hop) goes through :meth:`insert`.  A hop out
        of range raises before anything changes.
        """
        if not keys:
            return []
        limit = self.hops
        if min(hops) < 0 or max(hops) >= limit:
            raise IndexError(f"hop outside [0, {limit})")
        flows: dict = {}
        for at, key in enumerate(keys):
            seen = flows.get(key)
            if seen is None:
                flows[key] = [at]
            else:
                seen.append(at)
        homes = list(map(self._index, flows))
        claimed: set = set()
        shared = {home for home in homes
                  if home in claimed or claimed.add(home)}
        rows = self._rows
        # One path length for the whole batch (the common case) needs
        # no per-flow agreement check.
        uniform = len(set(path_lens)) == 1
        # Emissions a caller left undrained go out with the first
        # insert, so no flow may be assembled ahead of it.
        isolated = not self.pending_evicted
        out = []        # (arrival of the trigger, order of emission, it)
        rest = []
        for (key, ats), home in zip(flows.items(), homes):
            path_len = path_lens[ats[0]]
            need = min(path_len, limit) if path_len > 0 else limit
            if (isolated and len(ats) == need and path_len >= 0
                    and rows[home] is None and home not in shared
                    and (uniform or all(path_lens[at] == path_len
                                        for at in ats))):
                chunk = [None] * limit
                for at in ats:
                    chunk[hops[at]] = values[at]
                if chunk.count(None) == limit - need:   # no hop twice
                    out.append((ats[-1], len(out),
                                Emission(key, chunk, True, "complete")))
                    continue
            rest.extend(ats)
        whole = len(out)
        self.stats.postcards += len(keys) - len(rest)
        self.stats.emissions_complete += whole
        if rest:
            rest.sort()
            insert, pending = self.insert, self.pending_evicted
            for at in rest:
                emission = insert(keys[at], hops[at], values[at],
                                  path_len=path_lens[at] or None)
                if emission is not None:
                    out.append((at, len(out), emission))
                while pending:
                    out.append((at, len(out), pending.pop()))
        out.sort()
        return [emission for _at, _order, emission in out]

    def _emit(self, index: int, reason: str) -> Emission:
        row = self._rows[index]
        assert row is not None
        self._rows[index] = None
        complete = reason == "complete"
        if complete:
            self.stats.emissions_complete += 1
        else:
            self.stats.emissions_early += 1
        return Emission(key=row.key, values=list(row.values),
                        complete=complete, reason=reason)

    def flush(self) -> list:
        """Evict every resident row (end of epoch / teardown)."""
        out = []
        for i, row in enumerate(self._rows):
            if row is not None:
                out.append(self._emit(i, "collision"))
        return out

    def resident(self) -> list:
        """``(row index, key)`` of every occupied row (for aging)."""
        return [(i, row.key) for i, row in enumerate(self._rows)
                if row is not None]

    def evict(self, index: int, *, reason: str = "collision"
              ) -> Emission | None:
        """Force one row out (retention aging); None if already free."""
        if not 0 <= index < self.slots:
            raise IndexError(f"row {index} outside [0, {self.slots})")
        if self._rows[index] is None:
            return None
        return self._emit(index, reason)

    @property
    def occupancy(self) -> int:
        return sum(1 for row in self._rows if row is not None)

"""The Append store: pre-allocated ring-buffer lists in collector memory.

Section 3.2 ("Append") / 4.2: the translator keeps a per-list head
pointer and writes incoming reports — batched B at a time — into the
list's ring buffer with single RDMA writes.  The collector CPU drains
lists sequentially (Fig. 12), one core per list to avoid tail races.

Readiness without CPU involvement: each entry is prefixed with a
one-byte *lap tag* (1 + lap%250, never zero).  A poller that knows its
position expects a specific tag value; the tag only assumes that value
once the translator's write for the current lap has landed.  This keeps
the data path entirely one-sided — no doorbells, no head-pointer
mirror — at the cost of one byte per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import calibration
from repro.core import primitives
from repro.rdma.verbs import Opcode, WorkRequest

LAP_TAG_BYTES = 1
_LAP_MOD = 250


def lap_tag(lap: int) -> int:
    """The non-zero tag byte expected for entries written on ``lap``."""
    return 1 + (lap % _LAP_MOD)


@dataclass(frozen=True)
class AppendLayout:
    """Address arithmetic for a region holding ``lists`` ring buffers.

    Every list has ``capacity`` entries of ``data_bytes`` payload, each
    preceded by the lap tag, laid out back to back.
    """

    base_addr: int
    lists: int
    capacity: int
    data_bytes: int

    def __post_init__(self) -> None:
        if self.lists <= 0 or self.capacity <= 0 or self.data_bytes <= 0:
            raise ValueError("lists, capacity, data_bytes must be positive")

    @property
    def entry_bytes(self) -> int:
        return LAP_TAG_BYTES + self.data_bytes

    @property
    def list_bytes(self) -> int:
        return self.capacity * self.entry_bytes

    @property
    def region_bytes(self) -> int:
        return self.lists * self.list_bytes

    def list_base(self, list_id: int) -> int:
        if not 0 <= list_id < self.lists:
            raise IndexError(f"list {list_id} out of range")
        return self.base_addr + list_id * self.list_bytes

    def entry_addr(self, list_id: int, slot: int) -> int:
        """Address of entry ``slot`` (0-based within the ring)."""
        if not 0 <= slot < self.capacity:
            raise IndexError(f"slot {slot} out of range")
        return self.list_base(list_id) + slot * self.entry_bytes

    def encode_entry(self, data: bytes, lap: int) -> bytes:
        """Tag + padded payload for one entry."""
        if len(data) > self.data_bytes:
            raise ValueError("entry data too wide for this layout")
        return bytes([lap_tag(lap)]) + data.ljust(self.data_bytes, b"\x00")

    def encode_batch(self, entries: list, head: int) -> bytes:
        """Contiguous payload for a batch starting at absolute ``head``.

        ``head`` is the total number of entries ever written to the
        list; slot and lap derive from it.  The batch must not wrap
        (the translator flushes at ring boundaries).
        """
        slot = head % self.capacity
        if slot + len(entries) > self.capacity:
            raise ValueError("batch would wrap the ring; split it")
        lap = head // self.capacity
        return b"".join(self.encode_entry(e, lap) for e in entries)

    def encode_run(self, entries: list, head: int) -> bytes:
        """:meth:`encode_batch` in one join where there is nothing to
        pad: entries that all fill their slot are ``tag.join``-ed, the
        lap tag being the separator too.  Anything else (a narrower
        entry, one too wide, a run that would wrap) is
        :meth:`encode_batch`'s, errors included.
        """
        if (set(map(len, entries)) != {self.data_bytes}
                or head % self.capacity + len(entries) > self.capacity):
            return self.encode_batch(entries, head)
        tag = bytes((lap_tag(head // self.capacity),))
        return tag + tag.join(entries)


class AppendStore(primitives.Store):
    """Collector-side Append helpers: pollers and direct reads."""

    def poller(self, list_id: int) -> "ListPoller":
        """A sequential reader for one list (one CPU core's work)."""
        return ListPoller(self, list_id)

    def read_entry(self, list_id: int, slot: int) -> tuple[int, bytes]:
        """Raw (tag, data) of one ring slot."""
        layout = self.layout
        offset = (layout.list_base(list_id) - layout.base_addr
                  + slot * layout.entry_bytes)
        raw = self.region.local_read(offset, layout.entry_bytes)
        return raw[0], raw[1:]

    # -- the read kernel -------------------------------------------------
    #
    # Every reader below is one array compare over the tag column of
    # ``region.buf``; :meth:`read_entry` is the scalar walk they are
    # tested against.  The arrays are built per call and never kept: a
    # cached view would pin a shared-memory segment past its unlink.

    def _ring(self, list_id: int) -> np.ndarray:
        """One list's ring as a ``(capacity, entry_bytes)`` byte view."""
        layout = self.layout
        return np.frombuffer(
            self.region.buf, dtype=np.uint8, count=layout.list_bytes,
            offset=layout.list_base(list_id) - layout.base_addr,
        ).reshape(layout.capacity, layout.entry_bytes)

    def _tag_hits(self, ring: np.ndarray, start: int,
                  stop: int) -> np.ndarray:
        """Per position of ``[start, stop)``: does its slot hold the
        tag its lap expects?  One contiguous compare per lap touched."""
        capacity = self.layout.capacity
        tags = ring[:, 0]
        hits = np.empty(max(stop - start, 0), dtype=bool)
        position = start
        while position < stop:
            lap, slot = divmod(position, capacity)
            end = min(stop, (lap + 1) * capacity)
            np.equal(tags[slot:slot + end - position], lap_tag(lap),
                     out=hits[position - start:end - start])
            position = end
        return hits

    def published(self, list_id: int, start: int = 0,
                  limit: int | None = None) -> np.ndarray:
        """The run of published entries from absolute position ``start``.

        The poller protocol as one compare: the run ends at the first
        slot whose tag is not the one its lap expects, or after
        ``limit`` entries.  It can never exceed ``capacity`` —
        positions ``p`` and ``p + capacity`` share a slot and expect
        different tags.  Returns the run as a ``(count, entry_bytes)``
        uint8 array of tag + payload rows: a view of the region unless
        the run wraps the ring.
        """
        layout = self.layout
        capacity = layout.capacity
        span = capacity if limit is None else min(limit, capacity)
        lap, slot = divmod(start, capacity)
        first = layout.entry_addr(list_id, slot) - layout.base_addr
        # An idle list costs one byte compare, as the scalar walk did.
        if span <= 0 or self.region.buf[first] != lap_tag(lap):
            return np.empty((0, layout.entry_bytes), dtype=np.uint8)
        ring = self._ring(list_id)
        hits = self._tag_hits(ring, start, start + span)
        miss = int(hits.argmin())       # first mismatch, 0 if none
        end = slot + (span if hits[miss] else miss)
        if end <= capacity:
            return ring[slot:end]
        return np.concatenate((ring[slot:], ring[:end - capacity]))

    def published_in(self, list_id: int, start: int,
                     stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The published entries among positions ``[start, stop)``.

        The mask form of :meth:`published`: a position whose tag
        mismatches (a later lap overwrote it, expiry scrubbed it, it
        never landed) is *skipped*, not a stop.  Returns ``(positions,
        entries)`` — the surviving absolute positions and their
        ``(len(positions), entry_bytes)`` rows (a copy).
        """
        ring = self._ring(list_id)
        positions = start + np.flatnonzero(
            self._tag_hits(ring, start, stop))
        return positions, ring[positions % self.layout.capacity]

    def recent(self, list_id: int, count: int, head: int) -> list:
        """The last ``count`` entries given the absolute head position.

        Used by queries like Marple Lossy-Flows: "retrieve the most
        recently reported network flows" (Section 5.1).
        """
        count = min(count, head, self.layout.capacity)
        _positions, entries = self.published_in(list_id, head - count,
                                                head)
        return entry_data(entries)


#: The collector side (``primitives.Primitive.home``).
LAYOUT, STORE = AppendLayout, AppendStore
TRACKER = primitives.Tracker("segments")


def entry_data(entries: np.ndarray) -> list:
    """The payloads of ``(n, entry_bytes)`` entry rows, as ``bytes``."""
    payload = entries[:, LAP_TAG_BYTES:]
    width = payload.shape[1]
    blob = payload.tobytes()
    return [blob[at:at + width] for at in range(0, len(blob), width)]


class ListPoller:
    """Drains one Append list in order.

    Tracks its absolute position; :meth:`poll` returns all entries that
    have landed since the previous call — one
    :meth:`AppendStore.published` compare, then ``bytes`` per entry.
    Fig. 12's polling-rate model charges
    :data:`repro.calibration.POLL_T_ENTRY_NS` per entry.
    """

    def __init__(self, store: AppendStore, list_id: int) -> None:
        self.store = store
        self.list_id = list_id
        self.position = 0
        self.entries_read = 0

    def poll(self, max_entries: int | None = None) -> list:
        """Read forward until the next entry is not yet published."""
        entries = self.store.published(self.list_id, self.position,
                                       max_entries)
        self.position += len(entries)
        self.entries_read += len(entries)
        return entry_data(entries)

    def modelled_drain_rate(self, cores: int = 1) -> float:
        """Entries/s the cost model allows (Fig. 12b)."""
        from repro import calibration

        return cores * 1e9 / calibration.POLL_T_ENTRY_NS


class AppendLane(primitives.Lane):
    """Append at the translator: reports are batched B at a time into
    single contiguous writes (state: each list's pending entries and
    its head, the total entries ever written to it)."""

    __slots__ = ("batch_hist", "batch_size", "batches", "heads")
    primitive = primitives.APPEND

    def __init__(self, translator, advert) -> None:
        super().__init__(translator, advert)
        self.batch_hist = translator.append_batch_hist
        self.batch_size = advert.params.get("batch_size",
                                            calibration.DEFAULT_BATCH_SIZE)
        self.batches: dict = {}     # list_id -> [data, ...]
        self.heads: dict = {}       # list_id -> total entries

    @property
    def stride(self) -> int:
        return self.layout.entry_bytes

    def check(self, cols, extra):
        list_ids, datas = cols
        ids = set(list_ids)
        if min(ids) < 0 or max(ids) >= self.layout.lists:
            return ValueError(f"list {max(ids)} not provisioned")
        if max(map(len, datas)) > self.layout.data_bytes:
            return ValueError("entry data too wide for this layout")
        return None

    def scalar(self, cols, extra, reporter_id, control) -> list:
        """The flush rule (flush when a list's pending batch reaches
        the configured size or the ring-boundary room) is evaluated
        after every entry, so write boundaries — and therefore
        ``append_batches``/histogram accounting — do not depend on how
        the entries were batched on the way in."""
        capacity = self.layout.capacity
        batch_size = self.batch_size
        batches, heads = self.batches, self.heads
        wrs: list = []
        for list_id, data in zip(*cols):
            pending = batches.setdefault(list_id, [])
            pending.append(data)
            room = capacity - (heads.get(list_id, 0) % capacity)
            if len(pending) >= batch_size or len(pending) >= room:
                self.flush_list(list_id, wrs)
        return wrs

    def immediate(self, cols) -> list:
        # Batching would defer the notification indefinitely; flush so
        # the interrupted CPU finds the data in place.
        wrs: list = []
        self.flush_list(cols[0][0], wrs)
        return wrs

    def flush_list(self, list_id: int, sink: list) -> None:
        """Collect a list's pending entries into the burst ``sink``."""
        batch = self.batches.get(list_id)
        if not batch:
            return
        layout = self.layout
        head = self.heads.get(list_id, 0)
        # Never wrap within one write: split at the ring boundary.
        while batch:
            slot = head % layout.capacity
            room = layout.capacity - slot
            chunk, batch = batch[:room], batch[room:]
            sink.append(WorkRequest(
                opcode=Opcode.WRITE,
                remote_addr=layout.entry_addr(list_id, slot),
                rkey=self.rkey, data=layout.encode_batch(chunk, head),
                signaled=False))
            head += len(chunk)
            self.stats.append_batches += 1
            self.batch_hist.observe(len(chunk))
        self.heads[list_id] = head
        self.batches[list_id] = []

    def flush(self) -> list:
        """Every partially-filled batch, flushed (epoch end)."""
        wrs: list = []
        for list_id in list(self.batches):
            self.flush_list(list_id, wrs)
        return wrs

    def plan(self, cols, extra, reporter_id, target):
        """Every flush the batch triggers, as one contiguous write each.

        Per list the batch's entries join the pending carry and the
        sequence is cut exactly where :meth:`scalar` flushes — when the
        pending count reaches ``batch_size`` or the room left before
        the ring boundary, and again at the boundary inside a flush —
        with the writes ordered by the arrival of the entry that
        triggered them.  The tail stays pending.
        """
        if self.check(cols, extra) is not None:
            return None
        layout = self.layout
        list_ids, datas = cols
        arrivals: dict = {}     # list -> [arrival of each new entry]
        for at, list_id in enumerate(list_ids):
            seen = arrivals.get(list_id)
            if seen is None:
                arrivals[list_id] = [at]
            else:
                seen.append(at)
        pending, heads = self.batches, self.heads
        capacity, batch_size = layout.capacity, self.batch_size

        writes = []     # (trigger arrival, order, first slot, payload)
        tails = {}
        new_heads = {}
        for list_id, ats in arrivals.items():
            carry = pending.get(list_id) or ()
            carried = len(carry)
            entries = [*carry, *map(datas.__getitem__, ats)]
            head = heads.get(list_id, 0)
            waiting = carried
            done = 0
            while True:
                # The pending count at which the next entry flushes.
                waiting = max(waiting + 1,
                              min(batch_size, capacity - head % capacity))
                if done + waiting > len(entries):
                    break
                trigger = ats[done + waiting - 1 - carried]
                while waiting:      # never wrap within one write
                    slot = head % capacity
                    span = min(waiting, capacity - slot)
                    writes.append((trigger, len(writes),
                                   list_id * capacity + slot,
                                   layout.encode_run(
                                       entries[done:done + span], head)))
                    head += span
                    done += span
                    waiting -= span
            new_heads[list_id] = head
            tails[list_id] = entries[done:]
        writes.sort()

        pending.update(tails)
        heads.update(new_heads)
        self.stats.append_batches += len(writes)
        entry_bytes = layout.entry_bytes
        payloads = [write[3] for write in writes]
        self.batch_hist.observe_many(
            [len(payload) // entry_bytes for payload in payloads])
        return [write[2] for write in writes], payloads


#: The translator side (``primitives.Primitive.home``).
LANE = AppendLane

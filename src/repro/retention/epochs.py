"""Time-windowed epoch rotation over the five collector stores.

DTA's collector stores are write-only RDMA regions: reporters stream
into them at line rate and nothing ever leaves.  That is fine for the
paper's evaluation windows and fatal for a long-running collector —
the BTrDB/Confluo baselines both treat windowed retention as table
stakes.  This module adds it *without* touching the ingest path: an
:class:`EpochManager` owns an epoch counter and, at each rotation,
derives what changed since the previous rotation straight from the
region bytes — the stores themselves stay ignorant of epochs, exactly
as the DTA translator stays ignorant of what the collector CPU does
with landed data.

Per-store rotation strategies (one tracker each; which one, with what
geometry, is the ``TRACKER`` a store module declares — see
:class:`repro.core.primitives.Tracker`):

Key-Write / Postcarding (``_SlotTracker``)
    Fixed-size cells (slots / chunks) get a *generation tag*: at
    rotation, every cell whose bytes differ from the previous
    rotation's baseline is stamped with the epoch being sealed.
    Expiry zeroes cells whose generation fell out of the window —
    slot recycling.  A recycled slot's generation drops to 0, so a
    later rewrite is stamped with the *new* epoch; a stale generation
    can never resurrect.

Key-Increment / Sketch-Merge (``_DeltaTracker``)
    Counters are cumulative, so zeroing would destroy the live
    window.  Instead each rotation records the per-epoch *delta*
    (modular difference against the previous baseline) and expiry
    *subtracts* the expired epoch's delta from the live counters —
    decay.  The live region is then exactly the CMS/sketch of the
    retained window's increments, so the usual error bounds hold over
    the window.  Expired deltas are *merged down* into one coarse
    aggregate per store (``merged``), preserving all-time totals for
    epoch-scoped queries at O(1) memory.

    The Sketch-Merge store runs the tracker in *reset-stream* mode:
    DTA reporters build a fresh sketch per epoch and re-stream every
    column (Section 3.2 — ``Translator.reset_sketch_epoch`` clears the
    merge cursors), and the column transfer *overwrites* region bytes
    rather than incrementing them.  So the sealed epoch's delta is the
    region snapshot itself; sealing zeroes the region for the next
    sweep, and expiry only moves deltas into the merged aggregate —
    there is nothing to decay.  Pair rotation with the translator-side
    cursor reset (the explicit :meth:`~repro.retention.manager.
    RetentionManager.rotate` path does this) and keep engine-driven
    cadence aligned with sketch epoch boundaries.

Append (``_SegmentTracker``)
    Each rotation seals a ``(epoch, start_head, end_head)`` segment
    per ring list; the published head is recovered from the lap tags
    in the region itself (what has *landed*, not what the translator
    has emitted — rotation must never seal bytes a deferred burst has
    yet to apply).  Expiry scrubs an expired segment's entries unless
    a later lap already overwrote them.

Postcard-cache aging lives in :class:`~repro.retention.manager.
RetentionManager` (it needs the translator); everything here touches
only collector memory, which is why the engine can call
:meth:`EpochManager.rotate` under ``store_lock`` at a batch boundary
(the PR 6 snapshot rule) with no other coordination.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core import primitives

#: Rotation reports kept for introspection (`repro retain`, tests).
MAX_REPORTS = 256


@dataclass(frozen=True)
class RetentionPolicy:
    """How long sealed epochs live and how often the engine rotates.

    Args:
        window: Sealed epochs retained.  After sealing epoch ``e``,
            every epoch ``<= e - window`` expires; ``window=1`` keeps
            the just-sealed epoch plus the currently accumulating one
            — at most two epochs' worth of store bytes.
        rotate_every: Engine-driven cadence in submitted batches; the
            :class:`~repro.runtime.engine.StreamEngine` rotates before
            batch ``k * rotate_every`` applies, whether or not it emits.
            ``None`` leaves rotation fully manual.
    """

    window: int = 2
    rotate_every: int | None = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.rotate_every is not None and self.rotate_every < 1:
            raise ValueError("rotate_every must be >= 1")


@dataclass
class RotationReport:
    """What one rotation sealed and what it expired."""

    epoch: int                      # the epoch just sealed
    cutoff: int                     # epochs <= cutoff expired
    changed: dict = field(default_factory=dict)   # attr -> cells sealed
    expired: dict = field(default_factory=dict)   # attr -> cells scrubbed
    live: dict = field(default_factory=dict)      # attr -> live cells after


def _array(blob, dtype, count: int) -> np.ndarray:
    """A writable copy of a checkpoint blob holding ``count`` items."""
    array = np.frombuffer(blob, dtype=dtype)
    if array.size != count:
        raise ValueError(f"blob holds {array.size} items, not {count}")
    return array.copy()


# Every tracker reads and writes its region through an ``np.frombuffer``
# view built inside the call and never kept: a kept view would pin a
# shared-memory segment past its ``close()``.


class _SlotTracker:
    """Generation tags per fixed-size cell, derived by byte diffing."""

    kind = "slots"

    def __init__(self, store, declared) -> None:
        self.region = store.region
        self.cells = getattr(store.layout, declared.cells)
        self.cell_bytes = getattr(store.layout, declared.cell_bytes)
        self.gens = np.zeros(self.cells, dtype="<u4")
        # One ``cell_bytes``-wide item per cell: a cell compares and is
        # zeroed whole, at a cost that does not depend on how many of
        # its bytes changed.
        self._prev = np.zeros(self.cells,
                              dtype=np.dtype((np.void, self.cell_bytes)))

    def _view(self) -> np.ndarray:
        return np.frombuffer(self.region.buf, dtype=self._prev.dtype,
                             count=self.cells)

    def observe(self, epoch: int) -> int:
        """Stamp every cell that changed since the last rotation."""
        cur = self._view()
        changed = cur != self._prev
        self.gens[changed] = epoch
        self._prev[:] = cur
        return int(np.count_nonzero(changed))

    def expire(self, cutoff: int) -> int:
        """Zero every cell whose generation fell out of the window."""
        stale = (self.gens != 0) & (self.gens <= cutoff)
        zero = bytes(self.cell_bytes)
        self._view()[stale] = zero
        self.gens[stale] = 0
        # Scrubbing must not read back as a fresh write next epoch.
        self._prev[stale] = zero
        return int(np.count_nonzero(stale))

    @property
    def live(self) -> int:
        return int(np.count_nonzero(self.gens))

    def export_state(self):
        meta = {"kind": self.kind, "cells": self.cells,
                "cell_bytes": self.cell_bytes}
        return meta, {"gens": self.gens.tobytes(),
                      "prev": self._prev.tobytes()}

    def import_state(self, meta, blobs) -> None:
        if (meta.get("cells") != self.cells
                or meta.get("cell_bytes") != self.cell_bytes):
            raise ValueError("slot tracker geometry mismatch")
        self.gens = _array(blobs["gens"], self.gens.dtype, self.cells)
        self._prev = _array(blobs["prev"], self._prev.dtype, self.cells)


class _DeltaTracker:
    """Per-epoch counter deltas; expiry subtracts, merge-down keeps sums.

    Counters, baseline, deltas and the merged aggregate are arrays of
    the store's declared counter type, so unsigned wraparound is the
    modular arithmetic the counters do in the region.
    """

    kind = "deltas"

    def __init__(self, store, declared) -> None:
        self.region = store.region
        self.count = count = getattr(store.layout, declared.cells)
        order, code = declared.counter
        self.fmt = f"{order}{count}{code}"    # e.g. "<2048Q" / ">128I"
        self.dtype = np.dtype(declared.counter)
        self.reset_stream = declared.reset
        self._prev = np.zeros(count, dtype=self.dtype)
        self.deltas: deque = deque()       # (epoch, array of deltas)
        self.merged = np.zeros(count, dtype=self.dtype)   # expired epochs

    def _view(self) -> np.ndarray:
        return np.frombuffer(self.region.buf, dtype=self.dtype,
                             count=self.count)

    def observe(self, epoch: int) -> int:
        cur = self._view()
        delta = (cur - self._prev).astype(self.dtype, copy=False)
        if self.reset_stream:
            # The region *is* the sealed epoch's matrix (per-epoch
            # re-streamed sketch; the baseline stays zero); zero it for
            # the next sweep so stale columns can never recount.
            cur[:] = 0
        else:
            self._prev[:] = cur
        nonzero = int(np.count_nonzero(delta))
        if nonzero:
            self.deltas.append((epoch, delta))
        return nonzero

    def expire(self, cutoff: int) -> int:
        expired = 0
        while self.deltas and self.deltas[0][0] <= cutoff:
            _epoch, delta = self.deltas.popleft()
            if not self.reset_stream:
                # Decay: the live region still accumulates, subtract
                # the expired slice out of it.
                cur = self._view()
                cur -= delta
                self._prev[:] = cur
            self.merged += delta
            expired += int(np.count_nonzero(delta))
        return expired

    @property
    def live(self) -> int:
        return int(np.count_nonzero(self._view()))

    def export_state(self):
        meta = {"kind": self.kind, "count": self.count, "fmt": self.fmt,
                "reset": self.reset_stream,
                "epochs": [epoch for epoch, _ in self.deltas]}
        blobs = {"prev": self._prev.tobytes(),
                 "merged": self.merged.tobytes()}
        for epoch, delta in self.deltas:
            blobs[f"delta.{epoch}"] = delta.tobytes()
        return meta, blobs

    def import_state(self, meta, blobs) -> None:
        if (meta.get("count") != self.count
                or meta.get("fmt") != self.fmt
                or bool(meta.get("reset", False)) != self.reset_stream):
            raise ValueError("delta tracker geometry mismatch")
        self._prev = _array(blobs["prev"], self.dtype, self.count)
        self.merged = _array(blobs["merged"], self.dtype, self.count)
        self.deltas = deque(
            (epoch, _array(blobs[f"delta.{epoch}"], self.dtype, self.count))
            for epoch in meta.get("epochs", ()))


class _SegmentTracker:
    """Sealed ``(epoch, start, end)`` head ranges per Append ring list."""

    kind = "segments"

    def __init__(self, store, declared) -> None:
        self.store = store
        self.layout = store.layout
        self.heads = [0] * self.layout.lists
        self.segments: list[list] = [[] for _ in range(self.layout.lists)]

    def _published_head(self, list_id: int) -> int:
        """Advance past entries whose lap tag matches their position.

        Reads the *region* (what has landed), never the translator's
        emission heads — under the staged engine those run ahead of
        the execute stage and would seal bytes that have not applied.
        Bounded to one full lap per rotation; a writer outrunning the
        rotation cadence by more than ``capacity`` entries per list
        had those entries overwritten in-ring anyway.
        """
        head = self.heads[list_id]
        return head + len(self.store.published(
            list_id, head, limit=self.layout.capacity))

    def observe(self, epoch: int) -> int:
        sealed = 0
        for list_id in range(self.layout.lists):
            head = self._published_head(list_id)
            start = self.heads[list_id]
            if head > start:
                self.segments[list_id].append([epoch, start, head])
                sealed += head - start
                self.heads[list_id] = head
        return sealed

    def expire(self, cutoff: int) -> int:
        """Scrub an expired segment's entries its lap still owns — a
        later lap owns the slots whose tag no longer matches."""
        expired = 0
        layout = self.layout
        rings = np.frombuffer(
            self.store.region.buf, dtype=np.uint8,
            count=layout.region_bytes).reshape(
                layout.lists, layout.capacity, layout.entry_bytes)
        for list_id, per_list in enumerate(self.segments):
            for epoch, start, end in per_list:
                if epoch <= cutoff:
                    positions, _entries = self.store.published_in(
                        list_id, start, end)
                    rings[list_id, positions % layout.capacity] = 0
                    expired += len(positions)
            self.segments[list_id] = [segment for segment in per_list
                                      if segment[0] > cutoff]
        return expired

    @property
    def live(self) -> int:
        return sum(end - start
                   for per_list in self.segments
                   for _epoch, start, end in per_list)

    def list_segments(self, list_id: int) -> tuple:
        return tuple((epoch, start, end)
                     for epoch, start, end in self.segments[list_id])

    def export_state(self):
        meta = {"kind": self.kind, "heads": list(self.heads),
                "segments": [[list(seg) for seg in per_list]
                             for per_list in self.segments]}
        return meta, {}

    def import_state(self, meta, blobs) -> None:
        heads = meta.get("heads")
        segments = meta.get("segments")
        if heads is None or len(heads) != self.layout.lists:
            raise ValueError("segment tracker geometry mismatch")
        self.heads = [int(h) for h in heads]
        self.segments = [[[int(e), int(s), int(t)] for e, s, t in per_list]
                         for per_list in segments]


_TRACKERS = {tracker.kind: tracker
             for tracker in (_SlotTracker, _DeltaTracker, _SegmentTracker)}


class EpochManager:
    """Epoch numbering plus the per-store rotation trackers.

    Built against an already-provisioned
    :class:`~repro.core.collector.Collector`; a tracker exists per
    *served* store, so partial deployments rotate whatever they have.
    All region access is plain local reads/writes — callers serialize
    against the store writer (the engine holds ``store_lock``).
    """

    def __init__(self, collector, *,
                 policy: RetentionPolicy | None = None) -> None:
        self.collector = collector
        self.policy = policy or RetentionPolicy()
        self.current_epoch = 1
        self.rotations = 0
        self.reports: list[RotationReport] = []
        self.trackers = self._new_trackers()

    def _new_trackers(self) -> dict:
        """Fresh trackers, one per served store in registry order, each
        the kind its store module declares."""
        trackers = {}
        for primitive, store in primitives.served(self.collector):
            declared = primitive.home.TRACKER
            trackers[primitive.store] = _TRACKERS[declared.kind](
                store, declared)
        return trackers

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------

    def rotate(self) -> RotationReport:
        """Seal the current epoch; expire everything out of the window.

        Observation runs before expiry, so a cell written in the
        sealing epoch is never scrubbed by the same rotation (the
        cutoff is strictly below the sealing epoch).
        """
        epoch = self.current_epoch
        cutoff = epoch - self.policy.window
        report = RotationReport(epoch=epoch, cutoff=cutoff)
        for attr, tracker in self.trackers.items():
            report.changed[attr] = tracker.observe(epoch)
        for attr, tracker in self.trackers.items():
            report.expired[attr] = tracker.expire(cutoff)
            report.live[attr] = tracker.live
        self.current_epoch = epoch + 1
        self.rotations += 1
        self.reports.append(report)
        del self.reports[:-MAX_REPORTS]
        return report

    def retained_epochs(self) -> tuple:
        """Epochs that may still hold live data (current one included)."""
        cutoff = self.current_epoch - 1 - self.policy.window
        return tuple(epoch
                     for epoch in range(max(1, cutoff + 1),
                                        self.current_epoch + 1))

    # ------------------------------------------------------------------
    # Epoch-scoped introspection (the query tier's raw material)
    # ------------------------------------------------------------------

    def _tracker(self, attr: str, kind: type, what: str):
        tracker = self.trackers[attr]
        if not isinstance(tracker, kind):
            raise ValueError(f"'{attr}' has no {what}")
        return tracker

    def cell_epoch(self, attr: str, index: int) -> int:
        """Generation of a Key-Write slot / Postcarding chunk (0 = free)."""
        return int(self._tracker(attr, _SlotTracker,
                                 "per-cell generations").gens[index])

    def segments(self, list_id: int) -> tuple:
        """Sealed ``(epoch, start, end)`` head ranges of one list of the
        store whose tracker keeps segments."""
        tracker, = (tracker for tracker in self.trackers.values()
                    if tracker.kind == "segments")
        return tracker.list_segments(list_id)

    def epoch_delta(self, attr: str, epoch: int) -> tuple | None:
        for held, delta in self._tracker(attr, _DeltaTracker,
                                         "per-epoch deltas").deltas:
            if held == epoch:
                return tuple(delta.tolist())
        return None

    def merged_counters(self, attr: str) -> tuple:
        return tuple(self._tracker(attr, _DeltaTracker,
                                   "merged aggregate").merged.tolist())

    # ------------------------------------------------------------------
    # Checkpoint state (binary blobs ride in the checkpoint directory)
    # ------------------------------------------------------------------

    def export_state(self):
        """``(meta, blobs)``: JSON-able metadata + named binary blobs."""
        meta = {"epoch": self.current_epoch, "rotations": self.rotations,
                "window": self.policy.window, "trackers": {}}
        blobs: dict = {}
        for attr, tracker in self.trackers.items():
            tracker_meta, tracker_blobs = tracker.export_state()
            meta["trackers"][attr] = tracker_meta
            for name, blob in tracker_blobs.items():
                blobs[f"{attr}.{name}"] = blob
        return meta, blobs

    def import_state(self, meta, blobs) -> None:
        """Adopt a checkpoint's epoch state; geometry must match.  All
        or nothing: fresh trackers take the state before the manager
        does, so a rejection leaves it unchanged."""
        trackers = meta.get("trackers", {})
        if set(trackers) != set(self.trackers):
            raise ValueError(
                f"tracker set mismatch: checkpoint has "
                f"{sorted(trackers)}, collector serves "
                f"{sorted(self.trackers)}")
        staged = self._new_trackers()
        for attr, tracker in staged.items():
            prefix = f"{attr}."
            scoped = {name[len(prefix):]: blob
                      for name, blob in blobs.items()
                      if name.startswith(prefix)}
            tracker.import_state(trackers[attr], scoped)
        epoch, rotations = int(meta["epoch"]), int(meta["rotations"])
        self.trackers = staged
        self.current_epoch, self.rotations = epoch, rotations

"""Epoch-scoped query sources over the retention tier.

The PR 6 algebra reads *whole* stores; once the retention tier rotates
epochs underneath them, queries want to scope reads to an epoch — "the
appends sealed in epoch 3", "values last written in the live window".
These builders resolve the epoch coordinates (generations, sealed
segments, per-epoch deltas) from an
:class:`~repro.retention.epochs.EpochManager` **at plan-build time**,
freezing them into the source; execution then reads the *snapshot*
like every other source.  Build under the same quiesced conditions you
would call ``manager.rotate()`` from (or right after taking the
snapshot), and the frozen coordinates and the snapshot describe the
same batch boundary.

The defining property, checked by ``tests/retention``: for every
store, *rotate-then-query-by-epoch* equals *query-then-filter-by-
epoch* — rotation only moves the epoch labels, never the data a
retained epoch can see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import calibration
from repro.core.stores.append import entry_data
from repro.core.stores.sketchstore import point_estimates
from repro.queries.algebra import (ExecContext, LiteralRows, Plan, Source)


@dataclass(frozen=True)
class EpochAppendEntries(Source):
    """Entries of one Append list sealed in one epoch.

    Rows: ``{"list_id", "index", "epoch", "data"}``.  The sealed
    ``(start, end)`` head ranges are frozen at build time; entries a
    later lap already overwrote (or expiry scrubbed) are skipped by
    the lap-tag check (:meth:`AppendStore.published_in
    <repro.core.stores.append.AppendStore.published_in>`, one compare
    per range); every position of a range is charged as read.
    """

    list_id: int
    epoch: int
    ranges: tuple               # ((start, end), ...)
    decode: object = None

    def rows(self, ctx: ExecContext) -> list:
        store = ctx.store("append")
        entry_bytes = store.layout.entry_bytes
        out = []
        for start, end in self.ranges:
            positions, entries = store.published_in(self.list_id, start,
                                                    end)
            span = max(end - start, 0)
            ctx.scanned(span, span * entry_bytes)
            for position, data in zip(positions.tolist(),
                                      entry_data(entries)):
                value = (self.decode(data) if self.decode is not None
                         else data)
                out.append({"list_id": self.list_id, "index": position,
                            "epoch": self.epoch, "data": value})
        return out

    def describe(self) -> str:
        return (f"append_epoch[list={self.list_id}, "
                f"epoch={self.epoch}]")


@dataclass(frozen=True)
class EpochKeyWriteValues(Source):
    """Key-Write lookups annotated (and filtered) by slot generation.

    Rows: ``{"key", "value", "found", "epoch"}``; ``epoch`` is the
    newest generation among the key's candidate slots, frozen at build
    time.  With ``epoch`` set on the builder, only keys last written
    in that epoch survive.
    """

    keys_epochs: tuple          # ((key, epoch), ...)
    redundancy: int | None = None
    consensus: int = 1

    def rows(self, ctx: ExecContext) -> list:
        store = ctx.store("keywrite")
        found, values, _matched = store.query_many(
            [key for key, _epoch in self.keys_epochs],
            redundancy=self.redundancy, consensus=self.consensus)
        reads = len(self.keys_epochs) * (self.redundancy
                                         or calibration.DEFAULT_REDUNDANCY)
        ctx.scanned(reads, reads * store.layout.slot_bytes)
        return [{"key": key, "value": value if hit else None,
                 "found": hit, "epoch": epoch}
                for (key, epoch), value, hit in zip(
                    self.keys_epochs, values.tolist(), found.tolist())]

    def describe(self) -> str:
        return f"keywrite_epoch[{len(self.keys_epochs)}]"


def _key_epoch(manager, key: bytes, redundancy: int | None) -> int:
    """Newest generation among a key's candidate Key-Write slots."""
    store = manager.collector.keywrite
    n = redundancy or calibration.DEFAULT_REDUNDANCY
    return max(manager.cell_epoch("keywrite",
                                  store.layout.slot_index(i, key))
               for i in range(n))


def keywrite_epoch_values(manager, keys, *, epoch: int | None = None,
                          redundancy: int | None = None,
                          consensus: int = 1) -> Plan:
    """Key-Write values scoped to the epoch their slots were sealed in.

    ``epoch=None`` keeps every key, annotated with its slot epoch (0 =
    never sealed, i.e. free or still accumulating in the current
    epoch); an explicit epoch keeps only keys last written then.
    """
    pairs = tuple((key, _key_epoch(manager, key, redundancy))
                  for key in keys)
    if epoch is not None:
        pairs = tuple(pair for pair in pairs if pair[1] == epoch)
    return Plan(EpochKeyWriteValues(keys_epochs=pairs,
                                    redundancy=redundancy,
                                    consensus=consensus))


def append_epoch_entries(manager, list_id: int, *, epoch: int,
                         decode=None) -> Plan:
    """Entries one Append list sealed in ``epoch`` (scrubbed laps skip)."""
    ranges = tuple((start, end)
                   for held, start, end in manager.segments(list_id)
                   if held == epoch)
    return Plan(EpochAppendEntries(list_id=list_id, epoch=epoch,
                                   ranges=ranges, decode=decode))


def epoch_catalog(manager) -> Plan:
    """One row per retained epoch: what each store still holds of it.

    Rows: ``{"epoch", "current"}`` plus, per served store in registry
    order, ``<store>_cells`` (generation-tagged cells: Key-Write,
    Postcarding) or ``<store>_entries`` (sealed segments: Append).
    Sealed at build time; feed it to joins against other epoch-scoped
    plans.
    """
    rows = []
    for epoch in manager.retained_epochs():
        row = {"epoch": epoch,
               "current": epoch == manager.current_epoch}
        for attr, tracker in manager.trackers.items():
            if tracker.kind == "slots":
                row[f"{attr}_cells"] = int(
                    np.count_nonzero(tracker.gens == epoch))
            elif tracker.kind == "segments":
                row[f"{attr}_entries"] = sum(
                    end - start
                    for per_list in tracker.segments
                    for held, start, end in per_list if held == epoch)
        rows.append(row)
    return Plan(LiteralRows(items=tuple(rows)))


def sketch_epoch_estimates(manager, keys, *, epoch: int | None = None,
                           merged: bool = False) -> Plan:
    """CMS point estimates over one epoch's sketch delta (or the
    merged-down aggregate of every expired epoch).

    The per-epoch delta matrices live in the epoch manager, not the
    region, so the rows are sealed at build time: each is
    ``{"key", "estimate", "epoch"}`` with ``epoch`` of -1 for the
    merged aggregate.  Estimates preserve the CMS error bound for
    their slice — each delta is exactly the sketch of that epoch's
    increments.
    """
    store = manager.collector.sketch
    if store is None:
        raise RuntimeError("collector serves no sketch store")
    layout = store.layout
    if merged:
        counters = manager.merged_counters("sketch")
        label = -1
    else:
        if epoch is None:
            raise ValueError("need an epoch (or merged=True)")
        counters = manager.epoch_delta("sketch", epoch) or \
            (0,) * layout.counters
        label = epoch
    keys = list(keys)
    # Column-major region order: column j holds depth counters.
    estimates = point_estimates(
        np.array(counters, dtype=np.int64).reshape(layout.width,
                                                   layout.depth),
        keys, layout.depth)
    return Plan(LiteralRows(items=tuple(
        {"key": key, "estimate": estimate, "epoch": label}
        for key, estimate in zip(keys, estimates))))

"""Wire-to-batch assembly: the determinism seam shared by both lanes.

The socket lane's gate is digest equality with the in-process lane, and
equality is cheapest to guarantee when both lanes literally run the
same code over the same byte stream.  :class:`ReportAssembler` is that
code: it consumes post-impairment DTA wire bytes in arrival order,
routes each report to its collector shard with the stateless
:class:`~repro.core.cluster.ClusterMap`, coalesces runs of homogeneous
plain reports into :class:`~repro.core.batch.ReportBatch` carriers
(the hot path), and diverts anything carrying per-report control-plane
state — essential sequence numbers, immediate flags, retransmits —
through :meth:`Translator.handle_report
<repro.core.translator.Translator.handle_report>` so loss detection
and NACK generation keep their exact per-report semantics.

The translator daemon feeds it datagram payloads off the socket; the
reference lane feeds it the same payload sequence in process.  Same
bytes + same assembler + single-writer translators = same stores, by
construction rather than by hoping two implementations agree.

Two ingest paths share one pending-run state:

* :meth:`feed` — the scalar reference: one ``KIND_REPORT`` payload
  through ``packets.decode_report``.
* :meth:`feed_frames` — the coalesced hot path: a receive burst of
  ``KIND_FRAME`` payloads decoded wholesale by :mod:`repro.kernels.wire`
  into column arrays.  Feeding a frame is *defined* to leave what
  feeding its sub-frames through :meth:`feed` one by one leaves — same
  stores, same obs series, same per-report diversions, same ``reports``
  / ``malformed`` counts — except that a frame whose own structure
  (count, length table, body) is truncated counts as a single malformed
  unit.  Each shard's rows then take one of two lanes:

  - **plan** — a plain Key-Write / Key-Increment segment is offered to
    the translator as columns (:meth:`Translator.plan_columns
    <repro.core.translator.Translator.plan_columns>`, the one
    eligibility decision): the key matrix routing already gathered, the
    data gathered once more, no ``bytes`` objects, no
    :class:`ReportBatch`, and the whole segment in one plan whatever
    its width (plan width is not observable — docs/CONCURRENCY.md).
  - **list** — everything the translator declines, and Postcarding /
    Append / Sketch-Merge: the pending state is columnar (parallel
    lists per run), extended and flushed in ``batch_size`` slices, so
    this lane produces literally the :class:`ReportBatch` objects the
    scalar path does.  It is what the wire differential compares the
    plan lane against.
"""

from __future__ import annotations

import numpy as np

from repro.core import packets
from repro.core.batch import ReportBatch
from repro.core.packets import (
    Append,
    DtaFlags,
    DtaPrimitive,
    KeyIncrement,
    KeyWrite,
    PacketDecodeError,
    Postcard,
    SketchColumn,
)
from repro.kernels import MIN_VECTOR_BATCH, wire

#: Flags that force a report through the per-report lane: essential
#: reports feed the loss detector, immediates must convert their write,
#: and retransmits must bypass loss detection.
_PER_REPORT_FLAGS = (DtaFlags.ESSENTIAL | DtaFlags.IMMEDIATE
                     | DtaFlags.RETRANSMIT)

_KEYED_PRIMS = (int(DtaPrimitive.KEY_WRITE), int(DtaPrimitive.KEY_INCREMENT),
                int(DtaPrimitive.POSTCARDING))

#: The primitives with a vector plan (``translator.PLAN_KERNELS``).
_PLANNED_PRIMS = (int(DtaPrimitive.KEY_WRITE),
                  int(DtaPrimitive.KEY_INCREMENT))


class ReportAssembler:
    """Routes and batches a stream of DTA wire bytes into translators.

    Args:
        translators: One :class:`~repro.core.translator.Translator` per
            collector shard, ordered by cluster index.
        cluster_map: The shared stateless routing.
        batch_size: Coalescing limit of the list lane — a pending run
            is flushed once it holds this many reports (and whenever
            the run's identity changes, or a per-report-lane report or
            a plan lands on the shard, which preserves arrival order).
            Plans are not cut to it.
    """

    def __init__(self, translators, cluster_map, *,
                 batch_size: int = 64) -> None:
        if len(translators) != cluster_map.collectors:
            raise ValueError("one translator per collector required")
        self.translators = list(translators)
        self.cluster_map = cluster_map
        self.batch_size = batch_size
        self.reports = 0
        self.malformed = 0
        self.batches = 0
        self.per_report = 0
        # shard -> (run_key, [column lists]) of not-yet-flushed reports
        self._pending: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Scalar ingest (the reference semantics)
    # ------------------------------------------------------------------

    def feed(self, raw: bytes) -> None:
        """Consume one DTA report in wire form."""
        try:
            header, op = packets.decode_report(raw)
        except (PacketDecodeError, ValueError, KeyError):
            self.malformed += 1
            return
        if header.primitive in (DtaPrimitive.NACK, DtaPrimitive.CONGESTION):
            # Control messages have no business on the report socket.
            self.malformed += 1
            return
        self.reports += 1

        if isinstance(op, Append):
            shard = self.cluster_map.for_list(op.list_id)
        elif isinstance(op, SketchColumn):
            shard = self.cluster_map.for_sketch(op.sketch_id)
        else:
            shard = self.cluster_map.for_key(op.key)

        if header.flags & _PER_REPORT_FLAGS:
            # Keep shard-local order: everything batched so far happened
            # before this report, so it must reach the translator first.
            self._flush_shard(shard)
            self.per_report += 1
            self.translators[shard].handle_report(raw)
            return

        run_key = self._run_key(header, op)
        if isinstance(op, (KeyWrite, KeyIncrement, Postcard)):
            row = ((op.key, op.data) if isinstance(op, KeyWrite)
                   else (op.key, op.value) if isinstance(op, KeyIncrement)
                   else (op.key, op.hop, op.value, op.path_length))
        elif isinstance(op, Append):
            row = (op.list_id, op.data)
        else:
            row = (op.column, op.counters)
        self._extend_run(shard, run_key, [[value] for value in row])

    def feed_frame(self, payload: bytes) -> None:
        """Consume one ``KIND_FRAME`` payload (many coalesced reports).

        A receive burst of one: see :meth:`feed_frames`.
        """
        self.feed_frames((payload,))

    def feed_frames(self, payloads) -> None:
        """Consume many ``KIND_FRAME`` payloads in one vectorized pass.

        A structurally truncated frame counts as one malformed unit;
        the sub-frames of all the others are located in one pass
        (:func:`repro.kernels.wire.split_frames`) and decoded as a
        single set of columns, so the fixed array-setup cost is paid
        once per receive burst instead of once per datagram (too few
        sub-frames to pay for it go through :meth:`feed` one by one).
        Sub-report arrival order is preserved: frames are spliced in
        delivered order and row indices stay ascending across the join.
        The burst is also the plan width: each shard's plain Key-Write
        / Key-Increment segment becomes one plan.
        """
        joined, buf, offsets, lengths, truncated = \
            wire.split_frames(payloads)
        self.malformed += truncated
        if len(offsets) >= MIN_VECTOR_BATCH:
            self._feed_frame_vector(joined, buf, offsets, lengths)
            return
        for off, length in zip(offsets.tolist(), lengths.tolist()):
            self.feed(joined[off:off + length])

    def finish(self) -> None:
        """End of stream: flush every pending run and append batch."""
        for shard in sorted(self._pending):
            self._flush_shard(shard)
        for translator in self.translators:
            translator.flush_appends()

    # ------------------------------------------------------------------
    # Columnar ingest internals
    # ------------------------------------------------------------------

    def _feed_frame_vector(self, payload, buf, offsets, lengths) -> None:
        n = len(offsets)
        prims, flags, rids, valid = wire.parse_headers(buf, offsets,
                                                       lengths)
        sub = {}
        for prim in np.unique(prims[valid]).tolist():
            decoder = _DECODERS[prim]
            cols = decoder(buf, offsets, lengths)
            sub[prim] = cols
            mask = prims == prim
            valid &= ~mask | cols["valid"]

        self.malformed += int(n - int(valid.sum()))
        self.reports += int(valid.sum())
        if not valid.any():
            return

        # Routing and run identity, one column each.
        collectors = self.cluster_map.collectors
        shards = np.zeros(n, dtype=np.int64)
        extras = np.zeros(n, dtype=np.int64)
        key_off = np.zeros(n, dtype=np.int64)
        key_len = np.zeros(n, dtype=np.int64)
        keyed = np.zeros(n, dtype=bool)
        for prim, cols in sub.items():
            mask = (prims == prim) & valid
            if prim in _KEYED_PRIMS:
                keyed |= mask
                key_off[mask] = cols["key_off"][mask]
                key_len[mask] = cols["key_len"][mask]
                extras[mask] = cols["redundancy"][mask]
            elif prim == int(DtaPrimitive.APPEND):
                shards[mask] = cols["list_id"][mask] % collectors
            else:
                shards[mask] = self.cluster_map.sketch_home
                extras[mask] = cols["sketch_id"][mask]
        routed = None
        if keyed.any():
            rows = np.flatnonzero(keyed)
            packed, lens = wire.pack_column(buf, key_off[rows],
                                            key_len[rows])
            shards[rows] = wire.shards_for_keys(packed, lens, collectors)
            # Gathered once: the matrix that routed the burst is the
            # matrix its plans hash (row -> position in ``packed``).
            at = np.zeros(n, dtype=np.int64)
            at[rows] = np.arange(len(rows))
            routed = (packed, lens, at)

        per_report = valid & ((flags & int(_PER_REPORT_FLAGS)) != 0)
        rows = np.flatnonzero(valid)
        for shard in np.unique(shards[rows]).tolist():
            self._ingest_shard_rows(
                shard, rows[shards[rows] == shard], payload,
                buf, prims, rids, extras, per_report, offsets, lengths,
                sub, routed)

    def _ingest_shard_rows(self, shard, rows, payload, buf, prims, rids,
                           extras, per_report, offsets, lengths,
                           sub, routed) -> None:
        """Replay one shard's valid rows: per-report diversions flush
        and divert individually; a plain Key-Write / Key-Increment run
        the translator will plan is applied whole, straight from the
        burst's columns; every other plain run extends the pending
        list run in column slices.

        Only rows routed to ``shard`` touch ``self._pending[shard]``,
        so replaying shard by shard is observably identical to the
        scalar interleaved order (per-shard arrival order preserved)."""
        ident = np.stack((prims[rows], rids[rows], extras[rows],
                          per_report[rows]), axis=1)
        bounds = np.flatnonzero(np.any(ident[1:] != ident[:-1],
                                       axis=1)) + 1
        for seg in np.split(rows, bounds):
            first = int(seg[0])
            prim = int(prims[first])
            if per_report[first]:
                for row in seg.tolist():
                    self._flush_shard(shard)
                    self.per_report += 1
                    off = int(offsets[row])
                    raw = payload[off:off + int(lengths[row])]
                    self.translators[shard].handle_report(raw)
                continue
            primitive = DtaPrimitive(prim)
            rid = int(rids[first])
            cols = sub[prim]
            if prim in _PLANNED_PRIMS and self._plan_segment(
                    shard, primitive, seg, buf, cols, int(extras[first]),
                    routed):
                continue
            if prim in _KEYED_PRIMS:
                run_key = (primitive, rid, int(extras[first]))
                keys = wire.slice_column(payload, cols["key_off"][seg],
                                         cols["key_len"][seg])
                if primitive is DtaPrimitive.KEY_WRITE:
                    new = [keys,
                           wire.slice_column(payload, cols["data_off"][seg],
                                             cols["data_len"][seg])]
                elif primitive is DtaPrimitive.KEY_INCREMENT:
                    new = [keys, cols["value"][seg].tolist()]
                else:
                    new = [keys, cols["hop"][seg].tolist(),
                           cols["value"][seg].tolist(),
                           cols["path_length"][seg].tolist()]
            elif primitive is DtaPrimitive.APPEND:
                run_key = (primitive, rid)
                new = [cols["list_id"][seg].tolist(),
                       wire.slice_column(payload, cols["data_off"][seg],
                                         cols["data_len"][seg])]
            else:
                run_key = (primitive, rid, int(extras[first]))
                depth = cols["depth"][seg]
                if int(depth.min()) == int(depth.max()):
                    matrix = wire.gather_counters(
                        buf, cols["counters_off"][seg], int(depth[0]))
                    counter_rows = [tuple(r) for r in matrix.tolist()]
                else:   # mixed depths in one run: rare, decode per row
                    counter_rows = [
                        tuple(int(c) for c in wire.gather_counters(
                            buf, cols["counters_off"][r:r + 1],
                            int(cols["depth"][r]))[0].tolist())
                        for r in seg.tolist()]
                new = [cols["column"][seg].tolist(), counter_rows]
            self._extend_run(shard, run_key, new)

    def _plan_segment(self, shard, primitive, seg, buf, cols, redundancy,
                      routed) -> bool:
        """Offer one plain Key-Write / Key-Increment segment to the
        shard's translator as columns; True when it ran as one plan.

        The translator decides (:meth:`Translator.plan_columns
        <repro.core.translator.Translator.plan_columns>`); a decline
        touches nothing and the caller's list path takes the segment.
        The segment is planned at the width the receive burst delivered
        it — ``batch_size`` bounds list-path runs only.
        """
        translator = self.translators[shard]
        plan_columns = getattr(translator, "plan_columns", None)
        if plan_columns is None:        # a sink that offers no plan
            return False
        packed, lens, at = routed
        pos = at[seg]
        lens = lens[pos]
        packed = packed[pos, :int(lens.max())]
        if primitive is DtaPrimitive.KEY_WRITE:
            third, _ = wire.pack_column(buf, cols["data_off"][seg],
                                        cols["data_len"][seg])
        else:
            third = cols["value"][seg]
        plan = plan_columns(primitive, len(seg), packed, lens, third,
                            redundancy)
        if plan is None:
            return False
        # Shard-local arrival order: what was pending came first.
        self._flush_shard(shard)
        self.batches += 1
        plan.apply(translator.client)
        return True

    # ------------------------------------------------------------------
    # Shared pending-run state
    # ------------------------------------------------------------------

    @staticmethod
    def _run_key(header, op) -> tuple:
        """Identity a report must share with its run to coalesce.

        ``reporter_id`` is part of the identity because Sketch-Merge
        tracks per-reporter column cursors and
        :attr:`ReportBatch.reporter_id` is batch-wide; including it for
        every primitive keeps the rule uniform.
        """
        if isinstance(op, (KeyWrite, KeyIncrement, Postcard)):
            return (header.primitive, header.reporter_id, op.redundancy)
        if isinstance(op, SketchColumn):
            return (header.primitive, header.reporter_id, op.sketch_id)
        return (header.primitive, header.reporter_id)

    def _extend_run(self, shard: int, run_key: tuple, new_cols) -> None:
        """Append column slices to a shard's run, flushing in exact
        ``batch_size`` chunks as the scalar per-report path would."""
        pending = self._pending.get(shard)
        if pending is not None and pending[0] != run_key:
            self._flush_shard(shard)
            pending = None
        if pending is None:
            pending = (run_key, [[] for _ in new_cols])
            self._pending[shard] = pending
        cols = pending[1]
        for col, new in zip(cols, new_cols):
            col.extend(new)
        size = self.batch_size
        while len(cols[0]) >= size:
            chunk = [col[:size] for col in cols]
            for col in cols:
                del col[:size]
            self._emit(shard, run_key, chunk)
        if not cols[0]:
            self._pending.pop(shard, None)

    def _flush_shard(self, shard: int) -> None:
        pending = self._pending.pop(shard, None)
        if pending is None:
            return
        self._emit(shard, pending[0], pending[1])

    def _emit(self, shard: int, run_key: tuple, cols) -> None:
        """Build a :class:`ReportBatch` straight from run columns.

        Every value already passed the wire validity checks (which
        mirror the batch constructors'), so columns are assigned
        directly instead of re-validated one report at a time.
        """
        (primitive, reporter_id, *rest) = run_key
        batch = ReportBatch(primitive)
        if primitive is DtaPrimitive.KEY_WRITE:
            batch.redundancy = rest[0]
            batch.keys, batch.datas = cols
        elif primitive is DtaPrimitive.KEY_INCREMENT:
            batch.redundancy = rest[0]
            batch.keys, batch.values = cols
        elif primitive is DtaPrimitive.POSTCARDING:
            batch.redundancy = rest[0]
            batch.keys, batch.hops, batch.values, batch.path_lengths = cols
        elif primitive is DtaPrimitive.APPEND:
            batch.list_ids, batch.datas = cols
        else:
            batch.sketch_id = rest[0]
            batch.columns, batch.counter_rows = cols
        batch.reporter_id = reporter_id
        self.batches += 1
        self.translators[shard].process_batch(batch)


_DECODERS = {
    int(DtaPrimitive.KEY_WRITE): wire.decode_keywrite,
    int(DtaPrimitive.KEY_INCREMENT): wire.decode_keyincrement,
    int(DtaPrimitive.POSTCARDING): wire.decode_postcard,
    int(DtaPrimitive.APPEND): wire.decode_append,
    int(DtaPrimitive.SKETCH_MERGE): wire.decode_sketch,
}

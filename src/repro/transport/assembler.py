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
* :meth:`feed_burst` (and :meth:`feed_frames`, the same over a list of
  payloads) — the coalesced hot path: a receive burst of
  ``KIND_FRAME`` payloads decoded wholesale by :mod:`repro.kernels.wire`
  into column arrays.  Feeding a frame is *defined* to leave what
  feeding its sub-frames through :meth:`feed` one by one leaves — same
  stores, same obs series, same per-report diversions, same ``reports``
  / ``malformed`` counts — except that a frame whose own structure
  (count, length table, body) is truncated counts as a single malformed
  unit.  Each shard's rows then take one of two lanes:

  - **plan** — a plain segment of a primitive whose lane plans from
    columns (``Primitive.value``: Key-Write, Key-Increment) is offered
    to the translator as columns (:meth:`Translator.plan_columns
    <repro.core.translator.Translator.plan_columns>`, the one
    eligibility decision): the key CRC registers routing already
    stepped, the value column gathered once more, no ``bytes`` objects, no
    :class:`ReportBatch`, and the whole segment in one plan whatever
    its width (plan width is not observable — docs/CONCURRENCY.md).
  - **list** — everything the translator declines, and every other
    primitive: the pending state is columnar (parallel lists per run),
    extended and flushed in ``batch_size`` slices, so this lane
    produces literally the :class:`ReportBatch` objects the scalar
    path does.  It is what the wire differential compares the plan
    lane against.

Nothing a datagram carries may raise through here: bytes that do not
decode count as ``malformed``; a report that decodes but that the
provisioned service cannot hold (``Translator.check`` — a list that
was never provisioned, data wider than the slot, a sketch nobody
serves) is dropped alone and counts as ``rejected``.
"""

from __future__ import annotations

import numpy as np

from repro.core import packets
from repro.core.batch import ReportBatch
from repro.core.packets import PacketDecodeError
from repro.core.primitives import BY_CODE
from repro.kernels import MIN_VECTOR_BATCH, wire
from repro.kernels import crc as kcrc


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
        #: Reports that decoded but that the shard's service cannot
        #: hold; ``reports`` counts them too.
        self.rejected = 0
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
            # KeyError: a control message has no business on the
            # report socket.
            primitive = BY_CODE[header.primitive]
        except (PacketDecodeError, ValueError, KeyError):
            self.malformed += 1
            return
        self.reports += 1
        shard = primitive.shard(self.cluster_map,
                                getattr(op, primitive.routed_by))
        if header.flags & wire.PER_REPORT_MASK:
            self._divert(shard, raw, header, op)
            return
        self._extend_run(shard, (header.primitive, header.reporter_id,
                                 primitive.extra_of(op)), primitive.row(op))

    def _divert(self, shard: int, raw: bytes, header, op) -> None:
        """The per-report lane: a report carrying control-plane state
        goes through ``handle_report`` alone.  Everything batched so
        far happened before it, so that reaches the translator first
        (shard-local order)."""
        self._flush_shard(shard)
        translator = self.translators[shard]
        primitive = BY_CODE[header.primitive]
        if translator.check(header.primitive, primitive.row(op),
                            primitive.extra_of(op)) is not None:
            self.rejected += 1
            return
        self.per_report += 1
        translator.handle_report(raw)

    def feed_frames(self, payloads) -> None:
        """Consume many ``KIND_FRAME`` payloads: :meth:`feed_burst`
        over their join."""
        totals = np.fromiter(map(len, payloads), dtype=np.int64,
                             count=len(payloads))
        self.feed_burst(b"".join(payloads), np.cumsum(totals) - totals,
                        totals)

    def feed_burst(self, data, starts, totals) -> None:
        """Consume a burst of ``KIND_FRAME`` payloads in one vectorized
        pass: payload ``i`` is the ``totals[i]`` bytes of ``data`` (the
        receive ring, say) from ``starts[i]`` on.

        A structurally truncated frame counts as one malformed unit;
        the sub-frames of all the others are located in one pass
        (:func:`repro.kernels.wire.split_frames`) and decoded as a
        single set of columns, so the fixed array-setup cost is paid
        once per receive burst instead of once per datagram (too few
        sub-frames to pay for it go through :meth:`feed` one by one).
        Sub-report arrival order is preserved: row indices ascend in
        delivered order.
        """
        buf, offsets, lengths, truncated = wire.split_frames(data, starts,
                                                            totals)
        self.malformed += truncated
        if len(offsets) >= MIN_VECTOR_BATCH:
            self._feed_frame_vector(data, buf, offsets, lengths)
            return
        for off, length in zip(offsets.tolist(), lengths.tolist()):
            self.feed(data[off:off + length])

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
        prims, flags, rids, valid = wire.parse_headers(buf, offsets, lengths)
        # Decode per primitive; routing and run identity, a column each.
        collectors = self.cluster_map.collectors
        shards = np.zeros(n, dtype=np.int64)
        extras = np.zeros(n, dtype=np.int64)
        key_off = np.zeros(n, dtype=np.int64)
        key_len = np.zeros(n, dtype=np.int64)
        keyed = np.zeros(n, dtype=bool)
        sub = {}
        for prim in np.flatnonzero(np.bincount(prims[valid])).tolist():
            primitive = BY_CODE[prim]
            cols = sub[prim] = wire.decode(primitive, buf, offsets, lengths)
            mask = prims == prim
            valid &= ~mask | cols["valid"]
            mask &= valid
            if primitive.extra is not None:
                extras[mask] = cols[primitive.extra][mask]
            if primitive.route == "key":
                keyed |= mask
                key_off[mask] = cols["key_off"][mask]
                key_len[mask] = cols["key_len"][mask]
            elif primitive.route == "list":
                shards[mask] = cols[primitive.routed_by][mask] % collectors
            else:
                shards[mask] = self.cluster_map.sketch_home
        rows = np.flatnonzero(valid)
        self.malformed += n - len(rows)
        self.reports += len(rows)
        routed = None
        if keyed.any():
            at = np.flatnonzero(keyed)
            lens = key_len[at]
            registers = kcrc.key_registers(
                wire.pack_column(buf, key_off[at], lens)[0], lens)
            shards[at] = wire.shards_for_keys(registers, lens, collectors)
            # Hashed once: the CRC pass that routed the burst is the one
            # its plans' lanes derive from (row -> position in it).
            position = np.zeros(n, dtype=np.int64)
            position[at] = np.arange(len(at))
            routed = (registers, lens, position)
        per_report = (flags & wire.PER_REPORT_MASK) != 0
        burst = (payload, buf, offsets, lengths, sub, routed)
        for shard in np.flatnonzero(np.bincount(shards[rows])).tolist():
            self._ingest_shard_rows(shard, rows[shards[rows] == shard],
                                    prims, rids, extras, per_report, burst)

    def _ingest_shard_rows(self, shard, rows, prims, rids, extras,
                           per_report, burst) -> None:
        """Replay one shard's valid rows: per-report diversions flush
        and divert individually; a plain run of a primitive whose lane
        plans from columns, if the translator will plan it, is applied
        whole, straight from the burst's columns; every other plain
        run extends the pending list run in column slices.

        Only rows routed to ``shard`` touch ``self._pending[shard]``,
        so replaying shard by shard is observably identical to the
        scalar interleaved order (per-shard arrival order preserved)."""
        payload, buf, offsets, lengths, sub, _routed = burst
        ident = np.stack((prims[rows], rids[rows], extras[rows],
                          per_report[rows]), axis=1)
        bounds = np.flatnonzero(np.any(ident[1:] != ident[:-1],
                                       axis=1)) + 1
        for seg in np.split(rows, bounds):
            first = int(seg[0])
            if per_report[first]:
                for row in seg.tolist():
                    off = int(offsets[row])
                    raw = payload[off:off + int(lengths[row])]
                    self._divert(shard, raw, *packets.decode_report(raw))
                continue
            primitive = BY_CODE[int(prims[first])]
            cols = sub[primitive.code]
            extra = int(extras[first]) if primitive.extra else None
            if primitive.value is not None and self._plan_segment(
                    shard, primitive, seg, cols, extra, burst):
                continue
            self._extend_run(
                shard, (primitive.code, int(rids[first]), extra),
                [wire.column(primitive, name, payload, buf, cols, seg)
                 for name in primitive.fields])

    def _plan_segment(self, shard, primitive, seg, cols, redundancy,
                      burst) -> bool:
        """Offer one plain segment to the shard's translator as
        columns; True when it ran as one plan.

        The translator decides (:meth:`Translator.plan_columns
        <repro.core.translator.Translator.plan_columns>`); a decline
        touches nothing and the caller's list path takes the segment.
        The segment is planned at the width the receive burst delivered
        it — ``batch_size`` bounds list-path runs only.
        """
        translator = self.translators[shard]
        _payload, buf, _offsets, _lengths, _sub, (registers, lens, at) = \
            burst
        pos = at[seg]
        plan = translator.plan_columns(
            primitive.code, len(seg), registers[pos], lens[pos],
            wire.matrix(primitive, primitive.value, buf, cols, seg),
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

    def _extend_run(self, shard: int, run_key: tuple, new_cols) -> None:
        """Append column slices to a shard's run, flushing in exact
        ``batch_size`` chunks as the scalar per-report path would.

        ``run_key`` is the identity a report must share with its run
        to coalesce: ``(primitive, reporter_id, extra)``.
        ``reporter_id`` is part of it because Sketch-Merge tracks
        per-reporter column cursors and :attr:`ReportBatch.reporter_id`
        is batch-wide; including it for every primitive keeps the rule
        uniform."""
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
        if pending is not None:
            self._emit(shard, *pending)

    def _emit(self, shard: int, run_key: tuple, cols) -> None:
        """Build a :class:`ReportBatch` straight from run columns.

        Every value already passed the wire validity checks (which
        mirror the batch constructors'), so columns are assigned
        directly instead of re-validated one report at a time.  What
        the shard's *service* cannot hold is dropped here, report by
        report, so the translator never raises for outside input.
        """
        code, reporter_id, extra = run_key
        translator = self.translators[shard]
        if translator.check(code, cols, extra) is not None:
            keep = [i for i in range(len(cols[0])) if translator.check(
                code, [col[i:i + 1] for col in cols], extra) is None]
            self.rejected += len(cols[0]) - len(keep)
            if not keep:
                return
            cols = [[col[i] for i in keep] for col in cols]
        primitive = BY_CODE[code]
        batch = ReportBatch(code)
        if primitive.extra is not None:
            setattr(batch, primitive.extra, extra)
        for name, col in zip(primitive.columns, cols):
            setattr(batch, name, col)
        batch.reporter_id = reporter_id
        self.batches += 1
        translator.process_batch(batch)

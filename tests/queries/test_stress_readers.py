"""Concurrent-reader stress: snapshots never observe a torn batch.

The serving tier's core guarantee under load: N reader threads take
snapshots and run queries *while* the streaming engine ingests — and
with PR 3 fault plans firing mid-stream (translator crash, link
blackout) — yet no reader ever sees a partially applied batch.  Every
submitted batch writes the same value to a group of keys, so a torn
read is directly detectable: a snapshot where two group keys decode to
different values.

Half of the readers take public snapshots (fresh copies); the other
half tick a :class:`~repro.queries.serving.QueryServer`, whose one view
is refreshed *in place* every tick — a refresh that copied outside a
batch boundary would show up as the same torn group.
"""

from __future__ import annotations

import struct
import sys
import threading

from repro import obs
from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.queries import QueryServer, keywrite_values, snapshot_of
from repro.runtime.engine import StreamEngine

GROUP = [bytes([65 + i]) * 13 for i in range(8)]   # 8 fixed flow keys
BATCHES = 240
READERS = 4


def _payload(seq: int) -> bytes:
    return struct.pack(">Q", seq).ljust(20, b"\0")


def _decode(value: bytes) -> int:
    return struct.unpack(">Q", value[:8])[0]


def _group_batch(seq: int) -> ReportBatch:
    return ReportBatch.key_writes(GROUP, [_payload(seq)] * len(GROUP),
                                  redundancy=2)


def _group_seqs(values) -> set:
    """The distinct sequence numbers among the group's found values —
    more than one means the view mixes two batches."""
    return {_decode(value) for value in values if value is not None}


class _Reader(threading.Thread):
    """View + query loop; records any torn or regressing view."""

    def __init__(self, engine: StreamEngine,
                 stop: threading.Event) -> None:
        super().__init__(daemon=True)
        self.engine = engine
        self.stop_event = stop
        self.snapshots = 0
        self.violations: list = []
        self.last_seq = -1

    def view(self) -> tuple:
        """``(batch_seq, group values)`` of one fresh public snapshot."""
        snap = self.engine.snapshot()
        return snap.batch_seq, [
            snap.query_value(key, redundancy=2).value for key in GROUP]

    def run(self) -> None:
        while not self.stop_event.is_set():
            batch_seq, values = self.view()
            self.snapshots += 1
            seqs = _group_seqs(values)
            if len(seqs) > 1:
                self.violations.append(("torn", batch_seq, sorted(seqs)))
            elif seqs:
                seen = seqs.pop()
                # Bursts apply in submit order, so the value a reader
                # observes can only move forward.
                if seen < self.last_seq:
                    self.violations.append(
                        ("regressed", batch_seq, seen, self.last_seq))
                self.last_seq = seen


class _ServerReader(_Reader):
    """The same checks over a QueryServer's in-place refreshed view."""

    def __init__(self, engine: StreamEngine,
                 stop: threading.Event) -> None:
        super().__init__(engine, stop)
        self.server = QueryServer(engine)
        self.server.register("group", keywrite_values(GROUP, redundancy=2))
        self.buffers = None

    def view(self) -> tuple:
        results = self.server.tick()
        kept = self.server.view
        buffers = id(kept), id(kept.keywrite.region.buf)
        if self.buffers not in (None, buffers):
            self.violations.append(("reallocated", results.batch_seq))
        self.buffers = buffers
        if kept.batch_seq != results.batch_seq:
            self.violations.append(
                ("provenance", results.batch_seq, kept.batch_seq))
        return results.batch_seq, [
            row["value"] for row in results["group"].rows]


def test_readers_never_observe_a_torn_batch_under_faults():
    col = Collector()
    col.serve_keywrite(slots=4096, data_bytes=20)
    translator = Translator()
    col.connect_translator(translator)
    reporter = Reporter("sw", 1, transmit=translator.handle_report)

    previous = obs.get_registry()
    obs.set_registry(obs.Registry())
    engine = StreamEngine(col, translator, reporter, workers=2,
                          queue_depth=8, vectorized=False)
    stop = threading.Event()
    readers = [(_Reader, _ServerReader)[index % 2](engine, stop)
               for index in range(READERS)]
    # Switch threads every few bytecodes, not every 5 ms: a copy taken
    # without the store lock then lands inside a burst many times a run.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        engine.start()
        for reader in readers:
            reader.start()
        for seq in range(BATCHES):
            # PR 3 fault plans, mid-stream: a translator crash window
            # and a link blackout, both closed well before the end.
            if seq == BATCHES // 4:
                translator.crash()
            if seq == BATCHES // 3:
                translator.restart()
            if seq == BATCHES // 2:
                engine.link.begin_fault()
            if seq == 2 * BATCHES // 3:
                engine.link.end_fault()
            engine.submit(_group_batch(seq))
        engine.drain()
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10.0)
        engine.close()
        obs.set_registry(previous)
        sys.setswitchinterval(interval)

    for reader in readers:
        assert not reader.is_alive()
        assert reader.violations == []
    # The loop must actually have exercised concurrent snapshots.
    assert sum(reader.snapshots for reader in readers) > 0

    # Conservation: every submitted report is accounted for — landed,
    # dropped by the crash window, or dropped with its carrier at the
    # link.  Whole carriers only: that is the no-torn-batch guarantee
    # seen from the accounting side.
    total = BATCHES * len(GROUP)
    landed = translator.stats.reports_in
    crashed = translator.stats.dropped_while_crashed
    link_dropped = engine.link.stats.drops
    assert reporter.stats.reports_sent == total
    assert landed + crashed + link_dropped == total
    # Every link drop removed a whole carrier — a multiple of the
    # group size, never a fraction of a batch.
    assert link_dropped % len(GROUP) == 0

    # Both fault windows closed before the last batch, so the final
    # quiesced state is the last submitted value on every group key.
    for key in GROUP:
        result = col.query_value(key, redundancy=2)
        assert result.found
        assert _decode(result.value) == BATCHES - 1


def test_a_view_refreshed_off_a_batch_boundary_is_what_readers_catch():
    """The control for the test above: refresh a kept view by hand
    while half a group batch has landed — the copy a refresh outside
    ``store_lock`` could make — and the readers' check flags it."""
    col = Collector()
    col.serve_keywrite(slots=4096, data_bytes=20)
    translator = Translator()
    col.connect_translator(translator)
    reporter = Reporter("sw", 1, transmit=translator.handle_report)

    def values(view) -> list:
        return [view.query_value(key, redundancy=2).value for key in GROUP]

    for key in GROUP:
        reporter.key_write(key, _payload(1), redundancy=2)
    kept = snapshot_of(col)
    assert _group_seqs(values(kept)) == {1}
    for key in GROUP[:len(GROUP) // 2]:
        reporter.key_write(key, _payload(2), redundancy=2)
    assert snapshot_of(col, into=kept) is kept
    assert _group_seqs(values(kept)) == {1, 2}


def test_many_snapshots_are_independent():
    """Thousands of snapshots share nothing: mutating the live store
    afterwards changes none of them (readers need zero coordination)."""
    col = Collector()
    col.serve_keywrite(slots=256, data_bytes=20)
    translator = Translator()
    col.connect_translator(translator)
    reporter = Reporter("sw", 1, transmit=translator.handle_report)

    snaps = []
    for seq in range(50):
        reporter.key_write(GROUP[0], _payload(seq), redundancy=2)
        snaps.append(col.snapshot())
    for seq, snap in enumerate(snaps):
        assert _decode(snap.query_value(GROUP[0],
                                        redundancy=2).value) == seq

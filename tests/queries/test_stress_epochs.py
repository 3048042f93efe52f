"""Concurrent readers across forced rotations: no torn epoch views.

Extends the PR 6 reader-stress suite to the retention tier.  Four
:class:`~repro.queries.serving.QueryServer` readers tick continuously
while the engine ingests epoch-tagged key groups and the retention
hook rotates (and expires) underneath them.  Each epoch's group is
written atomically in one batch and expired atomically under
``store_lock`` during rotation, so every reader view must satisfy:

* **all-or-nothing per epoch** — a group is fully present or fully
  gone, never partially applied and never partially scrubbed;
* **bounded, contiguous window** — the present groups form a
  contiguous run of at most ``window + 1`` epochs ending at the
  newest present epoch (row conservation per epoch: rotation moves
  whole epochs, not rows).
"""

from __future__ import annotations

import struct
import sys
import threading

from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.queries import Plan, QueryServer, keywrite_values
from repro.retention.epochs import RetentionPolicy
from repro.retention.manager import RetentionManager
from repro.runtime.engine import StreamEngine

GROUP = 8                 # keys per epoch, written in one batch
EPOCHS = 30
WINDOW = 1
READERS = 4


def _keys(epoch: int) -> list:
    return [f"e{epoch}g{i}".encode() for i in range(GROUP)]


def _epoch_plan(epoch: int) -> Plan:
    return keywrite_values(_keys(epoch), redundancy=2)


class _EpochReader(threading.Thread):
    """QueryServer loop recording any torn or non-contiguous view."""

    def __init__(self, engine: StreamEngine,
                 stop: threading.Event) -> None:
        super().__init__(daemon=True)
        self.server = QueryServer(engine)
        for epoch in range(1, EPOCHS + 1):
            self.server.register(f"epoch-{epoch}", _epoch_plan(epoch))
        self.stop_event = stop
        self.ticks = 0
        self.violations: list = []

    def run(self) -> None:
        kept = None
        while not self.stop_event.is_set():
            results = self.server.tick()
            self.ticks += 1
            # One view per server, refreshed in place under store_lock:
            # the checks below are what a torn refresh would trip.
            view = self.server.view
            if kept not in (None, view) \
                    or view.batch_seq != results.batch_seq:
                self.violations.append(("view", results.batch_seq))
            kept = view
            present = []
            for epoch in range(1, EPOCHS + 1):
                rows = results.results[f"epoch-{epoch}"].rows
                found = sum(1 for row in rows if row["found"])
                if found not in (0, GROUP):
                    self.violations.append(
                        ("torn", results.batch_seq, epoch, found))
                elif found:
                    present.append(epoch)
            if present:
                contiguous = present == list(
                    range(present[0], present[-1] + 1))
                if not contiguous or len(present) > WINDOW + 2:
                    self.violations.append(
                        ("window", results.batch_seq, present))


def test_query_servers_never_observe_torn_epochs_across_rotations():
    col = Collector()
    col.serve_keywrite(slots=1 << 15, data_bytes=8)
    tr = Translator()
    col.connect_translator(tr)
    rep = Reporter("se", 1, transmit=tr.handle_report)
    manager = RetentionManager(
        col, policy=RetentionPolicy(window=WINDOW, rotate_every=1),
        translator=tr)
    engine = StreamEngine(col, tr, rep, workers=2, queue_depth=8,
                          retention=manager)

    stop = threading.Event()
    readers = [_EpochReader(engine, stop) for _ in range(READERS)]
    # Switch threads every few bytecodes: a refresh or an expiry outside
    # store_lock then interleaves with a reader many times a run.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        engine.start()
        for reader in readers:
            reader.start()
        for epoch in range(1, EPOCHS + 1):
            datas = [struct.pack("<Q", (epoch << 16) | i)
                     for i in range(GROUP)]
            engine.submit(ReportBatch.key_writes(_keys(epoch), datas,
                                                 redundancy=2))
        engine.drain()
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10.0)
        engine.close()
        sys.setswitchinterval(interval)

    for reader in readers:
        assert not reader.is_alive()
        assert reader.violations == []
    assert sum(reader.ticks for reader in readers) > 0

    # rotate_every=1: one rotation per batch boundary after the first.
    assert manager.epochs.rotations == EPOCHS - 1
    # Final quiesced state honours the same window bound the readers
    # checked: at most window+1 epochs' groups remain.
    live = [epoch for epoch in range(1, EPOCHS + 1)
            if all(col.keywrite.query(key, redundancy=2).found
                   for key in _keys(epoch))]
    assert live == list(range(live[0], live[-1] + 1))
    assert len(live) <= WINDOW + 2
    assert live[-1] == EPOCHS
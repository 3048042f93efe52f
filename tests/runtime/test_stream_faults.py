"""Fault-plan compatibility: faults mid-stream end in recovery, not hangs.

PR 3's contract is that every fault has a recovery path; the streaming
runtime must not re-break it.  A translator crash inside the translate
stage, or a link blackout between encode and translate, must leave the
pipeline drainable (never wedged on a queue nobody serves), keep the
loss accounting exact, and — for essential traffic — leave a state the
controller sweep (:func:`repro.faults.recover_stream`) can fully
repair, exactly as :func:`repro.faults.drain_losses` does for the
serial path.
"""

from __future__ import annotations

import struct

from repro import bench
from repro.core.batch import ReportBatch
from repro.faults import recover_stream
from repro.runtime import StreamEngine
from repro.workloads import reports
from tests import conformance

BATCH = 16
SEED = 3


def test_translator_crash_mid_stream_drains_without_hang():
    """Crash/restart while carriers are in flight: the stream drains,
    and every submitted report is either processed or counted dropped —
    conservation, not silence."""
    work = reports.columns("key_write", 480, SEED)
    n = len(work["keys"])
    with conformance.engine(workers=2, queue_depth=4,
                            vectorized=False) as (_registry, engine):
        for s in range(0, n, BATCH):
            if s == n // 3:
                engine.translator.crash()
            if s == 2 * n // 3:
                engine.translator.restart()
            engine.submit(reports.batch("key_write", work, s, s + BATCH))
        engine.drain()
    stats = engine.translator.stats
    assert engine.reporter.stats.reports_sent == n
    assert stats.dropped_while_crashed > 0
    assert stats.reports_in + stats.dropped_while_crashed == n
    for thread in engine._threads:
        assert not thread.is_alive()


def test_link_blackout_drops_whole_carriers_deterministically():
    """A StreamLink fault window (the injector's blackout hook) drops
    carriers between encode and translate; with ``workers=0`` the
    window boundaries are exact, so the counts are too."""
    work = reports.columns("key_write", 320, SEED)
    n = len(work["keys"])
    blacked_out = 0
    with conformance.engine(workers=0, vectorized=False) as (
            _registry, engine):
        for s in range(0, n, BATCH):
            if n // 4 <= s < n // 2:
                engine.link.begin_fault()
                blacked_out += BATCH
            else:
                engine.link.end_fault()
            engine.submit(reports.batch("key_write", work, s, s + BATCH))
        engine.drain()
    link = engine.link.stats
    assert blacked_out > 0
    assert link.fault_drops == blacked_out
    assert link.sent == n
    assert link.delivered == n - blacked_out
    assert engine.translator.stats.reports_in == n - blacked_out


def _essential_run(*, crash_window=None):
    """Drive an essential Key-Write stream; return queryable hit count.

    ``crash_window=(lo, hi)`` crashes the translator for the batches
    whose start offset falls in [lo, hi) and restarts it after, then
    runs the stream-recovery sweep post-drain.
    """
    n = 96
    keys = [struct.pack(">I", 0xABC00000 | i) for i in range(n)]
    datas = [struct.pack(">QQ", i, i * 7) for i in range(n)]
    with bench.deployment(vectorized=False) as (
            _registry, collector, translator, reporter):
        engine = StreamEngine(collector, translator, reporter, workers=0,
                              vectorized=False)
        try:
            engine.start()
            for s in range(0, n, BATCH):
                if crash_window and crash_window[0] <= s < crash_window[1]:
                    translator.crash()
                elif crash_window:
                    translator.restart()
                engine.submit(ReportBatch.key_writes(
                    keys[s:s + BATCH], datas[s:s + BATCH], redundancy=2,
                    essential=True))
            engine.drain()
            engine.close()
            if crash_window:
                translator.restart()
                resent = recover_stream(engine, [reporter])
                assert resent > 0, "the sweep had losses to repair"
        finally:
            engine.close()
    hits = sum(
        collector.query_value(key, redundancy=2).value == data
        for key, data in zip(keys, datas))
    return hits, translator, reporter, engine


def test_essential_stream_crash_recovers_via_sweep():
    """Essential reports lost to a mid-stream translator crash come
    back through the engine's pending NACKs + the controller sweep:
    afterwards exactly as many keys are queryable as in a fault-free
    run of the same stream."""
    baseline_hits, *_ = _essential_run()
    hits, translator, reporter, engine = _essential_run(
        crash_window=(32, 64))
    assert translator.stats.dropped_while_crashed > 0
    assert reporter.stats.retransmitted > 0
    assert not translator.loss.all_awaiting().get(reporter.reporter_id)
    assert engine.pending_controls == []
    assert hits == baseline_hits > 0


def test_recover_stream_is_a_noop_on_a_clean_run():
    hits, translator, reporter, engine = _essential_run()
    assert recover_stream(engine, [reporter]) == 0
    assert hits > 0

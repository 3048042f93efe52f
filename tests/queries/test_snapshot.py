"""Snapshot isolation: frozen views, digest equality, batch boundaries."""

from __future__ import annotations

import pytest

from repro.core.collector import Collector
from repro.queries import snapshot_of
from repro.runtime.engine import store_digest

FLOW = b"Q" * 13


class TestIsolation:
    def test_snapshot_does_not_see_later_writes(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"before" + b"\0" * 14, redundancy=2)
        snap = snapshot_of(col)
        rep.key_write(FLOW, b"after!" + b"\0" * 14, redundancy=2)
        assert snap.query_value(FLOW).value.startswith(b"before")
        assert col.query_value(FLOW).value.startswith(b"after!")

    def test_snapshot_covers_every_provisioned_store(self, rig):
        col, _tr, rep = rig
        rep.postcard(FLOW, 0, 42, path_length=1)
        rep.key_increment(FLOW, 5, redundancy=4)
        snap = snapshot_of(col)
        rep.postcard(FLOW, 0, 43, path_length=1)  # perturb live store
        rep.key_increment(FLOW, 90, redundancy=4)
        assert snap.query_path(FLOW) == [42]
        assert snap.query_counter(FLOW, redundancy=4) == 5
        assert col.query_counter(FLOW, redundancy=4) == 95

    def test_unprovisioned_services_stay_none(self):
        col = Collector()
        col.serve_keywrite(slots=64, data_bytes=8)
        snap = snapshot_of(col)
        assert snap.keywrite is not None
        assert snap.sketch is None
        with pytest.raises(RuntimeError, match="not in snapshot"):
            snap.query_counter(FLOW)

    def test_snapshot_queries_leave_live_stats_alone(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        col.query_value(FLOW)              # live stats: 1 query
        live_queries = col.keywrite.stats.queries
        snap = snapshot_of(col)
        for _ in range(5):
            snap.query_value(FLOW)
        assert col.keywrite.stats.queries == live_queries


class TestDigests:
    def test_snapshot_digest_equals_live_at_quiesce(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        rep.key_increment(FLOW, 3, redundancy=4)
        snap = snapshot_of(col)
        assert snap.store_digest() == store_digest(col)

    def test_digest_is_memoized_and_stable(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        snap = snapshot_of(col)
        frozen = snap.store_digest()
        rep.key_write(FLOW, b"y" * 20, redundancy=2)
        assert snap.store_digest() == frozen
        assert store_digest(col) != frozen


class TestCollectorEntryPoint:
    def test_collector_snapshot_method(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        snap = col.snapshot()
        assert snap.name == col.name
        assert snap.batch_seq is None
        assert snap.query_value(FLOW).found


class TestEngineSnapshots:
    def _streamed(self, workers):
        from repro import bench
        from repro.runtime.engine import StreamEngine
        from repro.workloads import reports

        work = reports.columns("key_write", 256, 11)
        snaps = []
        with bench.deployment(vectorized=False) as (
                _registry, collector, translator, reporter):
            engine = StreamEngine(collector, translator, reporter,
                                  workers=workers, vectorized=False)
            try:
                engine.start()
                n = len(work["keys"])
                for s in range(0, n, 32):
                    engine.submit(reports.batch("key_write", work,
                                                s, s + 32))
                    if s == n // 2:
                        snaps.append(engine.snapshot())
                engine.drain()
                snaps.append(engine.snapshot())
            finally:
                engine.close()
        return work, collector, engine, snaps

    def test_snapshot_lands_on_batch_boundaries(self):
        work, collector, engine, snaps = self._streamed(workers=2)
        mid, final = snaps
        # Mid-stream: some prefix of bursts, identified by batch_seq.
        assert mid.batch_seq is None or 0 <= mid.batch_seq <= 7
        # After drain every burst has applied; the snapshot is the
        # final store state, bit for bit.
        assert final.batch_seq == engine.executed_seq == 7
        assert final.store_digest() == store_digest(collector)

    def test_serial_engine_snapshot_matches_threaded(self):
        _work, serial_col, _se, serial_snaps = self._streamed(workers=0)
        _work, thread_col, _te, thread_snaps = self._streamed(workers=2)
        assert serial_snaps[-1].store_digest() \
            == thread_snaps[-1].store_digest()
        assert store_digest(serial_col) == store_digest(thread_col)

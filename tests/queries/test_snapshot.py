"""Snapshot isolation: frozen views, digest equality, batch boundaries."""

from __future__ import annotations

import pytest

from repro.core.collector import Collector
from repro.core.primitives import STORES
from repro.core.reporter import Reporter
from repro.core.translator import Translator
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


class TestServerOwnedView:
    """The other half of the snapshot rule: a QueryServer over a stream
    engine keeps one view and refreshes it in place; public snapshots
    stay frozen."""

    def _engine(self, rig):
        from repro.runtime.engine import StreamEngine

        col, tr, rep = rig
        return col, StreamEngine(col, tr, rep, workers=0, vectorized=False)

    def _write(self, engine, tag: bytes) -> None:
        from repro.core.batch import ReportBatch

        engine.submit(ReportBatch.key_writes(
            [FLOW], [tag.ljust(20, b"\0")], redundancy=2))

    def _server(self, engine):
        from repro.queries import QueryServer, keywrite_values

        server = QueryServer(engine)
        server.register("flow", keywrite_values([FLOW], redundancy=2))
        return server

    def test_public_snapshot_keeps_its_digest_through_ingest_and_ticks(
            self, rig):
        _col, engine = self._engine(rig)
        with engine:
            server = self._server(engine)
            self._write(engine, b"one")
            public = engine.snapshot()
            digest = public.store_digest()
            server.tick()
            for tag in (b"two", b"three"):
                self._write(engine, tag)
                server.tick()
            assert public.batch_seq == 0
            assert public.query_value(FLOW).value.startswith(b"one")
            assert public.store_digest() == digest
            # Same bytes re-hashed, not just the memo.
            assert store_digest(public) == digest
            live = engine.snapshot()    # a cut, not a read of the live stores
            assert server.view.store_digest() == store_digest(live) != digest
            # The engine's own snapshot() stays a copy of its own.
            assert server.engine.snapshot() is not server.view

    def test_a_view_held_across_a_tick_is_detected_by_batch_seq(self, rig):
        _col, engine = self._engine(rig)
        with engine:
            server = self._server(engine)
            self._write(engine, b"one")
            first = server.tick()
            held = server.view
            assert held.batch_seq == first.batch_seq == 0
            assert held.query_value(FLOW).value.startswith(b"one")
            self._write(engine, b"two")
            second = server.tick()
            # Same object, new bytes: the provenance the reader kept
            # no longer matches the view it kept.
            assert server.view is held
            assert held.batch_seq == second.batch_seq == 1
            assert held.batch_seq != first.batch_seq
            assert held.query_value(FLOW).value.startswith(b"two")
            # Results are materialised rows; they do not follow the view.
            assert first["flow"].rows[0]["value"].startswith(b"one")

    def test_second_tick_reuses_the_buffers_and_allocates_no_region(
            self, monkeypatch):
        import tracemalloc

        from repro.queries import snapshot as snapshot_module

        # Every region well above what a tick's rows and arrays take.
        col = Collector()
        col.serve_keywrite(slots=1 << 14, data_bytes=20)
        col.serve_postcarding(chunks=1 << 13, value_set=range(256))
        col.serve_append(lists=2, capacity=1 << 13, data_bytes=15,
                         batch_size=1)
        col.serve_keyincrement(slots_per_row=1 << 13, rows=4)
        col.serve_sketch(width=1 << 13, depth=4, expected_reporters=1,
                         batch_columns=64)
        translator = Translator()
        col.connect_translator(translator)
        reporter = Reporter("sw", 1, transmit=translator.handle_report)
        _col, engine = self._engine((col, translator, reporter))
        mapped = []
        real = snapshot_module._resident_buffer
        monkeypatch.setattr(
            snapshot_module, "_resident_buffer",
            lambda length: mapped.append(length) or real(length))
        with engine:
            server = self._server(engine)
            self._write(engine, b"one")
            server.tick()
            view = server.view
            buffers = {attr: getattr(view, attr).region.buf
                       for attr in STORES}
            assert len(mapped) == len(buffers) == 5
            smallest = min(mapped)
            self._write(engine, b"two")
            tracemalloc.start()
            try:
                server.tick()
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(mapped) == 5
            for attr, buf in buffers.items():
                assert getattr(server.view, attr).region.buf is buf
            assert peak < smallest
            assert server.view.query_value(FLOW).value.startswith(b"two")

    def test_refresh_resets_counters_and_the_digest_memo(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        view = snapshot_of(col)
        view.query_value(FLOW)
        stale = view.store_digest()
        rep.key_write(FLOW, b"y" * 20, redundancy=2)
        assert snapshot_of(col, batch_seq=7, into=view) is view
        assert view.batch_seq == 7
        assert view.keywrite.stats.queries == 0
        assert view.store_digest() == store_digest(col) != stale

    def test_refresh_follows_a_store_served_later(self):
        col = Collector()
        col.serve_keywrite(slots=64, data_bytes=8)
        view = snapshot_of(col)
        kept = view.keywrite.region.buf
        assert view.keyincrement is None
        col.serve_keyincrement(slots_per_row=64, rows=2)
        snapshot_of(col, into=view)
        assert view.keywrite.region.buf is kept
        assert view.keyincrement is not None
        assert view.store_digest() == store_digest(col)

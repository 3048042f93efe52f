"""Batched-vs-per-report differential tests.

The batched hot path (ReportBatch -> Reporter.send_batch ->
Translator.process_batch) is an *optimisation*, not a semantic fork:
for the same seeded workload it must leave the collector stores
byte-identical and the obs registry snapshot identical to driving each
report through the per-report path.  These tests pin that equivalence
for every batched primitive at batch sizes 1, 7, and 64 (1 exercises
the degenerate batch, 7 a size that never divides the workload evenly,
64 the bench harness default).
"""

import struct

import pytest

from repro import obs
from repro.core.batch import ReportBatch
from repro.core.packets import DtaPrimitive
from repro.core.primitives import BY_CODE
from repro.fabric.link import Link
from repro.fabric.simulator import Simulator
from repro.runtime import store_digest
from tests import conformance

REPORTS = 320
BATCH_SIZES = [1, 7, 64]
ROWS = ("key_write", "key_increment", "postcarding", "append")


class TestBatchDifferential:
    """Same workload, batched vs per-report: identical observable state
    (the conformance rig's ``batched`` and ``per_report`` lanes)."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return {row: conformance.run(
                    "per_report", conformance.stream(row, reports=REPORTS))
                for row in ROWS}

    @staticmethod
    def _batched(batch_size):
        return {row: conformance.run(
                    "batched", conformance.stream(row, reports=REPORTS,
                                                  batch=batch_size))
                for row in ROWS}

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_store_bytes_identical(self, baseline, batch_size):
        for row, got in self._batched(batch_size).items():
            assert got["store"] == baseline[row]["store"], \
                f"{row} store diverged at batch size {batch_size}"

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_obs_snapshot_identical(self, baseline, batch_size):
        for row, got in self._batched(batch_size).items():
            assert got["shared"] == baseline[row]["shared"], row


def _serve_append(batch_size: int):
    return lambda collector: collector.serve_append(
        lists=1, capacity=64, data_bytes=4, batch_size=batch_size)


class TestBatchSemantics:
    def test_append_partial_batch_flushes_like_per_report(self):
        # 5 appends against batch_size=8: nothing commits until the
        # explicit flush, exactly as on the per-report path.
        with conformance.deploy(serve=_serve_append(8)) as (
                _registry, _collector, translator, reporter):
            reporter.send_batch(ReportBatch.appends(
                [0] * 5, [struct.pack(">I", i) for i in range(5)]))
            assert translator.append_head(0) == 0
            translator.flush_appends()
            assert translator.append_head(0) == 5

    def test_batched_postcarding_evicts_like_per_report(self):
        # Two flows through a single-slot-per-key workload with full
        # paths: completed paths must emit whether driven one report at
        # a time or as one batch.
        def drive(batched):
            with conformance.deploy(
                    serve=lambda collector: collector.serve_postcarding(
                        chunks=1 << 6, value_set=range(16), hops=3)) as (
                    _registry, collector, translator, reporter):
                keys = [struct.pack(">I", f) for f in (1, 2)
                        for _ in range(3)]
                hops = [0, 1, 2, 0, 1, 2]
                values = [3, 4, 5, 6, 7, 8]
                if batched:
                    reporter.send_batch(ReportBatch.postcards(
                        keys, hops, values, path_lengths=[3] * 6,
                        redundancy=1))
                else:
                    for key, hop, value in zip(keys, hops, values):
                        reporter.postcard(key, hop, value, path_length=3,
                                          redundancy=1)
                store = collector.postcarding
                return (translator.stats.rdma_messages,
                        store.region.local_read(0, store.region.length))

        assert drive(batched=True) == drive(batched=False)
        messages, raw = drive(batched=True)
        assert messages > 0 and any(raw)

    def test_invalid_batch_rejected_whole(self):
        # process_batch validates the whole batch before touching any
        # state (documented difference from per-report prefix
        # processing): an unknown list id anywhere rejects everything.
        with conformance.deploy(serve=_serve_append(2)) as (
                _registry, _collector, translator, _reporter):
            batch = ReportBatch.appends(
                [0, 0, 9], [struct.pack(">I", i) for i in range(3)])
            before = translator.stats.reports_in
            with pytest.raises(ValueError):
                translator.process_batch(batch)
            translator.flush_appends()
            assert translator.append_head(0) == 0
            assert translator.stats.reports_in == before


class TestMalformedReportsTouchNothing:
    """A hop the cache has no slot for, or an Append datum wider than
    the list's entries, raises before any counter or state moves —
    batched (the whole batch) and per report (that report)."""

    @staticmethod
    def _serve(collector) -> None:
        collector.serve_postcarding(chunks=1 << 6, value_set=range(16),
                                    hops=5)
        collector.serve_append(lists=2, capacity=64, data_bytes=4,
                               batch_size=16)

    def test_hop_beyond_the_cache(self):
        keys = [struct.pack(">I", 1)] * 3
        with conformance.deploy(serve=self._serve) as (
                _registry, _collector, translator, reporter):
            cache = translator._lanes[DtaPrimitive.POSTCARDING].cache
            with pytest.raises(IndexError):
                translator.process_batch(ReportBatch.postcards(
                    keys, [0, 7, 1], [3, 4, 5], path_lengths=[5] * 3))
            assert translator.stats.reports_in == 0
            assert translator.stats.postcards == 0
            assert cache.stats.postcards == 0 and cache.occupancy == 0

            reporter.postcard(keys[0], 0, 3, path_length=5)
            with pytest.raises(IndexError):
                reporter.postcard(keys[0], 7, 4, path_length=5)
            reporter.postcard(keys[0], 1, 5, path_length=5)
            assert translator.stats.postcards == 2
            assert cache.stats.postcards == 2 and cache.occupancy == 1

    def test_append_datum_wider_than_the_entries(self):
        good = [struct.pack(">I", i) for i in range(40)]
        with conformance.deploy(serve=self._serve) as (
                _registry, collector, translator, reporter):
            with pytest.raises(ValueError, match="too wide"):
                translator.process_batch(ReportBatch.appends(
                    [0] * 3, [good[0], b"12345", good[1]]))
            assert translator.stats.reports_in == 0
            assert translator.stats.appends == 0
            assert not translator._lanes[DtaPrimitive.APPEND].batches.get(0)

            reporter.append(0, good[0])
            with pytest.raises(ValueError, match="too wide"):
                reporter.append(0, b"12345")
            # The list is not poisoned: it fills, flushes and drains.
            for data in good[1:]:
                reporter.append(0, data)
            translator.flush_appends()
            assert translator.append_head(0) == 40
            assert collector.append.poller(0).poll() == good

    @staticmethod
    def _serve_every(collector) -> None:
        collector.serve_keywrite(slots=64, data_bytes=4)
        collector.serve_postcarding(chunks=64, value_set=range(16), hops=5)
        collector.serve_append(lists=2, capacity=64, data_bytes=4)
        collector.serve_sketch(width=16, depth=4, expected_reporters=1)

    # Every lane's ``check``: eight reports, the third of which the
    # provisioned service cannot hold.
    _REJECTED = {
        "key_write wide data": (ValueError, lambda: ReportBatch.key_writes(
            [b"k%d" % i for i in range(8)],
            [b"1234", b"1234", b"12345"] + [b"12"] * 5)),
        "postcarding redundancy beyond the chunk lanes": (
            ValueError, lambda: ReportBatch.postcards(
                [b"flow"] * 8, [i % 5 for i in range(8)], [1] * 8,
                redundancy=9)),
        "append list not provisioned": (
            ValueError, lambda: ReportBatch.appends(
                [0, 1, 2] + [0] * 5, [b"abcd"] * 8)),
        "sketch_merge foreign sketch id": (
            ValueError, lambda: ReportBatch.sketch_columns(
                9, list(range(8)), [(1, 2, 3, 4)] * 8)),
        "sketch_merge wrong depth": (
            ValueError, lambda: ReportBatch.sketch_columns(
                0, list(range(8)),
                [(1, 2, 3, 4)] * 2 + [(1, 2, 3)] + [(1, 2, 3, 4)] * 5)),
        "sketch_merge column out of range": (
            ValueError, lambda: ReportBatch.sketch_columns(
                0, [0, 1, 64] + list(range(2, 7)), [(1, 2, 3, 4)] * 8)),
    }

    @pytest.mark.parametrize("case", _REJECTED)
    @pytest.mark.parametrize("vectorized", [False, True],
                             ids=["scalar", "vectorized"])
    def test_every_check_rejects_before_anything_moves(self, case,
                                                       vectorized):
        error, build = self._REJECTED[case]
        with conformance.deploy(vectorized=vectorized,
                                serve=self._serve_every) as (
                _registry, collector, translator, _reporter):
            batch = build()

            def state():
                lanes = translator._lanes
                return (translator.stats.as_dict(), store_digest(collector),
                        lanes[DtaPrimitive.POSTCARDING].cache.occupancy,
                        dict(lanes[DtaPrimitive.APPEND].batches),
                        lanes[DtaPrimitive.SKETCH_MERGE].columns,
                        dict(lanes[DtaPrimitive.SKETCH_MERGE].next_column))

            before = state()
            assert translator.plan_batch(batch) is None      # declines
            with pytest.raises(error):
                translator.process_batch(batch)              # scalar raises
            spec = BY_CODE[batch.primitive]
            assert isinstance(translator.check(
                batch.primitive, spec.columns_of(batch), spec.extra_of(batch)),
                error)
            assert state() == before
            # Report by report, only the offending ones raise.
            raised = 0
            for raw in batch.iter_raw():
                try:
                    translator.handle_report(raw)
                except error:
                    raised += 1
            assert 1 <= raised
            assert translator.stats.reports_in == len(batch) - raised


class TestLinkBatchDeterminism:
    def test_send_batch_matches_send_sequence(self):
        # Same seed, same packets: identical delivery set, identical
        # loss decisions (the per-packet RNG draw order is preserved),
        # identical counters.
        def drive(batched):
            registry = obs.Registry()
            previous = obs.set_registry(registry)
            try:
                sim = Simulator()
                got = []
                link = Link(sim, got.append, loss=0.3, queue_packets=8,
                            seed=42, name="diff-link")
                items = [(i, 100 + i) for i in range(64)]
                if batched:
                    link.send_batch(items)
                else:
                    for packet, size in items:
                        link.send(packet, size)
                sim.run()
                stats = link.stats
                return (got, stats.sent, stats.delivered,
                        stats.random_drops, stats.queue_drops,
                        stats.bytes_sent)
            finally:
                obs.set_registry(previous)

        assert drive(batched=True) == drive(batched=False)

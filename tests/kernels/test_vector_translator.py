"""Vectorized translator lanes change speed, not state.

For each vector lane (Key-Write, Key-Increment, Sketch-Merge) a
``Translator(vectorized=True)`` must produce byte-identical store
regions and an identical obs snapshot (counters, histograms, and the
float NIC busy clock) to the scalar batched path; ineligible batches
must fall back to the scalar lane with the same end state.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro.core.batch import ReportBatch
from tests import conformance


def _digests(vectorized: bool, drive) -> tuple:
    """``drive(reporter, translator)`` on a rig deployment with a
    256-column sketch; returns (store digest, obs digest)."""
    got, _refs = conformance.direct(
        lambda translator, reporter: drive(reporter, translator),
        vectorized=vectorized, sketch_width=256)
    return got["store"], got["obs"]


def assert_modes_identical(drive) -> None:
    assert _digests(False, drive) == _digests(True, drive)


class TestVectorLanesBitExact:
    def test_keywrite(self):
        rng = random.Random(1)
        keys = [rng.randbytes(rng.randint(1, 32)) for _ in range(300)]
        datas = [rng.randbytes(rng.randint(0, 16)) for _ in range(300)]

        def drive(reporter, translator):
            for s in range(0, len(keys), 64):
                reporter.send_batch(ReportBatch.key_writes(
                    keys[s:s + 64], datas[s:s + 64], redundancy=2))

        assert_modes_identical(drive)

    def test_keyincrement_with_negative_values(self):
        rng = random.Random(2)
        keys = [rng.randbytes(rng.randint(1, 32)) for _ in range(300)]
        values = [rng.choice([1, 7, -3, 10**6, -(10**12)])
                  for _ in range(300)]

        def drive(reporter, translator):
            for s in range(0, len(keys), 64):
                reporter.send_batch(ReportBatch.key_increments(
                    keys[s:s + 64], values[s:s + 64], redundancy=2))

        assert_modes_identical(drive)

    def test_sketch_merge(self):
        rng = random.Random(3)
        columns = list(range(256))
        rows = [tuple(rng.getrandbits(31) for _ in range(4))
                for _ in range(256)]

        def drive(reporter, translator):
            for s in range(0, 256, 64):
                reporter.send_batch(ReportBatch.sketch_columns(
                    0, columns[s:s + 64], rows[s:s + 64]))

        assert_modes_identical(drive)

    def test_sketch_batched_matches_per_report(self):
        rng = random.Random(4)
        columns = list(range(256))
        rows = [tuple(rng.getrandbits(31) for _ in range(4))
                for _ in range(256)]

        def per_report(reporter, translator):
            for column, counters in zip(columns, rows):
                reporter.sketch_column(0, column, counters)

        def batched(reporter, translator):
            for s in range(0, 256, 64):
                reporter.send_batch(ReportBatch.sketch_columns(
                    0, columns[s:s + 64], rows[s:s + 64]))

        assert _digests(False, per_report) == _digests(True, batched)

    def test_mixed_batch_sizes_and_remainders(self):
        rng = random.Random(5)
        keys = [rng.randbytes(8) for _ in range(131)]
        datas = [rng.randbytes(12) for _ in range(131)]

        def drive(reporter, translator):
            cursor = 0
            for size in (1, 2, 3, 5, 120):
                reporter.send_batch(ReportBatch.key_writes(
                    keys[cursor:cursor + size], datas[cursor:cursor + size],
                    redundancy=3))
                cursor += size

        assert_modes_identical(drive)


class TestFallbackEligibility:
    def test_out_of_order_sketch_columns_fall_back(self):
        rng = random.Random(6)
        rows = [tuple(rng.getrandbits(31) for _ in range(4))
                for _ in range(8)]
        shuffled = [3, 0, 1, 2, 4, 5, 7, 6]

        def drive(reporter, translator):
            reporter.send_batch(ReportBatch.sketch_columns(
                0, shuffled, rows))

        # Out-of-order columns NACK on both paths, identically.
        assert_modes_identical(drive)

    def test_vector_lane_actually_runs(self):
        with conformance.deploy(vectorized=True) as (
                _registry, _collector, translator, reporter):
            hits = []
            original = translator.plan_batch

            def plan_batch(batch, *args, **kwargs):
                plan = original(batch, *args, **kwargs)
                if plan is not None:
                    hits.append(plan)
                return plan

            translator.plan_batch = plan_batch
            rng = random.Random(7)
            keys = [rng.randbytes(8) for _ in range(64)]
            datas = [rng.randbytes(8) for _ in range(64)]
            reporter.send_batch(ReportBatch.key_writes(keys, datas,
                                                       redundancy=2))
            # Tiny batches stay on the scalar lane.
            reporter.send_batch(ReportBatch.key_writes(keys[:2], datas[:2],
                                                       redundancy=2))
        assert len(hits) == 1

    def test_scalar_translator_never_calls_kernels(self):
        with conformance.deploy(vectorized=False) as (
                _registry, _collector, translator, reporter):
            assert translator.vectorized is False
            rng = random.Random(8)
            keys = [rng.randbytes(8) for _ in range(64)]
            datas = [rng.randbytes(8) for _ in range(64)]
            called = []
            original = translator.plan_batch
            translator.plan_batch = \
                lambda batch, *a, **kw: called.append(
                    original(batch, *a, **kw)) or called[-1]
            reporter.send_batch(ReportBatch.key_writes(keys, datas,
                                                       redundancy=2))
        assert called == [None]

"""Rotation invariants, hypothesis-driven.

The defining property of the retention tier: rotation only moves
epoch *labels*, never the data a retained epoch can see.  For every
store, *rotate-then-query-by-epoch* equals *query-then-filter-by-
epoch*; expiry zeroes exactly the cells whose generation fell out of
the window; recycled Key-Write slots never resurrect a stale
generation; and the sketch merge-down aggregate is exactly the
elementwise sum of the expired per-epoch deltas (so CMS error bounds
survive compaction).  Each property reads the epoch labels through
:class:`~repro.retention.epochs.EpochManager`'s own accessors
(``cell_epoch``, ``segments``, ``epoch_delta``, ``merged_counters``)
and the data through the stores.
"""

from __future__ import annotations

import contextlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import ReportBatch
from repro.core.stores.append import entry_data
from repro.core.stores.sketchstore import point_estimates
from repro.retention.epochs import EpochManager, RetentionPolicy
from repro.retention.manager import RetentionManager
from repro.runtime.engine import StreamEngine
from repro.switch.crc import hash_family
from tests import conformance


def _pack(value: int) -> bytes:
    return struct.pack("<Q", value)


def _key_epoch(em, layout, key: bytes, redundancy: int = 2) -> int:
    """Newest generation among a key's candidate Key-Write slots."""
    return max(em.cell_epoch("keywrite", layout.slot_index(i, key))
               for i in range(redundancy))


def _epoch_entries(em, store, list_id: int, epoch: int) -> list:
    """``(position, data)`` of what one Append list sealed in ``epoch``
    and still holds (a later lap or expiry skips a position)."""
    out = []
    for held, start, end in em.segments(list_id):
        if held == epoch:
            positions, entries = store.published_in(list_id, start, end)
            out += zip(positions.tolist(), entry_data(entries))
    return out


def _estimates(counters, layout, keys) -> list:
    """CMS point estimates over one counter vector in region order."""
    return point_estimates(
        np.array(counters, dtype=np.int64).reshape(layout.width,
                                                   layout.depth),
        keys, layout.depth)


@contextlib.contextmanager
def _deployment(serve, window: int = 8):
    """A rig deployment serving what ``serve`` provisions, its reporter
    sending report by report, and an epoch manager over it."""
    with conformance.deploy(serve=serve) as (_registry, col, tr, rep):
        rep.transmit_batch = None
        yield col, tr, rep, EpochManager(
            col, policy=RetentionPolicy(window=window))


# ---------------------------------------------------------------------------
# Key-Write: rotate-then-query == query-then-filter, through the engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_keywrite_rotate_then_query_equals_query_then_filter(batch_size):
    """Epoch-scoped Key-Write reads match post-hoc filtering, at every
    burst granularity the engine can apply."""
    with conformance.deploy(serve=lambda col: col.serve_keywrite(
            slots=1 << 14, data_bytes=8)) as (_registry, col, tr, rep):
        per_epoch = 24
        batches_per_epoch = -(-per_epoch // batch_size)
        manager = RetentionManager(
            col, policy=RetentionPolicy(window=8,
                                        rotate_every=batches_per_epoch),
            translator=tr)
        engine = StreamEngine(col, tr, rep, workers=0, retention=manager)

        epochs: dict[int, list] = {}
        last_writer: dict[int, int] = {}       # slot -> last epoch written
        layout = col.keywrite.layout
        with engine:
            for epoch in range(1, 5):
                keys = [f"e{epoch}k{i}".encode()
                        for i in range(per_epoch)]
                datas = [_pack(epoch * 1000 + i)
                         for i in range(per_epoch)]
                for start in range(0, len(keys), batch_size):
                    engine.submit(ReportBatch.key_writes(
                        keys[start:start + batch_size],
                        datas[start:start + batch_size], redundancy=2))
                epochs[epoch] = list(zip(keys, datas))
                for key in keys:
                    for i in range(2):
                        last_writer[layout.slot_index(i, key)] = epoch
            engine.drain()
            # The seq hook sealed epochs 1-3 at batch boundaries; seal the
            # final epoch explicitly, like any quiesced shutdown would.
            with engine.store_lock:
                manager.rotate(age_cache=False)
            snap = engine.snapshot()

        em = manager.epochs
        for epoch, pairs in epochs.items():
            for key, data in pairs:
                # The label is the newest generation among the key's
                # candidate slots — reproduce it from the write schedule.
                expected = max(last_writer[layout.slot_index(i, key)]
                               for i in range(2))
                assert _key_epoch(em, layout, key) == expected
                result = snap.query_value(key, redundancy=2)
                assert result.found and result.value == data


# ---------------------------------------------------------------------------
# Key-Write: recycled slots never resurrect an expired generation
# ---------------------------------------------------------------------------


@settings(max_examples=20)
@given(data=st.data())
def test_expired_generations_never_resurrect(data):
    keys_e1 = data.draw(st.lists(st.binary(min_size=1, max_size=12),
                                 unique=True, min_size=1, max_size=16))
    keys_e2 = data.draw(st.lists(st.binary(min_size=1, max_size=12),
                                 unique=True, min_size=0, max_size=16))
    with _deployment(lambda col: col.serve_keywrite(
            slots=1 << 14, data_bytes=8), window=1) as (
            col, _tr, rep, em):

        for i, key in enumerate(keys_e1):
            rep.key_write(key, _pack(1000 + i), redundancy=2)
        em.rotate()                             # seal epoch 1
        for i, key in enumerate(keys_e2):
            rep.key_write(key, _pack(2000 + i), redundancy=2)
        em.rotate()                             # seal epoch 2, expire 1

        assert 1 not in em.retained_epochs()
        rewritten = set(keys_e2)
        for i, key in enumerate(keys_e1):
            result = col.keywrite.query(key, redundancy=2)
            if key in rewritten:
                assert result.found
                assert result.value == _pack(2000 + keys_e2.index(key))
            else:
                # The slot was zeroed (or recycled by an epoch-2 key whose
                # checksum cannot vouch for this key): never the old bytes.
                assert not result.found
        for i, key in enumerate(keys_e2):
            result = col.keywrite.query(key, redundancy=2)
            assert result.found and result.value == _pack(2000 + i)


# ---------------------------------------------------------------------------
# Append: sealed segments replay an epoch exactly; expiry scrubs it
# ---------------------------------------------------------------------------


def _serve_append(capacity: int):
    return lambda col: col.serve_append(lists=2, capacity=capacity,
                                        data_bytes=8, batch_size=4)


@pytest.mark.parametrize("capacity,per_epoch", [(64, 8), (8, 6)])
def test_append_epoch_rows_match_write_schedule(capacity, per_epoch):
    """Per-epoch Append reads return exactly that epoch's entries —
    minus any a later lap already overwrote when the ring wraps."""
    with _deployment(_serve_append(capacity)) as (col, tr, rep, em):
        written: dict[int, list] = {}
        position = 0
        schedule: list = []                      # (position, epoch, data)
        for epoch in range(1, 4):
            entries = [_pack((epoch << 16) | i) for i in range(per_epoch)]
            rep.send_batch(ReportBatch.appends([0] * per_epoch, entries))
            tr.flush_appends()
            written[epoch] = entries
            for entry in entries:
                schedule.append((position, epoch, entry))
                position += 1
            em.rotate()

        total = position
        for epoch in range(1, 4):
            survivors = [(pos, entry) for pos, held, entry in schedule
                         if held == epoch and pos >= total - capacity]
            assert _epoch_entries(em, col.append, 0, epoch) == survivors

        # The sealed segments count entry *slots*; only without ring wrap
        # does every sealed slot still hold its epoch's entry.
        if capacity >= total:
            for epoch in em.retained_epochs()[:-1]:
                sealed = sum(end - start
                             for held, start, end in em.segments(0)
                             if held == epoch)
                assert sealed == len(
                    _epoch_entries(em, col.append, 0, epoch))


def test_append_expiry_scrubs_sealed_segments():
    with _deployment(_serve_append(64), window=1) as (
            col, tr, rep, em):
        for epoch in (1, 2, 3):
            entries = [_pack((epoch << 16) | i) for i in range(6)]
            rep.send_batch(ReportBatch.appends([0] * 6, entries))
            tr.flush_appends()
            em.rotate()
        # window=1: epochs 1 and 2 fell out; their entries are scrubbed.
        for epoch in (1, 2):
            assert _epoch_entries(em, col.append, 0, epoch) == []
        rows = _epoch_entries(em, col.append, 0, 3)
        assert [data for _position, data in rows] == \
            [_pack((3 << 16) | i) for i in range(6)]


# ---------------------------------------------------------------------------
# Sketch: per-epoch deltas slice exactly; merge-down preserves bounds
# ---------------------------------------------------------------------------

WIDTH, DEPTH = 32, 4


def _cms_add(matrix: list, key: bytes, count: int, hashes) -> None:
    column_of = hashes[0](key) % WIDTH
    for r, h in enumerate(hashes):
        matrix[(h(key) % WIDTH) * DEPTH + r] += count
    del column_of


def _send_columns(rep, matrix: list) -> None:
    columns = list(range(WIDTH))
    rows = [tuple(matrix[c * DEPTH + r] for r in range(DEPTH))
            for c in columns]
    rep.send_batch(ReportBatch.sketch_columns(0, columns, rows))


@settings(max_examples=15)
@given(data=st.data())
def test_sketch_epoch_deltas_slice_exactly_and_merge_down(data):
    """Each epoch's delta is exactly the CMS of that epoch's
    increments; the merge-down aggregate is the elementwise sum of the
    expired deltas — so every slice keeps the standalone CMS guarantee
    (estimate >= true count)."""
    n_epochs = data.draw(st.integers(min_value=2, max_value=4))
    window = 1
    per_epoch = [
        data.draw(st.lists(
            st.tuples(st.binary(min_size=1, max_size=8),
                      st.integers(min_value=1, max_value=50)),
            min_size=0, max_size=8))
        for _ in range(n_epochs)]

    with _deployment(lambda col: col.serve_sketch(
            width=WIDTH, depth=DEPTH, expected_reporters=1,
            batch_columns=8), window=window) as (col, tr, rep, em):
        hashes = hash_family(DEPTH)
        expected_delta: dict[int, list] = {}
        true_counts: dict[int, dict] = {}
        for epoch, increments in enumerate(per_epoch, start=1):
            # DTA sketch epochs: a fresh per-epoch sketch, re-streamed as
            # a full in-order column sweep (Section 3.2).
            matrix = [0] * (WIDTH * DEPTH)
            counts: dict = {}
            for key, count in increments:
                _cms_add(matrix, key, count, hashes)
                counts[key] = counts.get(key, 0) + count
            _send_columns(rep, matrix)
            expected_delta[epoch] = matrix
            true_counts[epoch] = counts
            em.rotate()
            tr.reset_sketch_epoch()

        cutoff = em.current_epoch - 1 - window   # last sealed - window
        expired = [e for e in expected_delta if e <= cutoff]
        retained = [e for e in expected_delta if e > cutoff]

        layout = col.sketch.layout
        for epoch in retained:
            delta = em.epoch_delta("sketch", epoch) or \
                (0,) * (WIDTH * DEPTH)
            assert list(delta) == expected_delta[epoch]
            keys = sorted(true_counts[epoch])
            for key, estimate in zip(keys, _estimates(delta, layout, keys)):
                assert estimate >= true_counts[epoch][key]  # CMS bound
                assert estimate <= sum(true_counts[epoch].values())

        merged = list(em.merged_counters("sketch"))
        summed = [0] * (WIDTH * DEPTH)
        for epoch in expired:
            for i, value in enumerate(expected_delta[epoch]):
                summed[i] += value
        assert merged == summed

        expired_true: dict = {}
        for epoch in expired:
            for key, count in true_counts[epoch].items():
                expired_true[key] = expired_true.get(key, 0) + count
        keys = sorted(expired_true)
        for key, estimate in zip(keys, _estimates(merged, layout, keys)):
            assert estimate >= expired_true[key]
            assert estimate <= sum(expired_true.values())


# ---------------------------------------------------------------------------
# Key-Increment: the same delta bookkeeping, audited by region snapshots
# ---------------------------------------------------------------------------


def test_keyincrement_deltas_account_for_every_increment():
    """Tracker bookkeeping closes: retained deltas + merged aggregate +
    the unsealed tail equal everything ever written, and expiry decays
    the live region by exactly the merged amount."""
    with _deployment(lambda col: col.serve_keyincrement(
            slots_per_row=128, rows=4), window=1) as (
            col, _tr, rep, em):

        count = len(col.keyincrement.region.buf) // 8

        def counters() -> list:
            return list(struct.unpack(f"<{count}Q",
                                      bytes(col.keyincrement.region.buf)))

        snapshots = {0: counters()}
        totals_written = [0] * count
        for epoch in (1, 2, 3):
            before = counters()
            batch_keys = [f"e{epoch}k{i}".encode() for i in range(12)]
            rep.send_batch(ReportBatch.key_increments(
                batch_keys, [epoch * 10 + i for i in range(12)],
                redundancy=2))
            after = counters()
            for i in range(count):
                totals_written[i] += after[i] - before[i]
            em.rotate()
            snapshots[epoch] = counters()

        merged = list(em.merged_counters("keyincrement"))
        live = counters()
        retained_sum = [0] * count
        for epoch in em.retained_epochs():
            delta = em.epoch_delta("keyincrement", epoch)
            if delta:
                for i, value in enumerate(delta):
                    retained_sum[i] += value
        for i in range(count):
            assert merged[i] + retained_sum[i] + \
                (live[i] + merged[i] - snapshots[3][i]) >= merged[i]
        # Expiry decayed the live region by exactly the merged aggregate.
        assert [live[i] + merged[i] for i in range(count)] == \
            [snapshots[0][i] + totals_written[i] for i in range(count)]
        # And the retained deltas + merged cover every written increment.
        assert [merged[i] + retained_sum[i] for i in range(count)] == \
            totals_written

"""RetentionManager under the streaming engine.

The PR 6 snapshot rule, extended: rotation and checkpointing land only
on batch boundaries under ``store_lock``, the engine hook is
worker-count independent (same batch seqs -> same rotation points ->
identical store *and* pipeline digests), and ``engine.checkpoint``
records the executed batch seq it snapshotted at.
"""

from __future__ import annotations

import contextlib
import struct

import numpy as np
import pytest

from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.packets import DtaPrimitive
from repro.retention.checkpoint import CheckpointError, write_checkpoint
from repro.retention.epochs import RetentionPolicy
from repro.retention.manager import RetentionManager
from repro.runtime.engine import StreamEngine, store_digest
from tests import conformance


@contextlib.contextmanager
def _deploy(workers: int, rotate_every: int | None = 4,
            window: int = 2):
    with conformance.deploy(serve=lambda col: col.serve_keywrite(
            slots=4096, data_bytes=8)) as (_registry, col, tr, rep):
        manager = RetentionManager(
            col, policy=RetentionPolicy(window=window,
                                        rotate_every=rotate_every),
            translator=tr)
        yield col, manager, StreamEngine(col, tr, rep, workers=workers,
                                         retention=manager)


def _drive(engine, batches: int = 16, per_batch: int = 8) -> None:
    with engine:
        for seq in range(batches):
            keys = [f"b{seq}k{i}".encode() for i in range(per_batch)]
            datas = [struct.pack("<Q", (seq << 16) | i)
                     for i in range(per_batch)]
            engine.submit(ReportBatch.key_writes(keys, datas,
                                                 redundancy=2))
        engine.drain()


def test_engine_hook_rotates_on_batch_cadence():
    with _deploy(workers=0, rotate_every=4) as (col, manager, engine):
        _drive(engine, batches=16)
        # Boundaries at seqs 4, 8, 12 -> three engine-driven rotations.
        assert manager.epochs.rotations == 3
        assert manager.current_epoch == 4
        assert manager.stats.rotations == 3
        # Every rotation sealed exactly the 4 batches since the last one.
        for report in manager.epochs.reports:
            assert report.changed["keywrite"] > 0


@pytest.mark.parametrize("workers", (2,))
def test_rotation_is_worker_count_independent(workers):
    with _deploy(workers=0) as (col0, manager0, engine0):
        _drive(engine0)
        with _deploy(workers=workers) as (colN, managerN, engineN):
            _drive(engineN)
            assert store_digest(colN) == store_digest(col0)
            assert managerN.epochs.rotations == manager0.epochs.rotations
            assert np.array_equal(
                managerN.epochs.trackers["keywrite"].gens,
                manager0.epochs.trackers["keywrite"].gens)


def test_manual_rotation_left_manual_without_cadence():
    with _deploy(workers=0, rotate_every=None) as (col, manager, engine):
        _drive(engine)
        assert manager.epochs.rotations == 0


def test_expiry_bounds_live_cells_under_cadence():
    with _deploy(workers=0, rotate_every=2, window=1) as (
            _col, manager, engine):
        _drive(engine, batches=20)
        reports = manager.epochs.reports
        changed = [r.changed["keywrite"] for r in reports]
        live = [r.live["keywrite"] for r in reports]
        # Steady state: live cells never exceed two epochs' worth.
        for report_live in live[2:]:
            assert report_live <= 2 * max(changed)
        assert manager.stats.cells_expired > 0


def test_engine_checkpoint_lands_on_the_executed_boundary(tmp_path):
    with _deploy(workers=0, rotate_every=4) as (col, manager, engine):
        path = str(tmp_path / "ckpt")
        with engine:
            for seq in range(8):
                engine.submit(ReportBatch.key_writes(
                    [f"b{seq}".encode()], [struct.pack("<Q", seq)],
                    redundancy=2))
            engine.drain()
            engine.checkpoint(path)
        digest = store_digest(col)

        twin = Collector()
        twin.serve_keywrite(slots=4096, data_bytes=8)
        twin_manager = RetentionManager(
            twin, policy=RetentionPolicy(window=2, rotate_every=4))
        report = twin_manager.restore(path)
        assert store_digest(twin) == digest
        assert report.batch_seq == 7            # last executed batch seq
        assert twin_manager.current_epoch == manager.current_epoch


def test_manager_restore_refuses_a_checkpoint_without_epoch_state(
        tmp_path):
    # Restored under the manager's own baselines, a region written
    # before the last rotation reads as a huge negative delta: the
    # next rotation would decay the counter below zero (mod 2**64).
    with conformance.deploy(serve=lambda col: col.serve_keyincrement(
            slots_per_row=256, rows=2)) as (_registry, col, tr, rep):
        manager = RetentionManager(col, translator=tr)
        rep.key_increment(b"k", 5, redundancy=2)
        path = str(tmp_path / "plain")
        write_checkpoint(col, path)                 # regions only
        rep.key_increment(b"k", 10, redundancy=2)
        manager.rotate()
        before = store_digest(col), manager.epochs.export_state()

        with pytest.raises(CheckpointError):
            manager.restore(path)
        assert (store_digest(col), manager.epochs.export_state()) == before
        assert manager.stats.restores_rejected == 1
        manager.rotate()
        assert col.query_counter(b"k", redundancy=2) == 15


def test_engine_checkpoint_requires_a_retention_manager(tmp_path):
    with conformance.deploy(serve=lambda col: col.serve_keywrite(
            slots=256, data_bytes=8)) as (_registry, col, tr, rep):
        engine = StreamEngine(col, tr, rep, workers=0)
        with engine:
            engine.drain()
            with pytest.raises(RuntimeError):
                engine.checkpoint(str(tmp_path / "ckpt"))


def test_quiesced_rotation_ages_stale_postcard_cache_rows():
    with conformance.deploy(serve=lambda col: col.serve_postcarding(
            chunks=1024, value_set=range(256), cache_slots=64)) as (
                _registry, col, tr, rep):
        manager = RetentionManager(col, policy=RetentionPolicy(window=4),
                                   translator=tr)
        # A flow that reports one hop of a longer path, then goes silent.
        rep.postcard(b"stale-flow", 0, 7, path_length=4)
        cache = tr._lanes[DtaPrimitive.POSTCARDING].cache
        assert cache.occupancy == 1
        manager.rotate()                        # first sighting: still fresh
        assert cache.occupancy == 1
        aged = manager.rotate()                 # resident two rotations: aged
        assert cache.occupancy == 0
        assert manager.stats.cache_rows_aged == 1
        del aged
        # The partial chunk landed via the translator's chunk-write path.
        assert col.postcarding.query(b"stale-flow") is not None

"""Shared-memory rings and the ``executor="process"`` lane.

Three layers, mirroring the contract in ``docs/CONCURRENCY.md``:

* :class:`ShmCreditQueue` preserves ``CreditQueue`` semantics exactly —
  bounded credits, FIFO, close -> drain -> ``CLOSED``, abort poisons
  both ends — and its payloads round-trip as zero-copy views.
* The process lane is digest-identical to the ``workers=0`` serial
  reference (store bytes + obs sha256) across worker counts, and a
  worker killed mid-stream surfaces as a first-wins ``StageError``
  with a clean unwind.
* Lifecycle: engine/pool shutdown unlinks every shared segment — no
  leaked ``/dev/shm`` entries, re-attach by name must fail.
"""

from __future__ import annotations

import multiprocessing.shared_memory as shared_memory
import threading
import time

import pytest

from repro import bench, obs
from repro.runtime import (
    CLOSED,
    QueueAborted,
    QueueClosed,
    StageError,
    StreamEngine,
    run_lane,
)
from repro.workloads import reports

REPORTS = 480
BATCH = 32
SEED = 11


def _queue(capacity=4, payload=4096, name="t"):
    from repro.runtime.shm import ShmCreditQueue

    return ShmCreditQueue(capacity, payload, name=name)


# ----------------------------------------------------------------------
# ShmCreditQueue semantics
# ----------------------------------------------------------------------


class TestShmCreditQueue:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            _queue(capacity=0)

    def test_fifo_zero_copy_roundtrip(self):
        import numpy as np

        q = _queue()
        try:
            for i in range(3):
                q.put(7, [np.arange(i + 1, dtype="<i8"), b"tail%d" % i])
            for i in range(3):
                msg = q.get()
                assert msg.kind == 7
                assert list(msg.segments[0].view("<i8")) == list(range(i + 1))
                assert bytes(msg.segments[1]) == b"tail%d" % i
                msg.release()
        finally:
            q.unlink()

    def test_credits_bound_occupancy(self):
        q = _queue(capacity=2)
        try:
            q.put(1, [b"a"])
            q.put(1, [b"b"])
            blocked = threading.Event()

            def overfill():
                blocked.set()
                q.put(1, [b"c"])

            thread = threading.Thread(target=overfill, daemon=True)
            thread.start()
            blocked.wait(1.0)
            time.sleep(0.05)
            assert thread.is_alive()          # third put has no credit
            q.get().release()                 # hand one credit back
            thread.join(2.0)
            assert not thread.is_alive()
            assert q.high_watermark == 2
        finally:
            q.abort()
            q.unlink()

    def test_close_drains_then_closed_sentinel(self):
        q = _queue()
        try:
            q.put(1, [b"payload"])
            q.close()
            msg = q.get()
            assert bytes(msg.segments[0]) == b"payload"
            msg.release()
            assert q.get() is CLOSED
            assert q.get() is CLOSED          # every later get too
        finally:
            q.unlink()

    def test_put_after_close_raises(self):
        q = _queue()
        try:
            q.close()
            with pytest.raises(QueueClosed):
                q.put(1, [b"late"])
        finally:
            q.unlink()

    def test_abort_poisons_both_ends(self):
        q = _queue()
        try:
            q.put(1, [b"pending"])
            q.abort()
            with pytest.raises(QueueAborted):
                q.get()
            with pytest.raises(QueueAborted):
                q.put(1, [b"more"])
        finally:
            q.unlink()

    def test_oversize_message_rejected_before_ring(self):
        q = _queue(payload=64)
        try:
            with pytest.raises(ValueError, match="exceeds slot payload"):
                q.put(1, [b"x" * 128])
            assert len(q) == 0
        finally:
            q.unlink()

    def test_unlink_destroys_segment(self):
        q = _queue()
        segment = q._shm.name
        q.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)
        q.unlink()                            # idempotent


# ----------------------------------------------------------------------
# Process-lane differentials
# ----------------------------------------------------------------------


def _sketch_width(primitive: str) -> int:
    return REPORTS if primitive == "sketch_merge" else 0


@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_process_lane_matches_serial_across_workers(primitive):
    """Store bytes + obs digests at workers 1/2 equal workers=0."""
    work = reports.columns(primitive, REPORTS, SEED)
    serial = run_lane(primitive, work, workers=0, vectorized=False,
                      batch_size=BATCH,
                      sketch_width=_sketch_width(primitive))
    reference = (serial["obs_digest"], serial["store_digest"])
    for workers in (1, 2):
        lane = run_lane(primitive, work, workers=workers,
                        executor="process", vectorized=True,
                        batch_size=BATCH,
                        sketch_width=_sketch_width(primitive))
        assert lane["zero_loss"], (primitive, workers, lane["drops"])
        assert (lane["obs_digest"], lane["store_digest"]) == reference, (
            primitive, workers)


def test_process_lane_exposes_ring_metrics():
    """Plan rings surface under ``runtime.*`` (digest-excluded)."""
    work = reports.columns("key_increment", REPORTS, SEED)
    with bench.deployment(vectorized=False) as (
            registry, collector, translator, reporter):
        engine = StreamEngine(collector, translator, reporter, workers=2,
                              executor="process", vectorized=True,
                              name="ringmetrics")
        try:
            engine.start()
            engine.submit(reports.batch("key_increment", work, 0, BATCH))
            engine.drain()
            snapshot = registry.snapshot()
        finally:
            engine.close()
    names = {name for name, _labels in snapshot.samples}
    assert "runtime.plan_worker_planned" in names
    assert "runtime.queue_depth" in names
    planned = sum(value for (name, _labels), value
                  in snapshot.samples.items()
                  if name == "runtime.plan_worker_planned")
    assert planned == 1


# ----------------------------------------------------------------------
# Faults: a worker dies mid-stream
# ----------------------------------------------------------------------


def test_worker_crash_mid_stream_surfaces_stage_error():
    """Killing a plan worker yields a first-wins StageError and a clean
    unwind: close() restores the deployment wiring and unlinks every
    shared segment."""
    work = reports.columns("key_increment", 4096, SEED)
    with bench.deployment(vectorized=False) as (
            registry, collector, translator, reporter):
        engine = StreamEngine(collector, translator, reporter, workers=2,
                              queue_depth=4, executor="process",
                              vectorized=True, name="crash")
        try:
            engine.start()
            segments = [ring._shm.name for ring
                        in engine._pool.requests + engine._pool.results]
            for process in engine._pool.processes:
                process.kill()
            for process in engine._pool.processes:
                process.join(5.0)
            with pytest.raises(StageError) as excinfo:
                for s in range(0, 4096, 64):
                    engine.submit(reports.batch("key_increment", work,
                                                s, s + 64))
                engine.drain()
            assert excinfo.value.stage in ("submit", "translate")
        finally:
            engine.close()
    # wiring restored: the deployment works normally again
    reporter.send_batch(reports.batch("key_increment", work, 0, 64))
    # and no segment leaked
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Lifecycle / leaks
# ----------------------------------------------------------------------


def test_engine_close_unlinks_every_segment():
    """After a normal run + close, re-attach by name must fail."""
    work = reports.columns("key_write", REPORTS, SEED)
    with bench.deployment(vectorized=False) as (
            registry, collector, translator, reporter):
        engine = StreamEngine(collector, translator, reporter, workers=2,
                              executor="process", vectorized=True,
                              name="leakcheck")
        try:
            engine.start()
            pool = engine._pool
            segments = [ring._shm.name
                        for ring in pool.requests + pool.results]
            segments.append(pool._stats_shm.name)
            for s in range(0, REPORTS, BATCH):
                engine.submit(reports.batch("key_write", work, s,
                                            min(s + BATCH, REPORTS)))
            engine.drain()
        finally:
            engine.close()
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    for process in pool.processes:
        assert not process.is_alive()


def test_pool_shutdown_is_idempotent():
    from repro.runtime.shm import PlanWorkerPool

    obs.set_registry(obs.Registry())
    pool = PlanWorkerPool(1, depth=2, name="idem")
    pool.shutdown()
    pool.shutdown()
    for process in pool.processes:
        assert not process.is_alive()


# ----------------------------------------------------------------------
# Resource-tracker hygiene and blocked-wait teardown
# ----------------------------------------------------------------------


class _FakeSegment:
    def __init__(self, name):
        self.name = name


class TestUntrack:
    """``_untrack`` must speak the tracker's name dialect (bpo-39959)."""

    def test_unregisters_platform_name_under_spawn(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.runtime import shm as shm_mod

        calls = []
        monkeypatch.setattr(shm_mod.multiprocessing, "get_start_method",
                            lambda allow_none=True: "spawn")
        monkeypatch.setattr(resource_tracker, "unregister",
                            lambda name, rtype: calls.append((name, rtype)))
        shm_mod._untrack(_FakeSegment("psm_fake"))
        # The public ``name`` property strips the shm_open() slash; the
        # tracker knows the slashed form, so _untrack must restore it.
        assert calls == [("/psm_fake", "shared_memory")]

    def test_slashed_name_is_not_double_prefixed(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.runtime import shm as shm_mod

        calls = []
        monkeypatch.setattr(shm_mod.multiprocessing, "get_start_method",
                            lambda allow_none=True: "spawn")
        monkeypatch.setattr(resource_tracker, "unregister",
                            lambda name, rtype: calls.append((name, rtype)))
        shm_mod._untrack(_FakeSegment("/psm_fake"))
        assert calls == [("/psm_fake", "shared_memory")]

    def test_fork_child_never_strips_owner_registration(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.runtime import shm as shm_mod

        calls = []
        monkeypatch.setattr(shm_mod.multiprocessing, "get_start_method",
                            lambda allow_none=True: "fork")
        monkeypatch.setattr(resource_tracker, "unregister",
                            lambda name, rtype: calls.append((name, rtype)))
        # Under fork the child shares the owner's tracker: unregistering
        # the duplicate would strip the owner's entry, so it must no-op.
        shm_mod._untrack(_FakeSegment("psm_fake"))
        assert calls == []

    def test_unresolved_start_method_resolves_to_platform_default(
            self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.runtime import shm as shm_mod

        calls = []

        def get_start_method(allow_none=False):
            # A process that never touched multiprocessing contexts has
            # no resolved method; only resolving (allow_none=False)
            # reveals the platform default, which on POSIX is fork.
            return None if allow_none else "fork"

        monkeypatch.setattr(shm_mod.multiprocessing, "get_start_method",
                            get_start_method)
        monkeypatch.setattr(resource_tracker, "unregister",
                            lambda name, rtype: calls.append((name, rtype)))
        shm_mod._untrack(_FakeSegment("psm_fake"))
        assert calls == []


class TestAcquireTeardown:
    """close()/abort() landing during a dead-peer wait must win."""

    def test_close_during_dead_peer_wait_raises_closed(self):
        from repro.runtime.shm import QueueClosed

        q = _queue(capacity=1, name="teardown-close")
        try:
            q.put(0, [b"x"])              # consume the only credit

            def liveness():
                q.close()                 # teardown lands while we spin
                return False              # ...and the peer looks dead

            with pytest.raises(QueueClosed):
                q.put(0, [b"y"], liveness=liveness)
        finally:
            q.unlink()

    def test_abort_during_dead_peer_wait_raises_aborted(self):
        q = _queue(capacity=1, name="teardown-abort")
        try:
            q.put(0, [b"x"])

            def liveness():
                q.abort()
                return False

            with pytest.raises(QueueAborted):
                q.put(0, [b"y"], liveness=liveness)
        finally:
            q.unlink()

    def test_dead_peer_without_teardown_still_raises(self):
        from repro.runtime.shm import RingPeerDead

        q = _queue(capacity=1, name="teardown-dead")
        try:
            q.put(0, [b"x"])
            with pytest.raises(RingPeerDead):
                q.put(0, [b"y"], liveness=lambda: False)
        finally:
            q.abort()
            q.unlink()


def test_stall_clock_is_shared_across_runtime_modules():
    """soak elapsed time and queue stall accounting use one clock."""
    from repro.runtime import queues, shm, soak

    assert soak._clock is queues._clock
    assert shm._clock is queues._clock

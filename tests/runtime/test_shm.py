"""The plan worker pool and the ``executor="process"`` lane.

Three layers, mirroring the contract in ``docs/CONCURRENCY.md``:

* :class:`PlanWorkerPool` keeps the credit contract of the shared-memory
  ring it replaced (``ShmCreditQueue``) — bounded slots per worker,
  results in dispatch order, finish ends the stream, abort poisons the
  dispatcher — and its results are zero-copy views over the slot.
* The process lane is digest-identical to the ``workers=0`` serial
  reference (store bytes + obs sha256) across worker counts and queue
  depths, and a worker killed mid-stream surfaces as a first-wins
  ``StageError`` with a clean unwind.
* Lifecycle: engine/pool shutdown unlinks every shared segment — no
  leaked ``/dev/shm`` entries, re-attach by name must fail.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.shared_memory as shared_memory
import os
import random
import struct
import threading
import time
from dataclasses import replace

import pytest

from repro import bench, obs
from repro.core.batch import ReportBatch
from repro.runtime import (
    QueueAborted,
    QueueClosed,
    RingPeerDead,
    StageError,
    StreamEngine,
)
from repro.runtime.shm import PlanWorkerPool, RES_PLAN
from repro.workloads import reports
from tests import conformance

REPORTS = 480
BATCH = 32
SEED = 11


def _request(translator, n=8, seed=2):
    rng = random.Random(seed)
    keys = [struct.pack(">I", rng.getrandbits(32)) for _ in range(n)]
    request = translator.plan_request(
        ReportBatch.key_increments(keys, [1] * n, redundancy=2))
    assert request is not None
    return request


@pytest.fixture
def pool_and_request():
    """A one-worker pool of two slots and a batch-8 Key-Increment
    request for it."""
    with bench.deployment(vectorized=True) as (
            _registry, _collector, translator, _reporter):
        pool = PlanWorkerPool(1, depth=2, name="t")
        try:
            yield pool, _request(translator)
        finally:
            pool.shutdown()


def _segments(pool) -> list:
    return [worker.shm.name for worker in pool._workers]


def _open_fds() -> int:
    """Open fds of this process, once multiprocessing's resource
    tracker (started, with its pipe, by the first segment) is up."""
    warm = shared_memory.SharedMemory(create=True, size=64)
    warm.close()
    warm.unlink()
    return len(os.listdir("/proc/self/fd"))


# ----------------------------------------------------------------------
# The credit contract (the ring's, now the pool's slots)
# ----------------------------------------------------------------------


class TestShmCreditQueue:
    """The contract the retired ``ShmCreditQueue`` ring gave the process
    lane, as the pool's slots and credits give it now."""

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="depth >= 1"):
            PlanWorkerPool(1, depth=0)

    def test_fifo_zero_copy_roundtrip(self, pool_and_request):
        import numpy as np

        pool, request = pool_and_request
        for seq in range(2):
            assert pool.dispatch(0, seq, request)
        for seq in range(2):
            message = pool.result(0)
            assert (message.kind, message.seq) == (RES_PLAN, seq)
            indices, _addends = pool.arrays(message, seq)
            # A view over the worker's segment, not a copy.
            assert not indices.flags.owndata
            assert isinstance(indices.base, (np.ndarray, memoryview))
            message.release()
            message.release()                 # idempotent

    def test_credits_bound_occupancy(self, pool_and_request):
        pool, request = pool_and_request
        assert pool.dispatch(0, 0, request)
        assert pool.dispatch(0, 1, request)
        blocked = threading.Event()
        done = threading.Event()

        def overfill():
            blocked.set()
            pool.dispatch(0, 2, request)
            done.set()

        thread = threading.Thread(target=overfill, daemon=True)
        thread.start()
        blocked.wait(1.0)
        time.sleep(0.05)
        assert not done.is_set()              # third slot does not exist
        pool.result(0).release()              # hand one credit back
        thread.join(2.0)
        assert done.is_set()
        for _ in range(2):
            pool.result(0).release()

    def test_close_drains_then_closed_sentinel(self, pool_and_request):
        pool, request = pool_and_request
        assert pool.dispatch(0, 0, request)
        pool.finish()
        # What was dispatched before finish is still answered...
        message = pool.result(0)
        assert message.kind == RES_PLAN
        message.release()
        # ...and then the worker has gone: EOF, not a hang.
        with pytest.raises(RingPeerDead):
            pool.result(0)

    def test_put_after_close_raises(self, pool_and_request):
        pool, request = pool_and_request
        pool.finish()
        with pytest.raises(QueueClosed):
            pool.dispatch(0, 0, request)

    def test_abort_poisons_both_ends(self, pool_and_request):
        pool, request = pool_and_request
        assert pool.dispatch(0, 0, request)
        pool.abort()
        with pytest.raises(QueueAborted):
            pool.dispatch(0, 1, request)
        # A result already on its way still arrives.
        pool.result(0).release()

    def test_oversize_message_rejected_before_ring(self):
        with bench.deployment(vectorized=True) as (
                _registry, _collector, translator, _reporter):
            pool = PlanWorkerPool(1, depth=1, payload_bytes=256,
                                  name="small")
            try:
                assert not pool.dispatch(0, 0, _request(translator, n=64))
                # Not shipped: the only slot is still free.
                assert pool.dispatch(0, 0, _request(translator, n=4))
                pool.result(0).release()
            finally:
                pool.shutdown()

    def test_unlink_destroys_segment(self):
        pool = PlanWorkerPool(1, depth=1, name="unlink")
        segments = _segments(pool)
        pool.shutdown()
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        pool.shutdown()                       # idempotent


# ----------------------------------------------------------------------
# Process-lane differentials
# ----------------------------------------------------------------------


@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_process_lane_matches_serial_across_workers(primitive):
    """Store bytes + obs digests at workers 1/2 and queue depths 1/16
    (one slot per worker, and the most the engine gives) equal
    workers=0."""
    stream = conformance.stream(primitive, reports=REPORTS, batch=BATCH)
    serial = conformance.run("reference", stream)
    for lane in ("process1", "process2"):
        for queue_depth in (1, 16):
            got = conformance.run(lane,
                                  replace(stream, queue_depth=queue_depth))
            key = (primitive, lane, queue_depth)
            assert got["zero_loss"], key
            assert (got["obs"], got["store"]) == (
                serial["obs"], serial["store"]), key


def test_process_lane_exposes_ring_metrics():
    """Plan worker counters and the apply queue surface under
    ``runtime.*`` (digest-excluded)."""
    work = reports.columns("key_increment", REPORTS, SEED)
    with conformance.engine(workers=2, executor="process",
                            vectorized=True) as (registry, engine):
        engine.submit(reports.batch("key_increment", work, 0, BATCH))
        engine.drain()
        snapshot = registry.snapshot()
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
    unwind: close() restores the deployment wiring, unlinks every
    shared segment and closes every fd the pool opened."""
    work = reports.columns("key_increment", 4096, SEED)
    with bench.deployment(vectorized=False) as (
            registry, collector, translator, reporter):
        before = _open_fds()
        engine = StreamEngine(collector, translator, reporter, workers=2,
                              queue_depth=4, executor="process",
                              vectorized=True, name="crash")
        try:
            engine.start()
            segments = _segments(engine._pool)
            for process in engine._pool.processes:
                process.kill()
            for process in engine._pool.processes:
                process.join(5.0)
            with pytest.raises(StageError) as excinfo:
                for s in range(0, 4096, 64):
                    engine.submit(reports.batch("key_increment", work,
                                                s, s + 64))
                engine.drain()
            assert excinfo.value.stage == "translate"
            assert excinfo.value.batch_seq == 0
            assert isinstance(excinfo.value.__cause__, RingPeerDead)
        finally:
            engine.close()
        assert len(os.listdir("/proc/self/fd")) == before
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
    with conformance.engine(workers=2, executor="process",
                            vectorized=True) as (_registry, engine):
        segments = _segments(engine._pool)
        processes = engine._pool.processes
        for s in range(0, REPORTS, BATCH):
            engine.submit(reports.batch("key_write", work, s,
                                        min(s + BATCH, REPORTS)))
        engine.drain()
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert engine.queues == engine._queues      # only the apply queue
    for process in processes:
        with pytest.raises(ValueError):         # joined and closed
            process.is_alive()


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
    """``untrack`` must speak the tracker's name dialect (bpo-39959)."""

    def test_unregisters_platform_name_under_spawn(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.runtime import shm as shm_mod

        calls = []
        monkeypatch.setattr(shm_mod.multiprocessing, "get_start_method",
                            lambda allow_none=True: "spawn")
        monkeypatch.setattr(resource_tracker, "unregister",
                            lambda name, rtype: calls.append((name, rtype)))
        shm_mod.untrack(_FakeSegment("psm_fake"))
        # The public ``name`` property strips the shm_open() slash; the
        # tracker knows the slashed form, so untrack must restore it.
        assert calls == [("/psm_fake", "shared_memory")]

    def test_slashed_name_is_not_double_prefixed(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.runtime import shm as shm_mod

        calls = []
        monkeypatch.setattr(shm_mod.multiprocessing, "get_start_method",
                            lambda allow_none=True: "spawn")
        monkeypatch.setattr(resource_tracker, "unregister",
                            lambda name, rtype: calls.append((name, rtype)))
        shm_mod.untrack(_FakeSegment("/psm_fake"))
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
        shm_mod.untrack(_FakeSegment("psm_fake"))
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
        shm_mod.untrack(_FakeSegment("psm_fake"))
        assert calls == []


class TestAcquireTeardown:
    """A dispatcher blocked on a credit wakes for finish/abort, and a
    dead worker is an error, never a hang."""

    @staticmethod
    def _blocked_dispatch(pool, request, teardown):
        """Fill worker 0's slots, kill it, and run ``teardown`` while a
        further dispatch waits for a credit; returns what that dispatch
        raised."""
        while pool._workers[0].free:
            assert pool.dispatch(0, 0, request)
        process = pool.processes[0]
        process.kill()
        process.join(5.0)
        raised = []

        def dispatch():
            try:
                pool.dispatch(0, 1, request)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                raised.append(exc)

        thread = threading.Thread(target=dispatch, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert thread.is_alive()
        teardown()
        thread.join(5.0)
        assert not thread.is_alive()
        return raised

    def test_close_during_dead_peer_wait_raises_closed(
            self, pool_and_request):
        pool, request = pool_and_request
        raised = self._blocked_dispatch(pool, request, pool.finish)
        assert [type(exc) for exc in raised] == [QueueClosed]

    def test_abort_during_dead_peer_wait_raises_aborted(
            self, pool_and_request):
        pool, request = pool_and_request
        raised = self._blocked_dispatch(pool, request, pool.abort)
        assert [type(exc) for exc in raised] == [QueueAborted]

    def test_dead_peer_without_teardown_still_raises(self, pool_and_request):
        pool, request = pool_and_request
        process = pool.processes[0]
        process.kill()
        process.join(5.0)
        with pytest.raises(RingPeerDead):
            pool.dispatch(0, 0, request)
        with pytest.raises(RingPeerDead):
            pool.result(0)


def test_stall_clock_is_shared_across_runtime_modules():
    """Queue stall accounting, the socket lane's drain deadlines and
    the conformance rig's duration cap read one clock."""
    from repro.runtime import queues
    from repro.transport import serve

    assert serve._clock is conformance._clock is queues._clock


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to count fds")
def test_pool_that_fails_to_start_leaves_nothing_behind(monkeypatch):
    """The second worker's ``Process.start()`` raises: the first worker,
    every segment and every pipe of the half-built pool are gone when
    ``StreamEngine.start()`` re-raises, and the deployment is usable."""
    created = []
    original_init = shared_memory.SharedMemory.__init__

    def recording_init(shm, *args, **kwargs):
        original_init(shm, *args, **kwargs)
        if kwargs.get("create"):
            created.append(shm.name)

    process_class = multiprocessing.get_context().Process
    original_start = process_class.start
    starts = []

    def failing_start(process):
        starts.append(process.name)
        if len(starts) == 2:
            raise OSError("no more processes")
        original_start(process)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__",
                        recording_init)
    monkeypatch.setattr(process_class, "start", failing_start)
    work = reports.columns("key_increment", 64, SEED)
    with bench.deployment(vectorized=False) as (
            _registry, collector, translator, reporter):
        before = _open_fds()
        engine = StreamEngine(collector, translator, reporter, workers=2,
                              executor="process", vectorized=True,
                              name="halfbuilt")
        with pytest.raises(OSError, match="no more processes"):
            engine.start()
        engine.close()
        after = len(os.listdir("/proc/self/fd"))
        reporter.send_batch(reports.batch("key_increment", work, 0, 64))
    assert len(starts) == 2
    assert created
    for name in created:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert multiprocessing.active_children() == []
    assert after == before

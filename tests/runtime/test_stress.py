"""Stress and failure-path tests for the streaming runtime.

The ugly corners: queues that can never make progress, producers that
outrun consumers, stages that die mid-batch, and operators that shut
the same pipeline down twice.  The invariants under test are the ones
the engine's docstring promises — backpressure blocks instead of
dropping, a stage failure surfaces as a :class:`StageError` naming the
failing batch while every thread unwinds, and lifecycle operations are
idempotent.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import (
    CLOSED,
    CreditQueue,
    QueueAborted,
    QueueClosed,
    StageError,
    StageStalled,
)
from repro.workloads import reports
from tests import conformance

REPORTS = 320
BATCH = 32
SEED = 5


def _submit_all(engine, work, primitive="key_write"):
    n = len(next(iter(work.values())))
    for s in range(0, n, BATCH):
        engine.submit(reports.batch(primitive, work, s, min(s + BATCH, n)))


# ----------------------------------------------------------------------
# Queues
# ----------------------------------------------------------------------


def test_zero_capacity_queue_is_rejected():
    with pytest.raises(ValueError):
        CreditQueue(0)
    with pytest.raises(ValueError):
        CreditQueue(-3)


def test_put_after_close_raises_and_get_drains():
    queue = CreditQueue(4)
    queue.put("a")
    queue.put("b")
    queue.close()
    with pytest.raises(QueueClosed):
        queue.put("c")
    assert queue.get() == "a"
    assert queue.get() == "b"
    assert queue.get() is CLOSED
    assert queue.get() is CLOSED    # stays terminal


def test_abort_unblocks_a_stalled_producer():
    queue = CreditQueue(1)
    queue.put("fill")
    failures = []

    def producer():
        try:
            queue.put("blocked")
        except QueueAborted:
            failures.append("aborted")

    thread = threading.Thread(target=producer)
    thread.start()
    deadline = time.monotonic() + 2.0
    while queue.stats.put_stalls == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    queue.abort()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert failures == ["aborted"]
    with pytest.raises(QueueAborted):
        queue.get()


def test_backpressure_blocks_fast_producer_without_loss():
    """Producer outruns a deliberately slow consumer through a depth-1
    queue: the producer must stall (credits exhausted) and every item
    must still arrive, in order."""
    queue = CreditQueue(1, name="slow")
    received = []

    def consumer():
        while True:
            item = queue.get()
            if item is CLOSED:
                return
            time.sleep(0.0005)
            received.append(item)

    thread = threading.Thread(target=consumer)
    thread.start()
    for i in range(200):
        queue.put(i)
    queue.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert received == list(range(200))
    assert queue.stats.put_stalls > 0
    assert queue.stats.enqueued == queue.stats.dequeued == 200
    assert queue.high_watermark <= 1


# ----------------------------------------------------------------------
# Engine backpressure
# ----------------------------------------------------------------------


def test_engine_backpressure_engages_and_drops_nothing():
    """Depth-1 queues + a slowed execute stage: submit stalls, yet the
    run stays lossless and digests identically to the unthrottled
    serial reference."""
    work = reports.columns("key_write", REPORTS, SEED)
    serial = conformance.run("reference", conformance.Stream(
        "key_write", work, batch=BATCH))
    with conformance.engine(start=False, workers=2, queue_depth=1,
                            vectorized=False) as (registry, engine):
        real_execute = engine._stage_fns["execute"]

        def slow_execute(burst):
            time.sleep(0.001)
            return real_execute(burst)

        engine._stage_fns["execute"] = slow_execute
        try:
            engine.start()
            _submit_all(engine, work)
            engine.drain()
            snapshot = registry.snapshot()
            stalled = sum(q.stats.put_stalls for q in engine.queues)
        finally:
            engine.close()
        assert stalled > 0, "expected the credit pool to run dry"
        from repro.runtime import pipeline_digest
        assert pipeline_digest(snapshot) == serial["obs"]
        assert engine.link.stats.drops == 0


# ----------------------------------------------------------------------
# Stage failure
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (0, 1, 2, 4))
def test_stage_raising_mid_batch_surfaces_with_batch_id(workers):
    """A translate-stage explosion on the third batch surfaces as a
    StageError carrying the stage name and failing batch seq — inline
    and on the thread executor, whose one layout serves any
    ``workers >= 1`` alike — with a clean unwind (join + close, no
    hang)."""
    work = reports.columns("key_write", REPORTS, SEED)
    with conformance.engine(start=False, workers=workers, queue_depth=4,
                            vectorized=False) as (_registry, engine):
        translator = engine.translator
        real = translator.process_batch
        calls = {"n": 0}

        def exploding(batch, **kw):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("synthetic mid-batch failure")
            return real(batch, **kw)

        translator.process_batch = exploding
        try:
            engine.start()
            with pytest.raises(StageError) as excinfo:
                _submit_all(engine, work)
                engine.drain()
            error = excinfo.value
            assert error.stage == "translate"
            assert error.batch_seq == 2
            assert "batch 2" in str(error)
            assert isinstance(error.__cause__, RuntimeError)
            assert engine.error is error
            # A drained-on-error pipeline reports the same error again
            # rather than pretending the stream completed.
            if workers:
                with pytest.raises(StageError):
                    engine.drain()
        finally:
            engine.close()
        for thread in engine._threads:
            assert not thread.is_alive()


def test_submit_after_error_raises_immediately():
    work = reports.columns("key_write", REPORTS, SEED)
    with conformance.engine(start=False, workers=0,
                            vectorized=False) as (_registry, engine):
        def explode(batch, **kw):
            raise ValueError("dead on arrival")

        engine.translator.process_batch = explode
        try:
            engine.start()
            batch = reports.batch("key_write", work, 0, BATCH)
            with pytest.raises(StageError):
                engine.submit(batch)
            with pytest.raises(StageError):
                engine.submit(batch)
        finally:
            engine.close()


def test_drain_gives_up_on_a_wedged_stage(monkeypatch):
    """A stage that blocks forever must not hang ``drain()``: once no
    stage has finished a carrier for ``DRAIN_STALL_S`` it raises a
    StageStalled naming the wedged thread's stages, and the engine
    still closes."""
    from repro.runtime import engine as engine_module

    monkeypatch.setattr(engine_module, "DRAIN_STALL_S", 0.2)
    work = reports.columns("key_write", REPORTS, SEED)
    release = threading.Event()
    with conformance.engine(start=False, workers=2, queue_depth=4,
                            vectorized=False) as (_registry, engine):
        real = engine.translator.process_batch
        calls = {"n": 0}

        def wedging(batch, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                release.wait(timeout=30.0)
            return real(batch, **kw)

        engine.translator.process_batch = wedging
        try:
            engine.start()
            for s in range(0, 3 * BATCH, BATCH):
                engine.submit(reports.batch("key_write", work, s, s + BATCH))
            start = time.monotonic()
            with pytest.raises(StageStalled) as excinfo:
                engine.drain()
            assert time.monotonic() - start < 10.0
            error = excinfo.value
            assert isinstance(error, StageError)
            assert error.stage == "translate+execute"
            assert error.batch_seq == 0          # the last batch applied
            assert "during drain" in str(error)
            assert engine.error is error
        finally:
            release.set()
            engine.close()
        for thread in engine._threads:
            assert not thread.is_alive()


def test_drain_outwaits_a_slow_stage_that_keeps_progressing(monkeypatch):
    """The deadline is on progress, not on the drain: batches that each
    take longer than a third of ``DRAIN_STALL_S`` still all land."""
    from repro.runtime import engine as engine_module

    monkeypatch.setattr(engine_module, "DRAIN_STALL_S", 0.3)
    work = reports.columns("key_write", REPORTS, SEED)
    with conformance.engine(start=False, workers=2, queue_depth=8,
                            vectorized=False) as (_registry, engine):
        real = engine.translator.process_batch

        def slow(batch, **kw):
            time.sleep(0.1)
            return real(batch, **kw)

        engine.translator.process_batch = slow
        try:
            engine.start()
            _submit_all(engine, work)
            engine.drain()
            assert engine.executed_seq == REPORTS // BATCH - 1
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Lifecycle idempotence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (0, 2))
def test_double_drain_and_double_close_are_idempotent(workers):
    work = reports.columns("key_write", REPORTS, SEED)
    with conformance.engine(start=False, workers=workers, queue_depth=4,
                            vectorized=False) as (_registry, engine):
        saved_transmit = engine.reporter.transmit
        try:
            engine.start()
            _submit_all(engine, work)
            engine.drain()
            engine.drain()          # second drain: no-op, no error
            with pytest.raises(RuntimeError):
                engine.submit(reports.batch("key_write", work, 0, BATCH))
        finally:
            engine.close()
            engine.close()          # second close: no-op
        # close() restored the original wiring
        assert engine.reporter.transmit is saved_transmit
        assert engine.translator.client is not None


def test_context_manager_restores_wiring_on_error():
    work = reports.columns("key_write", REPORTS, SEED)
    with conformance.engine(start=False, workers=2, queue_depth=4,
                            vectorized=False) as (_registry, engine):
        transmit = engine.reporter.transmit
        client = engine.translator.client
        with pytest.raises(StageError):
            with engine:
                engine.translator.process_batch = lambda *a, **k: (
                    (_ for _ in ()).throw(RuntimeError("boom")))
                _submit_all(engine, work)
                engine.drain()
        assert engine.reporter.transmit is transmit
        assert engine.translator.client is client

"""Regressions for the four process-lane defects ``perf/README.md``
recorded while building the repo benchmark.

1. The shared-memory ring the pool used to run on published its control
   words byte-wise, so with two or more slots in flight a reader could
   see a half-written counter.  The pool now signals over pipes; the
   load that exposed the race still runs against it.
2. A plan too large for a result slot killed the worker instead of
   coming back as ``RES_FALLBACK``.
3. ``Registry.snapshot()`` after closing a process-lane engine raised
   ``TypeError`` (gauges outliving their counter array).
4. A closed process-lane engine kept worker sentinel-pipe fds open
   until the next garbage collection.
"""

from __future__ import annotations

import gc
import os
import random
import struct
import threading
from multiprocessing import shared_memory

import pytest

pytest.importorskip("numpy")

from repro import bench, obs
from repro.core.batch import ReportBatch
from repro.runtime import StreamEngine, store_digest
from repro.runtime.shm import PlanWorkerPool, RES_FALLBACK, RES_PLAN
from repro.workloads import reports
from tests import conformance


def _worker_stat(engine: str, field: str) -> int:
    """Plan worker 0's ``field`` counter, as the registry holds it."""
    return obs.get_registry().snapshot().value(
        f"runtime.plan_worker_{field}", engine=engine, worker="0")


def test_control_words_survive_two_slots_in_flight():
    """>= 20 k batch-8 dispatches at pool depth 2, a producer thread
    against the result reader: every request comes back planned, in
    order, with its own seq — no ``RingPeerDead``."""
    rounds = 20_000
    with bench.deployment(vectorized=True) as (
            _registry, _collector, translator, _reporter):
        pool = PlanWorkerPool(1, depth=2, name="ctrlwords")
        rng = random.Random(2)
        keys = [struct.pack(">I", rng.getrandbits(32)) for _ in range(8)]
        request = translator.plan_request(
            ReportBatch.key_increments(keys, [1] * 8, redundancy=2))
        assert request is not None
        errors: list = []

        def produce():
            try:
                for seq in range(rounds):
                    assert pool.dispatch(0, seq, request)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                pool.abort()

        producer = threading.Thread(target=produce, daemon=True)
        try:
            producer.start()
            for seq in range(rounds):
                message = pool.result(0)
                try:
                    assert message.kind == RES_PLAN
                    indices, _addends = pool.arrays(message, seq)
                    assert len(indices) == 16
                finally:
                    message.release()
            producer.join(30.0)
            assert not producer.is_alive()
            assert not errors, errors
            assert _worker_stat("ctrlwords", "planned") == rounds
        finally:
            pool.shutdown()


#: Key-Increment at redundancy 2: 240 KiB of request fit a 256 KiB
#: request area, 384 KiB of plan do not fit the result area.
OVERSIZE = 12288


def test_oversize_plan_result_falls_back_instead_of_killing_worker():
    """A Key-Increment batch that fits a request slot but not a result
    slot: the parent plans it itself, digests unchanged."""
    stream = conformance.Stream(
        "key_increment", reports.columns("key_increment", OVERSIZE, 9),
        batch=OVERSIZE)
    serial = conformance.run("reference", stream)
    lane = conformance.run("process1", stream)
    assert lane["zero_loss"]
    assert lane["store"] == serial["store"]
    assert lane["obs"] == serial["obs"]


def test_oversize_plan_result_is_a_fallback_message():
    with bench.deployment(vectorized=True) as (
            _registry, _collector, translator, _reporter):
        pool = PlanWorkerPool(1, depth=2, name="oversize")
        try:
            rng = random.Random(3)
            keys = [struct.pack(">I", rng.getrandbits(32))
                    for _ in range(OVERSIZE)]
            request = translator.plan_request(
                ReportBatch.key_increments(keys, [1] * OVERSIZE,
                                           redundancy=2))
            assert pool.dispatch(0, 0, request)
            message = pool.result(0)
            try:
                assert message.kind == RES_FALLBACK
                assert pool.arrays(message, 0) is None
            finally:
                message.release()
            pool.finish()
            assert [_worker_stat("oversize", field) for field in (
                "planned", "fallbacks", "errors")] == [0, 1, 0]
        finally:
            pool.shutdown()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to count fds")
def test_closed_process_engine_leaves_gauges_readable_and_no_fds():
    # multiprocessing's resource tracker starts (and keeps a pipe) with
    # the first shared segment of the process; get that out of the way.
    warm = shared_memory.SharedMemory(create=True, size=64)
    warm.close()
    warm.unlink()

    work = reports.columns("key_increment", 256, 4)
    with bench.deployment(vectorized=False) as (
            registry, collector, translator, reporter):
        gc.collect()
        gc.disable()            # the fds must go at close(), not at a GC
        try:
            before = _open_fds()
            engine = StreamEngine(collector, translator, reporter, workers=2,
                                  executor="process", vectorized=True,
                                  name="fdcheck")
            engine.start()
            pids = [process.pid for process in engine._pool.processes]
            for s in range(0, 256, 64):
                engine.submit(ReportBatch.key_increments(
                    work["keys"][s:s + 64], work["values"][s:s + 64],
                    redundancy=2))
            engine.drain()
            live = registry.snapshot()
            engine.close()
            after = _open_fds()
            closed = registry.snapshot()        # defect 3: raised TypeError
        finally:
            gc.enable()
    assert after == before

    def planned(snapshot):
        return sum(value for (name, _labels), value
                   in snapshot.samples.items()
                   if name == "runtime.plan_worker_planned")

    assert planned(closed) == planned(live) == 4
    for pid in pids:                        # joined and reaped
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert store_digest(collector)

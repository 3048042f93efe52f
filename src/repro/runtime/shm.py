"""Shared-memory rings: the process lane's stage couplings.

PR 5's threaded :class:`~repro.runtime.engine.StreamEngine` tops out
well short of the hardware because every pure-Python stage shares the
GIL; only the numpy kernels overlap.  This module provides the
substrate for the ``executor="process"`` lane: fixed-slot
struct-of-arrays ring buffers over :mod:`multiprocessing.shared_memory`
(the Confluo/BTrDB ingest idiom — see PAPERS.md) and a pool of *plan
worker* processes that run the translator's pure plan kernels
(the ``kernel`` of each store module's ``LANE`` that has one) outside
the parent interpreter.

Two pieces:

:class:`ShmCreditQueue`
    A bounded SPSC ring whose slots live in one shared-memory segment.
    It preserves :class:`~repro.runtime.queues.CreditQueue` semantics
    exactly — capacity is a credit pool (puts block when it is
    exhausted), :meth:`~ShmCreditQueue.close` ends the stream (gets
    drain, then return the :data:`~repro.runtime.queues.CLOSED`
    sentinel; puts raise :class:`~repro.runtime.queues.QueueClosed`),
    and :meth:`~ShmCreditQueue.abort` poisons both ends with
    :class:`~repro.runtime.queues.QueueAborted` so a dead peer can
    never leave the other side blocked.  Credits are a pair of
    multiprocessing semaphores; close/abort over-release them so every
    blocked peer wakes and re-checks the shared flags.  Each slot
    carries one message as length-prefixed segments under a
    seqlock-style header (the slot's publish counter is written odd
    before the payload and even after, and validated on read), and
    :meth:`~ShmCreditQueue.get` returns **zero-copy numpy views** over
    the shared segment — the consumer releases the slot's credit only
    via :meth:`ShmMessage.release`, so a view is never overwritten
    while live.

:class:`PlanWorkerPool`
    N worker processes, one request + one result ring each.  The
    parent serializes a ``Translator.plan_request`` (a
    :class:`PlanSpec` plus the packed key matrix, lengths and
    values/data matrix) into a request slot; the worker computes the
    pure plan half — CRC hash lanes, entry encoding, bounds checks,
    exactly the kernel ``Translator.plan_batch`` calls — and publishes
    ``(indices, payload)`` into its result ring, or a ``FALLBACK``
    marker when there is no plan to return (the parent's
    ``plan_batch`` then decides locally).  All
    *stateful* work — reporter/link/translator accounting, store
    mutation — stays in the parent, applied in submit order, which is
    what makes the process lane digest-identical to ``workers=0`` by
    construction (see ``docs/CONCURRENCY.md``).

Worker-side throughput counters (planned/fallback/error counts, busy
nanoseconds) live in a small shared stats segment; the parent merges
them into the ``runtime.*`` gauge namespace
(``runtime.plan_worker_*``), which — like every ``runtime.*``
series — is excluded from :func:`~repro.runtime.engine.pipeline_digest`
because it measures scheduling, not computation.

Lifecycle: the creating process owns every segment.  ``shutdown()``
(and the engine's ``close()``) joins the workers and **unlinks** all
segments; the leak tests in ``tests/runtime/test_shm.py`` assert that
re-attaching by name afterwards raises ``FileNotFoundError``.
"""

from __future__ import annotations

import struct
import time
from dataclasses import astuple
from typing import NamedTuple

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.core.primitives import BY_CODE
from repro.runtime.queues import (
    CLOSED,
    QueueAborted,
    QueueClosed,
    QueueStats,
    _clock,
)

#: How long a blocked peer sleeps between shared-flag re-checks.  The
#: semaphore wakes it immediately on a normal hand-off; the spin only
#: bounds how late it notices close/abort/peer-death.
_SPIN_S = 0.05

# Control block (one per ring, at segment offset 0): five uint64 words
# — enqueued, dequeued, closed, aborted, high_watermark — padded to a
# cache line.  Both ends read them without a lock (``len()`` right
# after a semaphore wake-up, the depth gauges), so each word is only
# ever published with one aligned 8-byte store through a numpy view;
# ``struct.pack_into`` writes byte-wise and lets a reader see a
# half-written counter.
_ENQ, _DEQ, _CLOSED, _ABORTED, _HWM = range(5)
_CTRL_BYTES = 64

#: Most segments a message may carry.
MAX_SEGMENTS = 6
_SLOT_HDR = struct.Struct("<3Q6Q")     # publish_seq, kind, nseg, lens[6]
_SLOT_HDR_BYTES = _SLOT_HDR.size


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _untrack(shm) -> None:
    """Detach an *attached* segment from this process's resource tracker.

    Attaching registers the name with :mod:`multiprocessing`'s resource
    tracker exactly as creating does (bpo-39959), so without this the
    tracker would complain about — and try to unlink — segments the
    creating process already owns and unlinks itself.  Under the
    ``fork`` start method the child *shares* the parent's tracker, so
    its duplicate registration collapses into the parent's and
    unregistering here would strip the owner's entry instead — skip.
    """
    try:
        # allow_none would report None in a process that never resolved
        # a start method, and the platform default there IS fork — which
        # must take the skip branch below, not fall through to unregister.
        if multiprocessing.get_start_method() == "fork":
            return
        from multiprocessing import resource_tracker

        # The tracker knows the segment by the name the platform layer
        # registered: on POSIX that is the shm_open() name, which
        # carries a leading "/" that the public ``name`` property
        # strips.  Reconstruct it instead of reaching into ``_name``.
        name = shm.name
        if not name.startswith("/"):
            name = "/" + name
        resource_tracker.unregister(name, "shared_memory")
    except Exception:
        pass


class RingPeerDead(RuntimeError):
    """The process on the other end of a ring died mid-stream."""


class ShmMessage:
    """One dequeued ring message: zero-copy views + the slot's credit.

    ``segments`` are uint8 numpy views directly over the shared
    segment; reshape/``.view(dtype)`` them as the message kind
    dictates.  They stay valid until :meth:`release`, which returns the
    slot's credit to the producer — after that the producer may
    overwrite the slot, so drop every view first.
    """

    __slots__ = ("kind", "ticket", "segments", "_queue", "_released")

    def __init__(self, kind: int, ticket: int, segments: list,
                 queue: "ShmCreditQueue") -> None:
        self.kind = kind
        self.ticket = ticket
        self.segments = segments
        self._queue = queue
        self._released = False

    def release(self) -> None:
        """Return the slot credit (idempotent); views die here."""
        if not self._released:
            self._released = True
            self.segments = []
            self._queue._free.release()


class ShmCreditQueue:
    """A bounded SPSC credit ring over one shared-memory segment.

    Cross-process twin of :class:`~repro.runtime.queues.CreditQueue`
    with identical semantics (see the module docstring); single
    producer, single consumer.  Create it in the owning process and
    hand :attr:`descriptor` to the peer, which calls :meth:`attach`.

    Args:
        capacity: Credit pool size; must be >= 1 (same rule, same
            reason as ``CreditQueue``).
        payload_bytes: Per-slot payload capacity; a :meth:`put` whose
            segments exceed it raises ``ValueError`` before touching
            the ring.
        name: Metric label (``runtime.*`` gauges) and error context.
    """

    def __init__(self, capacity: int, payload_bytes: int = 1 << 18,
                 name: str = "shmq", *, _attach: tuple | None = None) -> None:
        if _attach is None and capacity < 1:
            raise ValueError(
                f"queue '{name}' capacity must be >= 1 (got {capacity}): "
                "a zero-capacity credit queue can never transfer a "
                "carrier")
        self.capacity = capacity
        self.payload_bytes = payload_bytes
        self.name = name
        self._slot_stride = _SLOT_HDR_BYTES + _align8(payload_bytes)
        self._owner = _attach is None
        if _attach is None:
            size = _CTRL_BYTES + capacity * self._slot_stride
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            ctx = multiprocessing.get_context()
            self._free = ctx.Semaphore(capacity)
            self._filled = ctx.Semaphore(0)
            self._shm.buf[:_CTRL_BYTES] = bytes(_CTRL_BYTES)
            self.stats = QueueStats(labels={"queue": name})
            registry = obs.get_registry()
            self._depth_gauge = registry.declare_gauge(
                "runtime.queue_depth", fn=self.__len__, queue=name)
            self._hwm_gauge = registry.declare_gauge(
                "runtime.queue_high_watermark",
                fn=lambda: self.high_watermark, queue=name)
        else:
            shm_name, free, filled = _attach
            self._shm = shared_memory.SharedMemory(name=shm_name)
            _untrack(self._shm)
            self._free = free
            self._filled = filled
            self.stats = None
        self._mem = np.frombuffer(self._shm.buf, dtype=np.uint8)
        self._ctrl = np.frombuffer(self._shm.buf, dtype=np.uint64, count=5)
        self._unlinked = False

    # ------------------------------------------------------------------
    # Cross-process plumbing
    # ------------------------------------------------------------------

    @property
    def descriptor(self) -> tuple:
        """Everything the peer process needs to :meth:`attach`."""
        return (self.capacity, self.payload_bytes, self.name,
                (self._shm.name, self._free, self._filled))

    @classmethod
    def attach(cls, descriptor: tuple) -> "ShmCreditQueue":
        """Open the peer end of a ring created elsewhere."""
        capacity, payload_bytes, name, handles = descriptor
        return cls(capacity, payload_bytes, name, _attach=handles)

    # ------------------------------------------------------------------
    # Control-block accessors (the semaphore ops around every hand-off
    # are the cross-process memory fences)
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return bool(self._ctrl[_CLOSED])

    @property
    def aborted(self) -> bool:
        return bool(self._ctrl[_ABORTED])

    @property
    def high_watermark(self) -> int:
        """Deepest occupancy seen so far."""
        return int(self._ctrl[_HWM])

    def __len__(self) -> int:
        return int(self._ctrl[_ENQ]) - int(self._ctrl[_DEQ])

    # ------------------------------------------------------------------

    def put(self, kind: int, segments: list,
            liveness=None) -> None:
        """Publish one message, blocking while no credit is available.

        ``segments`` is a list of bytes-like objects and/or contiguous
        numpy arrays (at most :data:`MAX_SEGMENTS`).  Raises
        :class:`QueueClosed` after :meth:`close`, :class:`QueueAborted`
        after :meth:`abort`, and :class:`RingPeerDead` if ``liveness``
        (an optional callable) reports the consumer gone while we wait.
        """
        if len(segments) > MAX_SEGMENTS:
            raise ValueError(f"message has {len(segments)} segments "
                             f"(max {MAX_SEGMENTS})")
        raws = [seg if isinstance(seg, (bytes, bytearray, memoryview))
                else np.ascontiguousarray(seg).view(np.uint8).reshape(-1)
                for seg in segments]
        lens = [len(raw) if isinstance(raw, (bytes, bytearray, memoryview))
                else raw.nbytes for raw in raws]
        total = sum(_align8(n) for n in lens)
        if total > self.payload_bytes:
            raise ValueError(
                f"message ({total}B) exceeds slot payload capacity "
                f"({self.payload_bytes}B) of queue '{self.name}'")
        self._acquire(self._free, "put", liveness)
        if self.aborted:
            raise QueueAborted(self.name)
        if self.closed:
            raise QueueClosed(self.name)
        enq, deq = int(self._ctrl[_ENQ]), int(self._ctrl[_DEQ])
        base = _CTRL_BYTES + (enq % self.capacity) * self._slot_stride
        # Seqlock-style publish: odd while writing, even when visible.
        struct.pack_into("<Q", self._shm.buf, base, 2 * enq + 1)
        offset = base + _SLOT_HDR_BYTES
        for raw, n in zip(raws, lens):
            if isinstance(raw, (bytes, bytearray, memoryview)):
                self._mem[offset:offset + n] = np.frombuffer(
                    raw, dtype=np.uint8)
            else:
                self._mem[offset:offset + n] = raw
            offset += _align8(n)
        lens += [0] * (MAX_SEGMENTS - len(lens))
        _SLOT_HDR.pack_into(self._shm.buf, base, 2 * enq + 2, kind,
                            len(raws), *lens)
        self._ctrl[_ENQ] = enq + 1
        depth = enq + 1 - deq
        if depth > self.high_watermark:
            self._ctrl[_HWM] = depth
        if self.stats is not None:
            self.stats.enqueued += 1
        self._filled.release()

    def get(self, liveness=None):
        """Take the oldest message, blocking while the ring is empty.

        Returns :data:`CLOSED` once the ring is closed *and* drained;
        raises :class:`QueueAborted` immediately if poisoned (pending
        slots are abandoned — the pipeline is dead) and
        :class:`RingPeerDead` if ``liveness`` reports the producer gone
        while we wait.  The returned :class:`ShmMessage` holds the
        slot's credit until its ``release()``.
        """
        self._acquire(self._filled, "get", liveness)
        if self.aborted:
            raise QueueAborted(self.name)
        if len(self) == 0:
            # Woken by close()'s over-release: the stream has ended.
            return CLOSED
        deq = int(self._ctrl[_DEQ])
        base = _CTRL_BYTES + (deq % self.capacity) * self._slot_stride
        header = _SLOT_HDR.unpack_from(self._shm.buf, base)
        if header[0] != 2 * deq + 2:
            raise RuntimeError(
                f"torn read on queue '{self.name}' slot {deq}: "
                f"publish seq {header[0]} != {2 * deq + 2}")
        kind, nseg = header[1], header[2]
        segments = []
        offset = base + _SLOT_HDR_BYTES
        for i in range(nseg):
            n = header[3 + i]
            segments.append(self._mem[offset:offset + n])
            offset += _align8(n)
        self._ctrl[_DEQ] = deq + 1
        if self.stats is not None:
            self.stats.dequeued += 1
        return ShmMessage(kind, deq, segments, self)

    def _acquire(self, sem, side: str, liveness) -> None:
        """One credit, with close/abort wake-ups and stall accounting."""
        if sem.acquire(block=False):
            return
        stats = self.stats
        if stats is not None:
            if side == "put":
                stats.put_stalls += 1
            else:
                stats.get_stalls += 1
        started = _clock()
        try:
            while True:
                if self.aborted:
                    raise QueueAborted(self.name)
                if side == "put" and self.closed:
                    raise QueueClosed(self.name)
                if side == "get" and self.closed and len(self) == 0:
                    # Re-signal so every later get() also sees the end.
                    self._filled.release()
                    if sem.acquire(block=False):
                        return
                    continue
                if sem.acquire(timeout=_SPIN_S):
                    return
                if liveness is not None and not liveness():
                    # A dead peer must not mask a concurrent teardown:
                    # close()/abort() may have landed while we spun, and
                    # a torn-down ring surfaces that verdict (CLOSED /
                    # QueueClosed / QueueAborted at the loop top) rather
                    # than a spurious peer-death error or a hang.
                    if self.aborted or self.closed:
                        continue
                    raise RingPeerDead(
                        f"peer of queue '{self.name}' died while "
                        f"blocked in {side}()")
        finally:
            if stats is not None:
                elapsed = _clock() - started
                if side == "put":
                    stats.put_stall_seconds += elapsed
                else:
                    stats.get_stall_seconds += elapsed

    # ------------------------------------------------------------------

    def close(self) -> None:
        """End the stream: puts start raising, gets drain then CLOSED.

        Idempotent.  Over-releases both semaphores so every blocked
        peer wakes and re-checks the shared flag.
        """
        self._ctrl[_CLOSED] = 1
        self._wake()

    def abort(self) -> None:
        """Poison the ring: every blocked or future put/get raises.

        Idempotent; pending slots are abandoned.
        """
        self._ctrl[_ABORTED] = 1
        self._wake()

    def _wake(self) -> None:
        for _ in range(self.capacity + 2):
            self._free.release()
            self._filled.release()

    def detach(self) -> None:
        """Drop this process's mapping (leaves the segment alive)."""
        if self._mem is None:
            return
        # A private copy keeps depth/high-watermark introspection
        # working after the segment is gone.
        self._ctrl = self._ctrl.copy()
        self._mem = None
        try:
            self._shm.close()
        except BufferError:      # a live view still pins the mapping
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent)."""
        if not self._unlinked:
            self._unlinked = True
            self.detach()
            if self.stats is not None:
                self._depth_gauge.freeze()
                self._hwm_gauge.freeze()
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Plan worker pool
# ----------------------------------------------------------------------

#: Message kinds: one request, one result, plus the two ways a worker
#: says "no arrays" (nothing to plan / it failed).
REQ_PLAN = 1
RES_PLAN = 2
RES_FALLBACK = 3
RES_ERROR = 4

_STATS_FIELDS = ("planned", "fallbacks", "errors", "busy_ns")


class PlanSpec(NamedTuple):
    """The static half of a plan request, as it rides in the request
    header: which kernel, the store layout's three integers, and the
    region length to bounds-check against."""

    kind: int
    layout: tuple
    region_length: int


def _ring_values(flat, dtype: str, rows: int):
    """A value column (or plan payload) as it left the ring: a
    ``ColumnLane.value_dtype`` ``"u1"`` is a ``rows``-row byte matrix,
    anything else a vector of that type."""
    return flat.reshape(rows, -1) if dtype == "u1" else flat.view(dtype)


def _plan_request(msg: ShmMessage, layouts: dict) -> tuple:
    """Compute one request's plan; returns ``(kind, segments)``.

    Isolated in its own frame so every zero-copy view over the request
    slot dies when it returns — the caller can then release the slot
    and, at stream end, detach the mapping without exported pointers.
    """
    meta = msg.segments[0].view("<i8")
    seq, n, fanout = int(meta[0]), int(meta[1]), int(meta[2])
    head = np.asarray([seq, meta[3]], dtype="<i8")
    try:
        spec = PlanSpec(int(meta[3]), tuple(int(v) for v in meta[4:7]),
                        int(meta[7]))
        primitive = BY_CODE[spec.kind]
        lane = primitive.home.LANE
        layout = layouts.get(spec[:2])
        if layout is None:
            layout = layouts[spec[:2]] = primitive.home.LAYOUT(*spec.layout)
        packed = msg.segments[1].reshape(n, -1)
        lengths = msg.segments[2].view("<i8")
        third = _ring_values(msg.segments[3], lane.value_dtype, n)
        plan = lane.kernel(layout, packed, lengths, third, fanout,
                           spec.region_length)
        if plan is None:
            return (RES_FALLBACK, [head])
        indices, payload = plan
        return (RES_PLAN, [head, indices.astype("<i8", copy=False),
                           np.ascontiguousarray(payload)])
    except Exception as exc:  # noqa: BLE001 - forwarded upstream
        return (RES_ERROR, [head, repr(exc).encode()])


def _plan_worker_main(index: int, req_desc: tuple, res_desc: tuple,
                      stats_name: str) -> None:
    """Worker process body: pure plans in, plan arrays out.

    Touches no deployment state — it rebuilds the store *layouts* from
    the scalar parameters each request carries (hash families are
    derived deterministically, Section 3.2, so translator, collector,
    and this worker all agree without coordination) and runs the same
    lane ``kernel`` the parent's ``plan_batch`` would.  Every
    exception is reported as a ``RES_ERROR`` message, never a silent
    exit, and a plan too large for a result slot goes back as
    ``RES_FALLBACK``.
    """
    req = ShmCreditQueue.attach(req_desc)
    res = ShmCreditQueue.attach(res_desc)
    stats_shm = shared_memory.SharedMemory(name=stats_name)
    _untrack(stats_shm)
    counters = np.frombuffer(stats_shm.buf, dtype=np.uint64)
    base = index * len(_STATS_FIELDS)
    layouts: dict = {}
    try:
        while True:
            try:
                msg = req.get()
            except QueueAborted:
                break
            if msg is CLOSED:
                break
            started = time.perf_counter_ns()
            kind, segments = _plan_request(msg, layouts)
            msg.release()
            counters[base + 3] += time.perf_counter_ns() - started
            try:
                try:
                    res.put(kind, segments)
                except ValueError:
                    kind = RES_FALLBACK
                    res.put(kind, segments[:1])
            except (QueueAborted, QueueClosed):
                break
            # planned / fallbacks / errors, in RES_* order.
            counters[base + kind - RES_PLAN] += 1
            segments = None
    finally:
        counters = None
        stats_shm.close()
        req.detach()
        res.detach()


class PlanWorkerPool:
    """N plan-worker processes with one request + one result ring each.

    Rings are strictly SPSC: the parent's submit side produces
    requests, one worker consumes them and produces results, the
    parent's apply side consumes those — in FIFO order on every ring,
    so results read back in dispatch order, which is all the apply
    stage needs to preserve submit-order state mutation.  Workers are
    stateless between requests (each carries its :class:`PlanSpec`),
    so the pool needs no knowledge of the deployment.

    Args:
        workers: Process count (>= 1).
        depth: Credit pool of each ring.
        payload_bytes: Slot payload capacity; an over-size batch simply
            fails :meth:`dispatch` and is planned by the parent.
        name: Metric/label prefix (the engine's name).
    """

    def __init__(self, workers: int, *, depth: int = 8,
                 payload_bytes: int = 1 << 18,
                 name: str = "stream") -> None:
        if workers < 1:
            raise ValueError("a plan pool needs >= 1 worker")
        self.workers = workers
        self.name = name
        self._shutdown = False
        self.requests = [
            ShmCreditQueue(depth, payload_bytes,
                           name=f"{name}.plan{i}.req")
            for i in range(workers)]
        self.results = [
            ShmCreditQueue(depth, payload_bytes,
                           name=f"{name}.plan{i}.res")
            for i in range(workers)]
        self._stats_shm = shared_memory.SharedMemory(
            create=True, size=workers * len(_STATS_FIELDS) * 8)
        self._stats_shm.buf[:] = bytes(len(self._stats_shm.buf))
        self._counters = np.frombuffer(self._stats_shm.buf,
                                       dtype=np.uint64)
        registry = obs.get_registry()
        self._gauges = [
            registry.declare_gauge(
                f"runtime.plan_worker_{field_name}",
                fn=(lambda i=i, j=j:
                    int(self._counters[i * len(_STATS_FIELDS) + j])),
                engine=name, worker=str(i))
            for i in range(workers)
            for j, field_name in enumerate(_STATS_FIELDS)]
        ctx = multiprocessing.get_context()
        self.processes = []
        for i in range(workers):
            process = ctx.Process(
                target=_plan_worker_main,
                args=(i, self.requests[i].descriptor,
                      self.results[i].descriptor, self._stats_shm.name),
                name=f"{name}-plan{i}", daemon=True)
            process.start()
            self.processes.append(process)

    # ------------------------------------------------------------------

    def worker_stats(self, index: int) -> dict:
        """This worker's shared counters, as a plain dict."""
        base = index * len(_STATS_FIELDS)
        return {field_name: int(self._counters[base + j])
                for j, field_name in enumerate(_STATS_FIELDS)}

    def _alive(self, index: int):
        process = self.processes[index]
        return lambda: process.is_alive()

    def dispatch(self, index: int, seq: int, request: tuple) -> bool:
        """Serialize a ``Translator.plan_request`` into worker
        ``index``'s ring.

        Returns False when the message is too large for a slot; the
        caller then leaves the batch to the parent's ``plan_batch``.
        """
        kind, layout, region_length, packed, lengths, third, fanout = request
        spec = PlanSpec(int(kind), astuple(layout), region_length)
        meta = np.asarray(
            [seq, packed.shape[0], fanout, spec.kind, *spec.layout,
             spec.region_length], dtype="<i8")
        try:
            self.requests[index].put(
                REQ_PLAN,
                [meta, packed, lengths.astype("<i8", copy=False), third],
                liveness=self._alive(index))
        except ValueError:
            return False
        return True

    def result(self, index: int) -> ShmMessage:
        """Blocking read of worker ``index``'s next result.

        Raises :class:`RingPeerDead` if the worker dies while we wait —
        the engine surfaces that as a translate-stage
        :class:`~repro.runtime.engine.StageError`.
        """
        message = self.results[index].get(liveness=self._alive(index))
        if message is CLOSED:
            raise RingPeerDead(
                f"worker {index} of pool '{self.name}' closed its "
                "result ring mid-stream")
        return message

    @staticmethod
    def arrays(message: ShmMessage, seq: int):
        """A result's ``(indices, payload)`` — zero-copy views, valid
        until the caller releases ``message`` — or None for
        ``RES_FALLBACK``.  Raises on ``RES_ERROR`` and on a result
        that is not batch ``seq``'s (ring order violated)."""
        if message.kind == RES_ERROR:
            raise RuntimeError("plan worker failed: "
                               + bytes(message.segments[1]).decode(
                                   "utf-8", errors="replace"))
        got, kind = (int(v) for v in message.segments[0].view("<i8"))
        if got != seq:
            raise RuntimeError(f"result for batch {got} arrived at "
                               f"batch {seq}: ring order violated")
        if message.kind == RES_FALLBACK:
            return None
        indices = message.segments[1].view("<i8")
        return indices, _ring_values(
            message.segments[2], BY_CODE[kind].home.LANE.value_dtype,
            len(indices))

    # ------------------------------------------------------------------

    def finish(self, timeout: float = 10.0) -> None:
        """Graceful end-of-stream: close request rings, join workers."""
        for ring in self.requests:
            ring.close()
        for process in self.processes:
            process.join(timeout=timeout)

    def abort(self) -> None:
        """Failure path: poison every ring so nobody blocks."""
        for ring in self.requests:
            ring.abort()
        for ring in self.results:
            ring.abort()

    def shutdown(self) -> None:
        """Tear everything down and unlink the segments.  Idempotent."""
        if self._shutdown:
            return
        self._shutdown = True
        self.abort()
        for process in self.processes:
            process.join(timeout=5.0)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if not process.is_alive():
                # Releases the sentinel-pipe fds now, not at the next GC.
                process.close()
        self.processes = []
        # The plan_worker_* gauges and worker_stats() outlive the
        # segment: they keep their last values, and the frozen gauges
        # no longer hold the pool.
        self._counters = self._counters.copy()
        for gauge in self._gauges:
            gauge.freeze()
        for ring in self.requests + self.results:
            ring.unlink()
        try:
            self._stats_shm.close()
        except BufferError:
            pass
        try:
            self._stats_shm.unlink()
        except FileNotFoundError:
            pass

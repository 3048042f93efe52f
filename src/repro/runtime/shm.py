"""Shared memory for the process lanes: parent-owned segments, pipes.

DTA keeps one writer per piece of state and lets everything else move
bytes (Section 3.1).  Both process lanes follow one idiom for it.  The
parent creates every shared segment, hands its name to a child, and
unlinks it at teardown; the child maps it with :class:`Attached` and
never unlinks, so a crashed child cannot leak a segment.  A
``multiprocessing`` pipe carries small messages only: bulk data goes
into the segment first and the message follows — the send is the
publication fence — and EOF or a broken pipe means the peer died.

The socket lane's daemons (:mod:`repro.transport.daemons`) map store
regions this way.  :class:`PlanWorkerPool` runs the translator's pure
plan kernels (a ``ColumnLane``'s ``kernel``) in worker processes for
``StreamEngine(executor="process")``; all *stateful* work stays in the
parent, applied in submit order, which makes the process lane
digest-identical to ``workers=0`` by construction (see
``docs/CONCURRENCY.md``).
"""

from __future__ import annotations

import multiprocessing
import struct
import threading
import time
from collections import deque
from dataclasses import astuple
from functools import partial
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.core.primitives import BY_CODE
from repro.runtime.queues import QueueAborted, QueueClosed


def untrack(shm) -> None:
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
        # Resolved, not allow_none: a process that never chose a method
        # gets the platform default, which on POSIX is fork.
        if multiprocessing.get_start_method() == "fork":
            return
        from multiprocessing import resource_tracker

        # The tracker knows the shm_open() name, with the leading "/"
        # that the public ``name`` property strips.
        name = shm.name
        if not name.startswith("/"):
            name = "/" + name
        resource_tracker.unregister(name, "shared_memory")
    except Exception:
        pass


class Attached:
    """Segments another process created, mapped into this one.

    ``buffers[i]`` is a memoryview over the first ``lengths[i]`` bytes
    of segment ``names[i]``.  Call :meth:`release` when done; the owner
    unlinks.
    """

    def __init__(self, names, lengths) -> None:
        self.shms: list = []
        self.buffers: list = []
        try:
            for name, length in zip(names, lengths):
                shm = shared_memory.SharedMemory(name=name)
                untrack(shm)
                self.shms.append(shm)
                self.buffers.append(shm.buf[:length])
        except BaseException:
            self.release()
            raise

    def release(self) -> None:
        """Release the views and close the mappings (never unlink).

        Users of :attr:`buffers` hold them unsliced (the store regions'
        ``MemoryRegion.buf`` *is* the view) and drop their own slices
        first, so this drops the only exports and needs neither a
        ``gc.collect()`` nor a swallowed ``BufferError``.  Idempotent.
        """
        for buf in self.buffers:
            buf.release()
        self.buffers.clear()
        for shm in self.shms:
            shm.close()
        self.shms.clear()


class RingPeerDead(RuntimeError):
    """The process on the other end of a pipe died mid-stream."""


#: Message kinds: one request, one result, plus the two ways a worker
#: says "no arrays" (nothing to plan / it failed).
REQ_PLAN = 1
RES_PLAN = 2
RES_FALLBACK = 3
RES_ERROR = 4

#: ``runtime.plan_worker_<field>``; the first three in ``RES_*`` order.
_STATS_FIELDS = ("planned", "fallbacks", "errors", "busy_ns")

#: The one pipe message, both ways: batch seq, slot, kind, the worker's
#: busy nanoseconds (results only) and the byte lengths of up to
#: :data:`_SEGMENTS` segments laid out in the slot's area (-1: absent).
_SEGMENTS = 4
_HEADER = struct.Struct(f"<qiiq{_SEGMENTS}q")


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _raw(segment):
    """A message segment (bytes or a contiguous array) as flat uint8."""
    if isinstance(segment, bytes):
        return np.frombuffer(segment, dtype=np.uint8)
    return np.ascontiguousarray(segment).view(np.uint8).reshape(-1)


def _write(area, raws: list) -> list | None:
    """Copy ``raws`` into ``area`` at 8-byte alignment; returns the
    header's segment lengths, or None (nothing written) if they do not
    fit."""
    if sum(_align8(raw.nbytes) for raw in raws) > len(area):
        return None
    offset = 0
    for raw in raws:
        area[offset:offset + raw.nbytes] = raw
        offset += _align8(raw.nbytes)
    lens = [raw.nbytes for raw in raws]
    return lens + [-1] * (_SEGMENTS - len(lens))


def _read(area, lens) -> list:
    """Zero-copy views of the segments :func:`_write` laid out."""
    segments = []
    offset = 0
    for n in lens:
        if n < 0:
            break
        segments.append(area[offset:offset + n])
        offset += _align8(n)
    return segments


def _values(flat, dtype: str, rows: int):
    """A value column (or plan payload) from a slot: ``value_dtype``
    ``"u1"`` is a ``rows``-row byte matrix, else a vector."""
    return flat.reshape(rows, -1) if dtype == "u1" else flat.view(dtype)


def _plan(segments: list, layouts: dict) -> tuple:
    """One request's plan: ``(kind, raws)`` for the result area.

    The request is ``[meta, packed, lengths, third]`` with ``meta`` =
    ``(rows, fanout, primitive code, layout[3], region_length)``.
    """
    meta = [int(v) for v in segments[0].view("<i8")]
    rows, fanout, code = meta[:3]
    try:
        primitive = BY_CODE[code]
        lane = primitive.home.LANE
        layout = layouts.get((code, *meta[3:6]))
        if layout is None:
            layout = layouts[(code, *meta[3:6])] = \
                primitive.home.LAYOUT(*meta[3:6])
        plan = lane.kernel(layout, segments[1].reshape(rows, -1),
                           segments[2].view("<i8"),
                           _values(segments[3], lane.value_dtype, rows),
                           fanout, meta[6])
        if plan is None:
            return RES_FALLBACK, []
        indices, payload = plan
        return RES_PLAN, [_raw(indices.astype("<i8", copy=False)),
                          _raw(payload)]
    except Exception as exc:  # noqa: BLE001 - forwarded upstream
        return RES_ERROR, [_raw(repr(exc).encode())]


def _serve(mem, area: int, header: bytes, layouts: dict) -> bytes:
    """Plan the request ``header`` announces; returns the result header.
    Its own frame, so every view over the slot dies on return."""
    seq, slot, _kind, _busy, *lens = _HEADER.unpack(header)
    started = time.perf_counter_ns()
    base = 2 * slot * area
    kind, raws = _plan(_read(mem[base:base + area], lens), layouts)
    if kind == RES_ERROR:
        raws[0] = raws[0][:area]
    out = mem[base + area:base + 2 * area]
    lens = _write(out, raws)
    if lens is None:
        kind, lens = RES_FALLBACK, _write(out, [])
    return _HEADER.pack(seq, slot, kind, time.perf_counter_ns() - started,
                        *lens)


def _plan_worker_main(segment: str, size: int, area: int,
                      requests, results, parent_ends) -> None:
    """Worker process body: pure plans in, plan arrays out.

    Touches no deployment state — it rebuilds the store *layouts* from
    the integers each request carries (hash families are derived
    deterministically, Section 3.2) and runs the lane ``kernel`` the
    parent's ``plan_batch`` would.  An exception is answered as
    ``RES_ERROR``, a plan too large for the result area as
    ``RES_FALLBACK``.  Exits at EOF on the request pipe or a broken
    result pipe; ``parent_ends`` (the parent's ends a forked child
    inherits, its own among them) are closed first so EOF can arrive.
    """
    for conn in parent_ends:
        conn.close()
    attached = Attached([segment], [size])
    mem = np.frombuffer(attached.buffers[0], dtype=np.uint8)
    layouts: dict = {}
    try:
        while True:
            results.send_bytes(
                _serve(mem, area, requests.recv_bytes(), layouts))
    except (EOFError, OSError):
        pass
    finally:
        del mem
        attached.release()


class PlanResult:
    """One worker's answer, read back in dispatch order.  ``segments``
    are uint8 views over the slot's result area, valid until
    :meth:`release` hands the slot's credit back."""

    __slots__ = ("kind", "seq", "code", "segments", "_free")

    def __init__(self, kind, seq, code, segments, free) -> None:
        self.kind, self.seq, self.code = kind, seq, code
        self.segments = segments
        self._free = free

    def release(self) -> None:
        """Return the slot's credit (idempotent); views die here."""
        if self._free is not None:
            self.segments = []
            self._free()
            self._free = None


class _Worker:
    """One plan worker as the parent sees it: its segment, its two
    pipe ends, its credits and free slots, and its counters."""

    __slots__ = ("shm", "mem", "requests", "results", "credits", "free",
                 "codes", "stats", "process")

    def __init__(self, depth: int, area: int, stats: dict) -> None:
        self.shm = shared_memory.SharedMemory(create=True,
                                              size=2 * depth * area)
        self.mem = np.frombuffer(self.shm.buf, dtype=np.uint8)
        self.requests = self.results = self.process = None
        self.credits = threading.Semaphore(depth)
        self.free = deque(range(depth))
        self.codes = [0] * depth        # primitive of each slot's request
        self.stats = stats

    def release(self, slot: int) -> None:
        self.free.append(slot)
        self.credits.release()


class PlanWorkerPool:
    """N plan-worker processes, one segment of slots and two pipes each.

    The submit side writes a request into a free slot and sends its
    header; the worker answers in order, and the apply side reads
    results in dispatch order — all it needs to mutate state in submit
    order.  Requests carry primitive and layout, so the pool knows
    nothing of the deployment.  The parent holds one
    :class:`threading.Semaphore` of ``depth`` credits per worker and
    counts ``runtime.plan_worker_{planned,fallbacks,errors,busy_ns}``
    (labels ``engine``, ``worker``; digest-excluded like every
    ``runtime.*`` series) from the results it reads.

    Args:
        workers: Process count (>= 1).
        depth: Slots per worker (>= 1): the requests it may hold.
        payload_bytes: Size of each slot's request area and of its
            result area; a request too big for one is not shipped
            (:meth:`dispatch` returns False) and is planned by the
            parent.
        name: Metric/label prefix (the engine's name).
    """

    def __init__(self, workers: int, *, depth: int = 8,
                 payload_bytes: int = 1 << 18,
                 name: str = "stream") -> None:
        if workers < 1 or depth < 1:
            raise ValueError(f"plan pool '{name}' needs workers >= 1 and "
                             f"depth >= 1 (got {workers}, {depth})")
        self.workers = workers
        self.name = name
        self._area = _align8(payload_bytes)
        self._aborted = False
        self._finished = False
        self._shutdown = False
        self._workers: list = []
        registry = obs.get_registry()
        ctx = multiprocessing.get_context()
        try:
            for i in range(workers):
                worker = _Worker(depth, self._area, {
                    field: registry.declare_counter(
                        f"runtime.plan_worker_{field}", engine=name,
                        worker=str(i))
                    for field in _STATS_FIELDS})
                self._workers.append(worker)
                request_in, worker.requests = ctx.Pipe(duplex=False)
                worker.results, result_out = ctx.Pipe(duplex=False)
                try:
                    process = ctx.Process(
                        target=_plan_worker_main,
                        args=(worker.shm.name, worker.shm.size,
                              self._area, request_in, result_out,
                              [conn for w in self._workers
                               for conn in (w.requests, w.results)]),
                        name=f"{name}-plan{i}", daemon=True)
                    process.start()
                    worker.process = process
                finally:
                    # The child's ends live in the child only: a dead
                    # worker is then EOF / a broken pipe here.
                    request_in.close()
                    result_out.close()
        except BaseException:
            self.shutdown()
            raise

    @property
    def processes(self) -> list:
        return [w.process for w in self._workers if w.process is not None]

    def worker_stats(self, index: int) -> dict:
        """This worker's counters, as a plain dict."""
        return {field: counter.value
                for field, counter in self._workers[index].stats.items()}

    def dispatch(self, index: int, seq: int, request: tuple) -> bool:
        """Ship a ``Translator.plan_request`` to worker ``index``.

        Blocks while all of the worker's slots are taken.  Returns False
        when the request does not fit a slot's request area; the caller
        then leaves the batch to the parent's ``plan_batch``.  Raises
        :class:`QueueAborted` after :meth:`abort`, :class:`QueueClosed`
        after :meth:`finish`, and :class:`RingPeerDead` when the worker
        has died.
        """
        code, layout, region_length, packed, lengths, third, fanout = request
        meta = np.asarray([packed.shape[0], fanout, code, *astuple(layout),
                           region_length], dtype="<i8")
        raws = [_raw(meta), _raw(packed),
                _raw(lengths.astype("<i8", copy=False)), _raw(third)]
        if sum(_align8(raw.nbytes) for raw in raws) > self._area:
            return False
        worker = self._workers[index]
        worker.credits.acquire()
        if self._aborted or self._finished:
            worker.credits.release()        # pass the wake-up on
            if self._aborted:
                raise QueueAborted(self.name)
            raise QueueClosed(self.name)
        slot = worker.free.popleft()
        base = 2 * slot * self._area
        lens = _write(worker.mem[base:base + self._area], raws)
        worker.codes[slot] = code
        try:
            worker.requests.send_bytes(
                _HEADER.pack(seq, slot, REQ_PLAN, 0, *lens))
        except OSError as exc:
            raise RingPeerDead(f"plan worker {index} of pool "
                               f"'{self.name}' died") from exc
        return True

    def result(self, index: int) -> PlanResult:
        """Blocking read of worker ``index``'s next result; raises
        :class:`RingPeerDead` if the worker dies first (the engine's
        translate-stage :class:`~repro.runtime.engine.StageError`)."""
        worker = self._workers[index]
        try:
            header = worker.results.recv_bytes()
        except (EOFError, OSError) as exc:
            raise RingPeerDead(f"plan worker {index} of pool "
                               f"'{self.name}' died mid-stream") from exc
        seq, slot, kind, busy_ns, *lens = _HEADER.unpack(header)
        worker.stats[_STATS_FIELDS[kind - RES_PLAN]].inc()
        worker.stats["busy_ns"].inc(busy_ns)
        base = (2 * slot + 1) * self._area
        return PlanResult(kind, seq, worker.codes[slot],
                          _read(worker.mem[base:base + self._area], lens),
                          partial(worker.release, slot))

    @staticmethod
    def arrays(message: PlanResult, seq: int):
        """A result's ``(indices, payload)`` — zero-copy views, valid
        until the caller releases ``message`` — or None for
        ``RES_FALLBACK``.  Raises on ``RES_ERROR`` and on a result
        that is not batch ``seq``'s (dispatch order violated)."""
        if message.kind == RES_ERROR:
            raise RuntimeError("plan worker failed: "
                               + bytes(message.segments[0]).decode(
                                   "utf-8", errors="replace"))
        if message.seq != seq:
            raise RuntimeError(f"result for batch {message.seq} arrived "
                               f"at batch {seq}: dispatch order violated")
        if message.kind == RES_FALLBACK:
            return None
        indices = message.segments[0].view("<i8")
        return indices, _values(
            message.segments[1], BY_CODE[message.code].home.LANE.value_dtype,
            len(indices))

    def finish(self, timeout: float = 10.0) -> None:
        """Graceful end-of-stream: EOF to every worker, join them."""
        self._finished = True
        self._wake()
        for worker in self._workers:
            if worker.requests is not None:
                worker.requests.close()
        for process in self.processes:
            process.join(timeout=timeout)

    def abort(self) -> None:
        """Failure path: wake a dispatcher blocked on credits; every
        later :meth:`dispatch` raises :class:`QueueAborted`."""
        self._aborted = True
        self._wake()

    def _wake(self) -> None:
        for worker in self._workers:
            worker.credits.release()

    def shutdown(self) -> None:
        """Stop the workers, close the pipes, unlink the segments.
        Idempotent; the counters stay readable."""
        if self._shutdown:
            return
        self._shutdown = True
        self.abort()
        self.finish(timeout=5.0)
        for worker in self._workers:
            process = worker.process
            if process is not None:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
                if not process.is_alive():
                    # Releases the sentinel-pipe fds now, not at a GC.
                    process.close()
                worker.process = None
            # The worker is gone, so a reader blocked on its result
            # pipe has seen EOF already.
            if worker.results is not None:
                worker.results.close()
            worker.mem = None
            try:
                worker.shm.close()
            except BufferError:     # a live result view pins the mapping
                pass
            try:
                worker.shm.unlink()
            except FileNotFoundError:
                pass

"""The staged streaming execution engine.

DTA's pipeline — reporters encode, the wire carries, the translator
converts, the collector NIC executes — is a dataflow of independent
stages, and the paper's whole argument is that it sustains line rate
because no stage ever waits on the one after it (Section 4, Fig. 6).
This module gives the reproduction that execution mode over
:class:`~repro.core.batch.ReportBatch` carriers, coupled by bounded
:class:`~repro.runtime.queues.CreditQueue` credit queues whose blocking
puts *are* the backpressure protocol.

Stage graph — one split, ``FRONT | BACK``, for every executor::

    submit() --> encode --> link --[wire]--> translate --> execute
                 `------ FRONT ------'       `------- BACK -------'

    workers=0            FRONT and BACK inline in submit()
    executor="thread"    [FRONT thread] --wire--> [BACK thread]
    executor="process"   FRONT inline in submit(), plan workers hash
                         and encode in their own processes,
                         --apply--> [BACK thread]

BACK is always one thread: everything that touches translator, NIC or
store state runs there, in submit order.  The thread executor has this
one layout for any ``workers >= 1`` (the fused, three- and four-thread
layouts of earlier revisions never beat it and were removed with the
PR 12 lane-ladder numbers in hand; see CHANGES.md).

One plan/apply pair
-------------------
The translate stage asks :meth:`Translator.plan_batch
<repro.core.translator.Translator.plan_batch>` — the single
vector-eligibility decision every lane shares — for a
:class:`~repro.core.translator.VectorPlan`; a batch that gets none goes
through ``Translator.process_batch``'s scalar reference lanes with a
verb recorder attached in place of the RDMA client.  The execute stage
lands both the same way: recorded bursts through the real
``RdmaClient.post_burst``, plans through ``VectorPlan.apply``, which
re-resolves the burst target and, if it has gone bad mid-stream (NIC
stall, QP error, revoked MR), posts the equivalent scalar burst so the
PR 3 fault machinery (bounded retry, QP re-handshake) handles it — a
fault plan firing mid-stream triggers recovery, never a hang.  The
engine itself contains no per-primitive code.

Pure-Python stages share the GIL, so the speedup comes from the numpy
kernels (:mod:`repro.kernels`), which release it.  ``executor="process"``
moves the heavy half of planning off the GIL altogether: the submit
thread writes each eligible Key-Write / Key-Increment batch's packed
columns (``Translator.plan_request``) into a slot of a plan worker's
shared segment and sends the slot's header down its pipe
(:mod:`repro.runtime.shm`), the workers run the same pure plan kernels
``plan_batch`` would, and the BACK thread hands the returned arrays to
``plan_batch(arrays=...)`` — in strict submit order (the stateful plans
— Postcarding, Append, Sketch-Merge — are made in the BACK thread
itself, where their state lives).  A worker dying mid-stream is EOF or
a broken pipe, surfaced as a translate-stage :class:`StageError`, never
a hang, and :meth:`StreamEngine.close` unlinks every shared segment.

Plans as wide as the next observer
----------------------------------
A submit's fixed cost — target resolution, stats, the stage table, a
dozen numpy calls per plan — does not depend on its width, so the
translate stage does not plan at the submitted width.  A plain batch
(``Translator.may_merge``) narrower than :data:`MERGE_CAP` waits in the
run of its primitive; the run is planned as one ``plan_batch`` call
over :meth:`ReportBatch.concat <repro.core.batch.ReportBatch.concat>`
when it reaches the cap, or at the first *cut* — :meth:`snapshot`,
:meth:`checkpoint`, :attr:`executed_seq`, :meth:`drain`,
:meth:`close`, a retention rotation boundary, a change of reporter or
run-wide ``extra``, or any carrier that is not held (essential,
immediate, per-report raws, plan-worker arrays, at or above the cap,
rejected by its service).  A cut plans every held run and applies them
all under one :attr:`store_lock` hold.  Inline, runs persist across
submits and a reader's snapshot makes the cut itself; the BACK thread
merges only what is already queued.  ``docs/CONCURRENCY.md`` ("Plan
width is not observable") says why no digest can tell.

Determinism contract
--------------------
``docs/CONCURRENCY.md`` is the single source of truth for this
contract; the short form: the computation — collector store bytes and
every obs series outside the :func:`pipeline_digest` exclusion rule —
is identical for any ``workers``/``executor``/queue-depth setting,
because (a) queues are FIFO, so carriers reach each stage in submit
order; (b) every stats object has exactly one writer stage (reporter
stats in encode, :class:`~repro.fabric.link.StreamLink` stats in link,
translator stats + loss detector in translate, NIC/QP/client
bookkeeping in execute); and (c) the wall-clock-dependent series — every
``runtime.*`` queue/stall/worker series plus the serving tier's
``queries.wall_ns`` histogram — are excluded from digest comparisons
by :func:`pipeline_digest`.  ``workers=0`` composes the same stage
functions synchronously inside :meth:`StreamEngine.submit`, making it
bit-identical to the threaded runs — and, on every shared series, to
the plain serial ``send_batch`` loop.

The contract extends to readers: the execute stage is the *only* store
writer, and it applies each burst under :attr:`StreamEngine.store_lock`.
:meth:`StreamEngine.snapshot` takes the same lock, so every snapshot
lands exactly on a batch boundary — a reader can never observe a
partially applied burst, no matter how many reader threads run against
a live stream.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager

from repro import obs
from repro.core import primitives
from repro.core.batch import ReportBatch
from repro.fabric.link import StreamLink
from repro.runtime.queues import CLOSED, CreditQueue, QueueAborted
from repro.runtime.shm import PlanWorkerPool, RingPeerDead

STAGES = ("encode", "link", "translate", "execute")

#: The one stage split (see the module docstring).
FRONT, BACK = STAGES[:2], STAGES[2:]

#: Sequence number used for end-of-stream finalizer work (epoch
#: flushes), which belongs to no submitted batch.
FLUSH_SEQ = -1

#: The widest run of held batches the translate stage plans as one; a
#: batch this wide or wider passes through as submitted.  Chosen from
#: 128 / 192 / 256 by paired measurement on ``serve_mixed_queries``:
#: a wider run speeds ingest further, but every held report is work
#: the next snapshot's cut pays for inside the query tick.
MERGE_CAP = 192

#: :meth:`StreamEngine.drain` waits for its stage threads as long as
#: they keep finishing carriers; a thread still alive after this many
#: seconds in which no stage finished one is wedged, and drain raises
#: :class:`StageStalled` instead of hanging.
DRAIN_STALL_S = 30.0


class StageError(RuntimeError):
    """A stage raised mid-stream; carries the failing batch identity."""

    def __init__(self, stage: str, batch_seq: int,
                 cause: BaseException) -> None:
        self.stage = stage
        self.batch_seq = batch_seq
        detail = ("the end-of-stream flush" if batch_seq == FLUSH_SEQ
                  else f"batch {batch_seq}")
        super().__init__(
            f"stage '{stage}' failed on {detail}: {cause!r}")


class StageStalled(StageError):
    """A stage thread stopped making progress and :meth:`drain
    <StreamEngine.drain>` gave up on it — the stream did not complete."""

    def __init__(self, stage: str, batch_seq: int,
                 stalled_s: float) -> None:
        self.stage = stage
        self.batch_seq = batch_seq
        applied = ("no batch" if batch_seq == FLUSH_SEQ
                   else f"batch {batch_seq}")
        RuntimeError.__init__(
            self, f"stage '{stage}' finished no carrier for "
                  f"{stalled_s:g} s during drain ({applied} was the "
                  "last one applied)")


class StageStats(obs.InstrumentedStats):
    """Per-stage carrier/report throughput counters."""

    component = "runtime"

    carriers = obs.counter_field()
    reports = obs.counter_field()


class _Carrier:
    """One submit's worth of in-flight reports between stages.

    ``worker`` is the plan worker the batch's columns were shipped to
    (process executor), ``arrays`` that worker's plan arrays once the
    BACK thread has read them.
    """

    __slots__ = ("seq", "batch", "raws", "worker", "arrays")

    def __init__(self, seq, batch=None, raws=None):
        self.seq = seq
        self.batch = batch
        self.raws = raws
        self.worker = None
        self.arrays = None

    def __len__(self) -> int:
        if self.batch is not None:
            return len(self.batch)
        return len(self.raws or ())


class _Run:
    """Held carriers of one primitive, one reporter and one run-wide
    ``extra`` (``key``), planned as one batch at the next cut."""

    __slots__ = ("key", "carriers", "reports")

    def __init__(self, key) -> None:
        self.key = key
        self.carriers: list = []
        self.reports = 0


class _Burst:
    """Ordered RDMA emission of one carrier, bound for execute: verb
    lists (recorded scalar bursts) and :class:`VectorPlan` objects."""

    __slots__ = ("seq", "ops")

    def __init__(self, seq, ops):
        self.seq = seq
        self.ops = ops


class _DeferringClient:
    """Stands in for the RDMA client inside the translate stage.

    Records verb bursts in emission order; the execute stage replays
    them against the real client, so accounting and fault behaviour
    stay the reference implementation's — just one stage later.  It
    has no queue pair, so nothing can be planned against it
    (``kernels.burst.resolve_target`` declines).
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: list = []

    def post_burst(self, wrs) -> None:
        if wrs:
            self.ops.append(list(wrs))

    def take(self) -> list:
        ops, self.ops = self.ops, []
        return ops


class StreamEngine:
    """Run a direct-mode deployment as a concurrent staged pipeline.

    Args:
        collector: The deployment's collector (store digests, wiring).
        translator: Its translator; the engine temporarily rewires
            ``client``/``control_sink``/``vectorized`` while streaming
            and restores them in :meth:`close`.
        reporter: The reporter whose emissions feed the stream; its
            ``transmit``/``transmit_batch`` hooks are captured.
        workers: 0 runs every stage inline in :meth:`submit` (the
            deterministic serial fallback).  With ``executor="thread"``
            any value >= 1 runs the one FRONT/BACK thread pair; with
            ``executor="process"`` it is the number of plan worker
            processes.
        queue_depth: Credit pool of every inter-stage queue.
        vectorized: Whether the translator may plan batches (any of
            the five primitives) as burst-kernel calls while streaming
            (defaults to the translator's own ``vectorized`` flag).
        executor: ``"thread"`` or ``"process"`` (plan workers as
            processes over shared-memory slots); see the module
            docstring.  Ignored when ``workers=0``.
        retention: Optional
            :class:`~repro.retention.manager.RetentionManager`; its
            ``on_batch`` hook runs in the execute stage under
            :attr:`store_lock` before batch k·``rotate_every`` applies,
            whether or not that batch emits anything, so epoch
            rotation lands exactly on a batch boundary and snapshots
            never see a half-rotated store.  Rotation points are batch
            sequence numbers, so the retention counters stay
            digest-identical across worker counts, executors and plan
            widths.
        name: Label for the engine's link and metric series.
    """

    def __init__(self, collector, translator, reporter, *,
                 workers: int = 2, queue_depth: int = 64,
                 vectorized: bool | None = None,
                 executor: str = "thread",
                 retention=None,
                 name: str = "stream") -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process' (got {executor!r})")
        if vectorized is None:
            vectorized = translator.vectorized
        self.collector = collector
        self.translator = translator
        self.reporter = reporter
        self.workers = workers
        self.queue_depth = queue_depth
        self.executor = executor
        self.retention = retention
        self.name = name
        self.link = StreamLink(name=name)
        self._vectorized = bool(vectorized)
        self._defer = _DeferringClient()
        self._real_client = None
        self._captured_batches: list = []
        self._captured_raws: list = []
        #: ``(src, raw)`` control frames (NACK/congestion) the translate
        #: stage produced; delivered downstream after :meth:`drain` so
        #: reporter state keeps its single writer while streaming.
        self.pending_controls: list = []
        self._stage_stats = {
            stage: StageStats(labels={"stage": stage, "engine": name})
            for stage in STAGES}
        self._stage_fns = {"encode": self._encode_stage,
                           "link": self._link_stage,
                           "translate": self._translate_stage,
                           "execute": self._execute_stage}
        #: Serializes store mutation (execute stage) against snapshot
        #: acquisition; see "Determinism contract" above.
        self.store_lock = threading.Lock()
        #: Serializes the translate and execute stages — and the cuts
        #: a reader's :meth:`snapshot` makes — over the held runs.
        self._back_lock = threading.Lock()
        #: ``primitive code -> _Run`` held for a wider plan.
        self._runs: dict = {}
        #: Sequence of the first carrier held since the last cut.
        self._held_from: int | None = None
        #: Sequence of the last carrier the BACK stages took in.
        self._seen_seq: int | None = None
        self._executed_seq: int | None = None
        self._queues: list = []
        self._threads: list = []
        self._pool = None
        self._rr = 0
        self._seq = 0
        self._error: StageError | None = None
        self._error_lock = threading.Lock()
        self._saved: dict | None = None
        self._started = False
        self._drained = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "StreamEngine":
        """Rewire the deployment and launch the stage threads."""
        if self._started:
            return self
        if self._closed:
            raise RuntimeError("engine already closed")
        process = self.workers > 0 and self.executor == "process"
        if process and self._vectorized:
            # Forked before any engine thread exists, and before the
            # deployment is rewired: a pool that fails to start has
            # already cleaned up after itself, and nothing needs undoing.
            self._pool = PlanWorkerPool(
                self.workers, depth=min(self.queue_depth, 16),
                name=self.name)
        translator = self.translator
        reporter = self.reporter
        self._saved = {
            "transmit": reporter.transmit,
            "transmit_batch": reporter.transmit_batch,
            "client": translator.client,
            "control_sink": translator.control_sink,
            "vectorized": translator.vectorized,
        }
        self._real_client = translator.client
        reporter.transmit = self._captured_raws.append
        reporter.transmit_batch = self._captured_batches.append
        translator.client = self._defer
        translator.vectorized = self._vectorized
        translator.control_sink = self._sink_control
        if self.workers > 0:
            self._queues = [
                CreditQueue(self.queue_depth, name=f"{self.name}.{label}")
                for label in (("apply",) if process
                              else ("submit", "wire"))]
            loops = [(BACK, self._run_back)]
            if not process:
                loops.insert(0, (FRONT, self._run_front))
            for stages, target in loops:
                thread = threading.Thread(
                    target=target, daemon=True,
                    name=f"{self.name}-{'+'.join(stages)}")
                self._threads.append(thread)
                thread.start()
        self._started = True
        return self

    def submit(self, batch) -> int:
        """Feed one :class:`ReportBatch` into the stream.

        Blocks when the submit queue is out of credits (backpressure
        reaching the caller).  Returns the batch's sequence number —
        the identity a :class:`StageError` names if this batch later
        fails.  Raises the pending :class:`StageError` as soon as any
        stage has died.
        """
        if not self._started:
            raise RuntimeError("engine not started")
        if self._drained:
            raise RuntimeError("engine already drained")
        if self._error is not None:
            raise self._error
        if self._closed:
            raise RuntimeError("engine already closed")
        seq = self._seq
        self._seq += 1
        carrier = _Carrier(seq, batch=batch)
        items = [carrier]
        if self.workers == 0 or self.executor == "process":
            # Inline: every stage runs here.  Process executor: FRONT
            # does (its stats keep a single writer); the thread
            # executor's FRONT thread takes the carrier as submitted.
            try:
                items = self._run_stages(FRONT, 0, items)
                if self.workers == 0:
                    with self._back_lock:
                        # A reader's cut may have failed meanwhile.
                        if self._error is None:
                            for item in items:
                                self._back(item)
            except BaseException as exc:
                self._fail(getattr(exc, "_repro_stage", "encode"),
                           getattr(exc, "_repro_seq", seq), exc)
                raise self._error from exc
            if self.workers == 0:
                if self._error is not None:
                    raise self._error
                return seq
        try:
            for item in items:
                self._ship(item)
                # Queue order IS submit order — shipped or not, every
                # carrier reaches the BACK thread through this queue.
                self._queues[0].put(item)
        except QueueAborted as aborted:
            error = self._error
            if error is None:
                error = StageError("submit", seq, aborted)
            raise error from error.__cause__
        except RingPeerDead as dead:
            self._fail("translate", seq, dead)
            raise self._error from dead
        return seq

    def _ship(self, carrier: _Carrier) -> None:
        """Process executor: send a batch's plan request to a worker.

        Round-robin over the plan workers; ``carrier.worker`` tells the
        BACK thread whose result pipe to read.  A batch
        ``plan_request`` declines, or whose columns do not fit a slot,
        is simply not shipped — ``plan_batch`` still sees it.
        """
        pool = self._pool
        if pool is None or carrier.batch is None:
            return
        request = self.translator.plan_request(carrier.batch,
                                               self._real_client)
        index = self._rr % pool.workers
        if request is not None \
                and pool.dispatch(index, carrier.seq, request):
            carrier.worker = index
            self._rr += 1

    def drain(self) -> None:
        """End the stream: flush, wait for every stage, surface errors.

        Closes the submit queue and joins the stage threads (the BACK
        thread runs the end-of-stream finalizer — the translator's
        end-of-epoch Append flush — before it exits), then delivers any
        pending control frames to the deployment's original
        ``control_sink``.  Raises the first :class:`StageError` if a
        stage died; the pipeline is fully unwound either way.  A stage
        thread that stops finishing carriers for :data:`DRAIN_STALL_S`
        is a :class:`StageStalled`: the queues are aborted, the thread
        is left to :meth:`close`.  Idempotent.
        """
        if not self._started:
            raise RuntimeError("engine not started")
        if self.workers == 0:
            if not self._drained:
                self._drained = True
                try:
                    with self._back_lock:
                        if self._error is None:
                            self._flush()
                        self._finalize()
                except BaseException as exc:
                    self._fail(getattr(exc, "_repro_stage", "translate"),
                               getattr(exc, "_repro_seq", FLUSH_SEQ), exc)
        else:
            self._drained = True
            self._queues[0].close()
            self._join_stages()
            if self._pool is not None:
                self._pool.finish()
        if self._error is not None:
            raise self._error
        self._deliver_controls()

    def _join_stages(self) -> None:
        """Join every stage thread, for as long as the stages progress."""
        def finished() -> tuple:
            return tuple(stats.carriers
                         for stats in self._stage_stats.values())

        for thread in self._threads:
            while thread.is_alive():
                before = finished()
                thread.join(timeout=DRAIN_STALL_S)
                if thread.is_alive() and finished() == before:
                    applied = self._executed_seq
                    self._abort(StageStalled(
                        thread.name.rpartition("-")[2],
                        FLUSH_SEQ if applied is None else applied,
                        DRAIN_STALL_S))
                    return

    def close(self) -> None:
        """Restore the deployment's wiring; abort any leftover stream.

        After close the collector/translator/reporter triple works
        exactly as before :meth:`start` — in particular the PR 3
        recovery sweep (:func:`repro.faults.recovery.drain_losses`)
        operates on it normally.  Idempotent; safe after errors.
        Inline, batches still held land first; a :class:`StageError`
        they raise is re-raised once the wiring is restored.
        """
        if self._closed:
            return
        failed = None
        if self.workers == 0 and self._started:
            # Inline submit used to apply every batch before it
            # returned: what is still held lands now.
            try:
                with self._observed():
                    pass
            except StageError as error:
                failed = error
        self._closed = True
        for queue in self._queues:
            queue.abort()
        if self._pool is not None:
            self._pool.abort()
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._pool is not None:
            self._pool.shutdown()
        if self._saved is not None:
            self.reporter.transmit = self._saved["transmit"]
            self.reporter.transmit_batch = self._saved["transmit_batch"]
            self.translator.client = self._saved["client"]
            self.translator.control_sink = self._saved["control_sink"]
            self.translator.vectorized = self._saved["vectorized"]
            self._saved = None
        # The stage table holds bound methods of ``self``: dropped here,
        # a closed engine (and the deployment it names) is reclaimed by
        # reference count, not whenever the cycle collector next runs.
        self._stage_fns = {}
        self._runs.clear()
        if failed is not None:
            raise failed

    def __enter__(self) -> "StreamEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def error(self) -> StageError | None:
        return self._error

    # ------------------------------------------------------------------
    # Stage functions (each stats object has exactly one writer stage)
    # ------------------------------------------------------------------

    def _encode_stage(self, carrier: _Carrier) -> list:
        """Reporter emission: congestion check, seq/backup assignment."""
        sent = self.reporter.send_batch(carrier.batch)
        out = []
        if self._captured_batches:
            batches, self._captured_batches[:] = \
                list(self._captured_batches), []
            for batch in batches:
                out.append(_Carrier(carrier.seq, batch=batch))
        if self._captured_raws:
            raws, self._captured_raws[:] = list(self._captured_raws), []
            out.append(_Carrier(carrier.seq, raws=raws))
        stats = self._stage_stats["encode"]
        stats.carriers += len(out)
        stats.reports += sent
        return out

    def _link_stage(self, carrier: _Carrier):
        """Wire accounting (and the fault-window drop point)."""
        if carrier.batch is not None:
            size = carrier.batch.wire_bytes()
        else:
            size = sum(len(raw) + 42 for raw in carrier.raws)
        n = len(carrier)
        stats = self._stage_stats["link"]
        stats.carriers += 1
        stats.reports += n
        if not self.link.transmit(n, size):
            return None
        return carrier

    def _translate_stage(self, carrier: _Carrier):
        """Report -> plan or verbs; RDMA emission is deferred.

        ``plan_batch`` decides against the *real* client; a batch it
        declines runs the translator's scalar lanes into the recorder.
        """
        translator = self.translator
        if carrier.batch is not None:
            plan = translator.plan_batch(carrier.batch, self._real_client,
                                         arrays=carrier.arrays)
            if plan is not None:
                ops = [plan]
            else:
                translator.process_batch(carrier.batch)
                ops = self._defer.take()
        else:
            for raw in carrier.raws:
                translator.handle_report(raw)
            ops = self._defer.take()
        stats = self._stage_stats["translate"]
        stats.carriers += 1
        stats.reports += len(carrier)
        # A batch that emits nothing still reaches ``_apply`` (and
        # ``on_batch``): rotation points are batch seqs, not emissions.
        return _Burst(carrier.seq, ops)

    def _translate_finalize(self) -> list:
        """End-of-stream epoch work: flush partial Append batches."""
        self.translator.flush_appends()
        ops = self._defer.take()
        if not ops:
            return []
        return [_Burst(FLUSH_SEQ, ops)]

    def _execute_stage(self, burst: _Burst) -> None:
        """Land the burst through the real RDMA client (:meth:`_apply`)."""
        self._apply([burst], None if burst.seq == FLUSH_SEQ else burst.seq)
        return None

    def _apply(self, bursts: list, seq: int | None = None) -> None:
        """Land ``bursts`` in order under one :attr:`store_lock` hold.

        This stage is the only store writer, so holding the lock per
        call makes batch boundaries the only states a :meth:`snapshot`
        can see; ``seq`` is the batch every applied one up to is now
        fully in the store (None: not known yet, other batches held).
        """
        client = self._real_client
        self._stage_stats["execute"].carriers += len(bursts)
        retention = self.retention
        with self.store_lock:
            for burst in bursts:
                # Retention rotation fires *before* a burst of a later
                # epoch applies: every batch below burst.seq is fully
                # in the store and nothing of burst.seq is, so the
                # epoch boundary coincides with a batch boundary (the
                # batch-boundary snapshot rule).  Held runs never
                # straddle one.
                if retention is not None and burst.seq != FLUSH_SEQ:
                    retention.on_batch(burst.seq)
                for op in burst.ops:
                    if isinstance(op, list):
                        client.post_burst(op)
                    else:
                        op.apply(client)
            if seq is not None:
                self._executed_seq = seq

    # ------------------------------------------------------------------
    # Held runs: plans as wide as the next observer
    # ------------------------------------------------------------------

    def _back(self, carrier: _Carrier) -> None:
        """The BACK stages for one carrier, under ``_back_lock``: hold
        it in its primitive's run, or cut — land everything held — and
        translate and execute it as submitted."""
        batch = carrier.batch
        if (batch is not None and carrier.worker is None
                and len(batch) < MERGE_CAP
                and self.translator.may_merge(batch)):
            self._hold(carrier)
            return
        self._flush()
        self._seen_seq = carrier.seq
        self._pass(carrier)
        self._executed_seq = carrier.seq

    def _hold(self, carrier: _Carrier) -> None:
        """Add a plain batch to its run; plan the run once it is
        :data:`MERGE_CAP` reports wide."""
        batch = carrier.batch
        kind = batch.primitive
        key = (batch.reporter_id, primitives.BY_CODE[kind].extra_of(batch))
        run = self._runs.get(kind)
        if (run is not None and run.key != key) or (
                self._held_from is not None and self.retention is not None
                and self.retention.rotates_between(self._held_from,
                                                   carrier.seq)):
            self._flush()
            run = None
        if run is None:
            if self._held_from is None:
                self._held_from = carrier.seq
            run = self._runs[kind] = _Run(key)
        self._seen_seq = carrier.seq
        run.carriers.append(carrier)
        run.reports += len(batch)
        if run.reports >= MERGE_CAP:
            self._flush(kind)

    def _flush(self, kind=None) -> None:
        """The cut: plan every held run — at the width cap, the run of
        primitive ``kind`` — and apply them under one
        :attr:`store_lock` hold."""
        runs = self._runs
        if not runs:
            return
        planned = list(runs.values()) if kind is None else [runs[kind]]
        if kind is None:
            runs.clear()
        else:
            del runs[kind]
        if not runs:
            self._held_from = None
        bursts: list = []
        for run in planned:
            bursts += self._plan_run(run)
        try:
            self._apply(bursts, None if runs else self._seen_seq)
        except BaseException as exc:
            exc._repro_stage = "execute"
            exc._repro_seq = planned[0].carriers[0].seq
            raise

    def _plan_run(self, run: _Run) -> list:
        """A run's bursts: one plan of all its batches, or each batch's
        own where that plan declines."""
        carriers = run.carriers
        if len(carriers) > 1:
            batch = ReportBatch.concat([c.batch for c in carriers])
            try:
                plan = self.translator.plan_batch(batch, self._real_client)
            except BaseException as exc:
                exc._repro_stage = "translate"
                exc._repro_seq = carriers[0].seq
                raise
            if plan is not None:
                stats = self._stage_stats["translate"]
                stats.carriers += len(carriers)
                stats.reports += run.reports
                return [_Burst(carriers[0].seq, [plan])]
        bursts: list = []
        for carrier in carriers:
            try:
                bursts += self._run_stages(BACK[:1], 0, [carrier])
            except BaseException as exc:
                exc._repro_seq = carrier.seq
                raise
        return bursts

    def _pass(self, carrier: _Carrier) -> None:
        """Translate and execute one carrier as submitted."""
        try:
            self._run_stages(BACK, 0, [carrier])
        except BaseException as exc:
            exc._repro_seq = carrier.seq
            raise

    @contextmanager
    def _observed(self):
        """Hold the BACK stages still with every held run landed, so
        what the body reads is a batch boundary.  Lands nothing once a
        stage has failed: the held runs died with the stream."""
        with self._back_lock:
            if self._error is None:
                try:
                    self._flush()
                except BaseException as exc:
                    self._fail(getattr(exc, "_repro_stage", "translate"),
                               getattr(exc, "_repro_seq", FLUSH_SEQ), exc)
                    raise self._error from exc
            yield

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _run_front(self) -> None:
        """Thread executor: submit queue -> FRONT stages -> wire queue."""
        inq, outq = self._queues
        seq = FLUSH_SEQ
        try:
            while True:
                item = inq.get()
                if item is CLOSED:
                    break
                seq = item.seq
                for out in self._run_stages(FRONT, 0, [item]):
                    outq.put(out)
            outq.close()
        except QueueAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - must reach caller
            self._fail(getattr(exc, "_repro_stage", "encode"), seq, exc)

    def _run_back(self) -> None:
        """The BACK thread: all stateful work, in queue order."""
        inq = self._queues[-1]
        seq = FLUSH_SEQ
        try:
            while True:
                item = inq.get()
                if item is CLOSED:
                    break
                seq = item.seq
                message = None
                try:
                    if item.worker is not None:
                        message = self._pool.result(item.worker)
                        item.arrays = self._pool.arrays(message, item.seq)
                    with self._back_lock:
                        self._back(item)
                        # Merge only what is already queued.
                        if not len(inq):
                            self._flush()
                finally:
                    if message is not None:
                        # The arrays are views over the result slot.
                        item.arrays = None
                        message.release()
            seq = FLUSH_SEQ
            with self._back_lock:
                self._flush()
                self._finalize()
        except QueueAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - must reach caller
            self._fail(getattr(exc, "_repro_stage", "translate"),
                       getattr(exc, "_repro_seq", seq), exc)

    def _finalize(self) -> None:
        """Input ended: the translate finalizer, then execute."""
        try:
            bursts = self._translate_finalize()
        except BaseException as exc:
            exc._repro_stage = "translate"
            raise
        self._run_stages(BACK, 1, bursts)

    def _run_stages(self, stages, start: int, items: list) -> list:
        """Push ``items`` through ``stages[start:]`` synchronously."""
        for name in stages[start:]:
            if not items:
                break
            fn = self._stage_fns[name]
            next_items: list = []
            for item in items:
                try:
                    out = fn(item)
                except QueueAborted:
                    raise
                except BaseException as exc:
                    exc._repro_stage = name
                    raise
                if out is None:
                    continue
                if isinstance(out, list):
                    next_items.extend(out)
                else:
                    next_items.append(out)
            items = next_items
        return items

    def _fail(self, stage: str, seq: int, exc: BaseException) -> None:
        error = StageError(stage, seq, exc)
        error.__cause__ = exc
        self._abort(error)

    def _abort(self, error: StageError) -> None:
        """Keep the first failure and wake everything blocked on a queue."""
        with self._error_lock:
            if self._error is None:
                self._error = error
                obs.emit("runtime", "stage_error", engine=self.name,
                         stage=error.stage, batch_seq=error.batch_seq)
        for queue in self._queues:
            queue.abort()
        if self._pool is not None:
            self._pool.abort()

    # ------------------------------------------------------------------
    # Control frames
    # ------------------------------------------------------------------

    def _sink_control(self, src, raw) -> None:
        self.pending_controls.append((src, raw))

    def _deliver_controls(self) -> None:
        """Hand collected control frames to the original sink, if any.

        In direct-mode deployments without a sink the frames stay in
        :attr:`pending_controls` — exactly the frames the serial path
        would have dropped on the floor — where the recovery sweep
        (:func:`repro.faults.recovery.recover_stream`) can still apply
        them to the reporter.
        """
        sink = (self._saved or {}).get("control_sink")
        if sink is None:
            return
        frames, self.pending_controls = self.pending_controls, []
        for src, raw in frames:
            sink(src, raw)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def queues(self) -> list:
        return list(self._queues)

    @property
    def executed_seq(self) -> int | None:
        """Sequence of the last batch fully in the store (None before
        any).  A cut: held runs land first."""
        with self._observed():
            return self._executed_seq

    def snapshot(self, into=None):
        """Freeze the collector's stores at a batch boundary.

        Takes :attr:`store_lock`, so the copy happens strictly between
        burst applications: the returned
        :class:`~repro.queries.snapshot.CollectorSnapshot` reflects
        every submitted batch up to ``snapshot.batch_seq`` and nothing
        of any later one.  Cheap (a memcpy per store region), so
        thousands of readers can snapshot while the stream ingests.

        With no argument the result is a fresh copy nothing will touch
        again.  ``into`` is a snapshot this engine returned and the
        caller alone still reads: it is refreshed in place under the
        same lock (see :func:`~repro.queries.snapshot.snapshot_of`) and
        returned, valid until the caller's next refresh.
        """
        from repro.queries.snapshot import snapshot_of

        with self._observed(), self.store_lock:
            return snapshot_of(self.collector,
                               batch_seq=self._executed_seq, into=into)

    def checkpoint(self, path: str, *, extra: dict | None = None,
                   overwrite: bool = False) -> str:
        """Write a crash-consistent checkpoint at a batch boundary.

        Takes :attr:`store_lock` like :meth:`snapshot`, so the
        ``repro-ckpt/1`` directory reflects every applied batch up to
        ``executed_seq`` and nothing of any in-flight one.  Requires a
        ``retention`` manager (it owns the epoch state that rides in
        the manifest).
        """
        if self.retention is None:
            raise RuntimeError("engine has no retention manager")
        with self._observed(), self.store_lock:
            return self.retention.checkpoint(
                path, batch_seq=self._executed_seq, extra=extra,
                overwrite=overwrite)


# ----------------------------------------------------------------------
# Digest helpers — the determinism contract, made checkable
# ----------------------------------------------------------------------


def pipeline_series(series: str) -> bool:
    """Whether :func:`pipeline_digest` hashes ``series``: every one but
    those no computation fixes.

    Queue depths, stalls, and stall times (``runtime.*``) measure
    *scheduling*, query wall time (``queries.wall_ns``) the host
    clock, and the socket lane's datagram path (``transport.*``: no
    other lane has one; its receive bursts are the kernel's).
    """
    return not (series.startswith(("runtime.", "transport."))
                or series == "queries.wall_ns")


def pipeline_digest(snapshot) -> str:
    """SHA-256 over the snapshot's :func:`pipeline_series`.

    They measure the *computation* and must be bit-identical across
    worker counts, queue depths and lanes.  This digest is what the
    differential tests and the gating commands compare.
    """
    from repro.obs.registry import Snapshot

    samples = {key: value for key, value in snapshot.samples.items()
               if pipeline_series(key[0])}
    kinds = {key: kind for key, kind in snapshot.kinds.items()
             if pipeline_series(key[0])}
    filtered = Snapshot(epoch=snapshot.epoch, samples=samples, kinds=kinds)
    return "sha256:" + hashlib.sha256(
        obs.to_jsonl(filtered).encode()).hexdigest()


def store_digest(collector, staged: dict | None = None) -> str:
    """SHA-256 over every served store's memory region, in fixed order
    (with ``staged``, over its ``{store: bytes}`` in their place)."""
    return regions_digest(
        (primitive.store, bytes(store.region.buf) if staged is None
         else staged[primitive.store])
        for primitive, store in primitives.served(collector))


def regions_digest(regions) -> str:
    """:func:`store_digest` over ``(store, region bytes)`` pairs, taken
    from ``regions`` (served order) one at a time."""
    digest = hashlib.sha256()
    for store, data in regions:
        digest.update(store.encode())
        digest.update(data)
    return "sha256:" + digest.hexdigest()

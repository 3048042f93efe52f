"""The deployment lane: real processes, real sockets, two digest gates.

``run_serve`` drives a seeded workload through two lanes and demands
bit-identical collector stores and obs digests (a daemon's counters
reach the parent only as snapshots of its registry, merged by
:meth:`SocketLane.view`):

* **socket lane** — a :class:`SocketLane`: N collector daemons over
  shared-memory store segments, ``--translators T`` translator daemons
  on UDP sockets, and a
  :class:`~repro.transport.reporter.SocketReporter` whose transmit
  path applies the seeded loss shim, then coalesces survivors into
  ``KIND_FRAME`` envelopes and sends them in ``sendmmsg`` bursts.
  Each collector shard's traffic rides lane ``shard % T``, so every
  store segment keeps exactly one writing daemon.
* **reference lane** — the same pre-encoded report bytes through the
  same :class:`~repro.transport.assembler.ReportAssembler` and a shim
  built from the same :class:`~repro.transport.loss.LossSpec`, all in
  this process, deliberately on the *scalar* paths: per-report
  ``feed`` (no frames, no numpy codecs) into scalar-translate
  translators.  Digest equality is therefore a differential over the
  whole vectorized stack, not two copies of one implementation.

Because both lanes share the byte stream, the impairment schedule, and
the routing map, digest equality is a property of the transport —
kernel reordering hidden by the lane envelope, no kernel loss thanks
to the ACK window — rather than of two implementations happening to
agree.  This is the ``workers=0`` determinism contract of
docs/CONCURRENCY.md extended across process and socket boundaries.

Beyond digests, the lane gates *conservation*: every emitted
envelope delivered in order, every delivered report decoded, and the
control channel (ACKs + NACKs) accounted on both ends — bytes received
by the reporter never exceed bytes the daemons sent.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import bench, obs
from repro.core.cluster import ClusterMap
from repro.core.primitives import BY_CODE
from repro.core.translator import Translator
from repro.runtime.engine import pipeline_digest, store_digest
from repro.runtime.queues import _clock
from repro.transport.assembler import ReportAssembler
from repro.transport.daemons import (
    collector_daemon_main,
    provision_collector,
    segment_plan,
    translator_daemon_main,
)
from repro.transport.loss import LossSpec
from repro.transport.reporter import SocketReporter, WindowStalled
from repro.workloads import reports as workload

_READY_TIMEOUT_S = 30.0
_DRAIN_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 5.0


#: :meth:`SocketLane.drain` key -> the series its roll-up total sums.
DRAIN_SERIES = {key: (f"transport.{key}",) for key in (
    "reports", "batches", "per_report", "malformed", "rejected",
    "delivered", "duplicates", "waiting", "ctrl_datagrams_sent",
    "ctrl_bytes_sent", "expected_reports")} | {
    "rdma_messages": ("translator.rdma_writes", "translator.rdma_atomics"),
    "nacks_sent": ("translator.nacks_sent",)}


class ServeError(RuntimeError):
    """The socket lane failed structurally (daemon death, timeout)."""


@dataclass(frozen=True)
class ServeSpec:
    """Everything that determines a deployment-lane run.

    ``batch_size`` bounds the assembler's list-lane runs (Postcarding,
    Append, Sketch-Merge, and whatever the translator declines to
    plan); a planned Key-Write / Key-Increment segment is as wide as
    the receive burst delivered it, whatever this says.
    """

    primitive: str = "key_write"
    reports: int = 20000
    collectors: int = 2
    batch_size: int = 256
    seed: int = 1
    loss: LossSpec = field(default_factory=LossSpec)
    vectorized: bool = True
    window: int = 2048
    translators: int = 1
    frame_bytes: int = 1400

    def __post_init__(self) -> None:
        if self.primitive not in workload.PRIMITIVES:
            raise ValueError(f"unknown primitive '{self.primitive}'")
        if self.reports <= 0:
            raise ValueError("reports must be positive")
        if self.collectors <= 0:
            raise ValueError("need at least one collector")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.translators <= 0:
            raise ValueError("need at least one translator")
        if self.frame_bytes < 64:
            raise ValueError("frame_bytes must be at least 64")

    @property
    def sketch_width(self) -> int:
        return workload.sketch_width(self.primitive, self.reports)


def route_report(cmap: ClusterMap, raw: bytes) -> int:
    """Shard a pre-encoded report exactly as the assembler will.

    Light byte slicing (``SubHeader.peek``) instead of a full
    ``decode_report`` — this runs per report on the transmit path and
    only needs the routing identity, not validation.  Must agree with
    :meth:`ReportAssembler.feed`'s routing so that lane selection
    (shard → translator daemon) matches the daemon-side store writes.
    """
    primitive = BY_CODE.get(raw[0] & 0xF)
    if primitive is None:
        return cmap.for_sketch(0)
    return primitive.shard(cmap,
                           primitive.wire.peek(raw, primitive.routed_by))


# ---------------------------------------------------------------------------
# The socket lane
# ---------------------------------------------------------------------------


class SocketLane:
    """Owns the lane's processes, sockets, and shared segments.

    Use as a context manager; ``__exit__`` stops every daemon and
    unlinks every segment regardless of how the run ended, so a crash
    mid-stream cannot leak ``/dev/shm`` entries.
    """

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        self.reporter: SocketReporter | None = None
        #: ``(role, label, index)`` -> that daemon's last snapshot.
        self.snapshots: dict = {}
        self._segments: list = []          # flat list of SharedMemory
        self._collector_procs: list = []
        self._collector_conns: list = []
        self._translator_procs: list = []
        self._translator_conns: list = []

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "SocketLane":
        from multiprocessing import shared_memory

        spec = self.spec
        ctx = multiprocessing.get_context()
        plan = segment_plan(spec.sketch_width)
        names_per_shard = []
        try:
            for _shard in range(spec.collectors):
                names = []
                for _store, length in plan:
                    shm = shared_memory.SharedMemory(
                        create=True, size=max(1, length))
                    self._segments.append(shm)
                    names.append(shm.name)
                names_per_shard.append(names)

            for shard in range(spec.collectors):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=collector_daemon_main,
                    args=(shard, spec.sketch_width,
                          names_per_shard[shard], child_conn),
                    daemon=True, name=f"dta-collector-{shard}")
                proc.start()
                child_conn.close()
                self._collector_procs.append(proc)
                self._collector_conns.append(parent_conn)
            for shard, conn in enumerate(self._collector_conns):
                self._await(conn, self._collector_procs[shard],
                            expect="ready")

            self.reporter = SocketReporter(
                "serve-reporter", 1,
                shards=spec.collectors, translators=spec.translators,
                loss=spec.loss, window=spec.window,
                frame_bytes=spec.frame_bytes)
            for lane in range(spec.translators):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=translator_daemon_main,
                    args=(names_per_shard, spec.sketch_width,
                          spec.vectorized, spec.batch_size,
                          self.reporter.ctrl_addr, child_conn),
                    kwargs={"lane": lane, "window": spec.window},
                    daemon=True, name=f"dta-translator-{lane}")
                proc.start()
                child_conn.close()
                self._translator_procs.append(proc)
                self._translator_conns.append(parent_conn)
            addrs = []
            for lane, conn in enumerate(self._translator_conns):
                _tag, port = self._await(
                    conn, self._translator_procs[lane], expect="ready")
                addrs.append(("127.0.0.1", port))
            self.reporter.set_data_addrs(addrs)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop_daemons()
        if self.reporter is not None:
            self.reporter.close()
            self.reporter = None
        for shm in self._segments:
            try:
                shm.close()
            except BufferError:   # pragma: no cover - parent holds no views
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    # -- the run -------------------------------------------------------

    def send(self, raws, shards=None) -> None:
        """Transmit pre-encoded reports through shim + frame packer.

        ``shards`` (from :func:`route_report`) steers each report to
        the lane owning its collector; without it everything rides
        shard 0's lane (fine for single-translator runs).  Raises
        :class:`ServeError` when a daemon died, or stopped
        acknowledging, with the send window full.
        """
        with self._window_guard():
            if shards is None:
                transmit = self.reporter.transmit
                for raw in raws:
                    transmit(raw)
            else:
                self.reporter.transmit_many(shards, raws)

    def end_stream(self) -> int:
        """:meth:`SocketReporter.end_stream` — flush the shim, mark
        end-of-stream on every lane, return the reports emitted — with
        :meth:`send`'s failure contract: the flush goes through the
        same send window, so a dead or silent translator raises
        :class:`ServeError` instead of leaking ``WindowStalled``.
        """
        with self._window_guard():
            return self.reporter.end_stream()

    @contextmanager
    def _window_guard(self):
        """A stalled send window is a lane failure: name the daemon
        that died if one did, else report the stall itself."""
        try:
            yield
        except WindowStalled as stall:
            self._check_alive()
            raise ServeError(str(stall)) from stall

    def drain(self, timeout: float = _DRAIN_TIMEOUT_S) -> dict:
        """End-of-stream handshake: one ``drained`` per translator.

        Each reply is that daemon's registry snapshot; returns their
        roll-up's total per :data:`DRAIN_SERIES` key.  Raises
        :class:`ServeError` if any daemon dies, the drain does not
        complete in ``timeout`` seconds, or a retransmission served
        while waiting stalls on the send window.
        """
        deadline = _clock() + timeout
        pending = dict(enumerate(self._translator_conns))
        drained = []
        while pending:
            self._check_alive()
            for index, conn in list(pending.items()):
                if conn.poll(0.02):
                    tag, snapshot = conn.recv()
                    if tag != "drained":
                        raise ServeError(
                            f"unexpected translator reply {tag!r}")
                    self.snapshots["translator", "lane", index] = snapshot
                    drained.append(({}, snapshot))
                    del pending[index]
            # Keep the window/control machinery moving while we wait.
            with self._window_guard():
                self.reporter.poll_control()
            if pending and _clock() >= deadline:
                raise ServeError(
                    f"translators {sorted(pending)} did not drain "
                    f"within {timeout:.0f}s")
        rollup = obs.merge(drained)
        return {key: sum(rollup.total(name) for name in names)
                for key, names in DRAIN_SERIES.items()}

    def view(self, *, labelled: bool = True) -> obs.Snapshot:
        """The daemons' registries as one snapshot: each collector's
        now, each translator's as of its last END.  Every series is
        labelled with its daemon's ``role`` and ``lane`` / ``shard``,
        or, not ``labelled``, summed across daemons (the roll-up)."""
        for shard, conn in enumerate(self._collector_conns):
            conn.send(("snapshot", None))
            self.snapshots["collector", "shard", shard] = self._await(
                conn, self._collector_procs[shard], expect="snapshot")[1]
        return obs.merge(
            ({"role": role, label: index} if labelled else {}, snapshot)
            for (role, label, index), snapshot in self.snapshots.items())

    def digests(self) -> list:
        """Store digests from every collector daemon, in shard order."""
        out = []
        for shard, conn in enumerate(self._collector_conns):
            conn.send(("digest", None))
            _tag, digest = self._await(
                conn, self._collector_procs[shard], expect="digest")
            out.append(digest)
        return out

    def query(self, shard: int, command: str, key: bytes):
        """Ask one collector daemon a store query (settle tests)."""
        conn = self._collector_conns[shard]
        conn.send((command, key))
        _tag, answer = self._await(conn, self._collector_procs[shard])
        return answer

    # -- internals -----------------------------------------------------

    def _await(self, conn, proc, *, expect: str | None = None,
               timeout: float = _READY_TIMEOUT_S):
        deadline = _clock() + timeout
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise ServeError(
                    f"daemon {proc.name} died "
                    f"(exitcode {proc.exitcode})")
            if _clock() >= deadline:
                raise ServeError(
                    f"daemon {proc.name} silent for {timeout:.0f}s")
        reply = conn.recv()
        if expect is not None and reply[0] != expect:
            raise ServeError(
                f"daemon {proc.name} replied {reply[0]!r}, "
                f"wanted {expect!r}")
        return reply

    def _check_alive(self) -> None:
        procs = list(self._collector_procs) + list(self._translator_procs)
        for proc in procs:
            if not proc.is_alive():
                raise ServeError(
                    f"daemon {proc.name} died mid-stream "
                    f"(exitcode {proc.exitcode})")

    def _stop_daemons(self) -> None:
        pairs = (list(zip(self._collector_conns, self._collector_procs))
                 + list(zip(self._translator_conns,
                            self._translator_procs)))
        for conn, proc in pairs:
            if proc.is_alive():
                try:
                    conn.send(("stop", None))
                except (BrokenPipeError, OSError):
                    pass
        for conn, proc in pairs:
            proc.join(timeout=_STOP_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_STOP_TIMEOUT_S)
            conn.close()
        self._collector_conns.clear()
        self._collector_procs.clear()
        self._translator_conns.clear()
        self._translator_procs.clear()


# ---------------------------------------------------------------------------
# Reference lane + the differential run
# ---------------------------------------------------------------------------


def run_reference(spec: ServeSpec, raws,
                  registry: obs.Registry | None = None) -> list:
    """The in-process twin: same bytes, same shim, scalar everything.

    Feeds each survivor through the scalar per-report ``feed`` path
    into scalar-translate translators regardless of the socket lane's
    settings, so digest equality is a differential across the frame
    codec, the columnar assembler, *and* the vectorized RDMA lanes.
    Returns the per-shard store digests the socket lane must match;
    its series land in ``registry`` (default: a fresh one, discarded).
    """
    previous = obs.set_registry(
        registry if registry is not None else obs.Registry())
    try:
        collectors = []
        translators = []
        for shard in range(spec.collectors):
            collector = provision_collector(
                f"collector-{shard}", sketch_width=spec.sketch_width)
            translator = Translator(f"translator-{shard}",
                                    vectorized=False)
            collector.connect_translator(translator)
            collectors.append(collector)
            translators.append(translator)
        assembler = ReportAssembler(
            translators, ClusterMap(collectors=spec.collectors),
            batch_size=spec.batch_size)
        for survivor in spec.loss.shim().apply(raws):
            assembler.feed(survivor)
        assembler.finish()
        return [store_digest(collector) for collector in collectors]
    finally:
        obs.set_registry(previous)


def transport_gates(reporter, sent: int, stats: dict) -> list:
    """The socket lane's own conservation gates, once ``reporter``'s
    ``sent`` reports are drained into ``stats`` (:meth:`SocketLane.drain`).
    """
    return [
        bench.gate("every surviving datagram delivered in order",
                   stats["delivered"] == sum(reporter.lane_seqs)
                   and stats["waiting"] == 0),
        bench.gate("every delivered report decoded",
                   stats["reports"] == sent and stats["malformed"] == 0),
        # Received ≤ sent, not ==: the daemons keep idle re-ACKing
        # after the reporter stops polling, and UDP may shed control
        # datagrams under pressure — neither may *create* bytes.
        bench.gate("control channel conserved (ACK/NACK bytes accounted)",
                   reporter.ctrl_datagrams_received
                   <= stats["ctrl_datagrams_sent"]
                   and reporter.ctrl_bytes_received
                   <= stats["ctrl_bytes_sent"]),
    ]


def run_serve(spec: ServeSpec) -> dict:
    """Run the deployment lane end to end.

    Returns ``{"socket": ..., "reference": ..., "gates": [...]}``: the
    socket lane's digests, counters and labelled :meth:`SocketLane.view`,
    the reference lane's digests, and the gates
    :func:`repro.bench.verdict` prints.
    """
    previous = obs.set_registry(obs.Registry())
    reference = obs.Registry()
    try:
        raws = workload.wire(spec.primitive, spec.reports, spec.seed)
        cmap = ClusterMap(collectors=spec.collectors)
        shards = [route_report(cmap, raw) for raw in raws]
        with SocketLane(spec) as lane:
            lane.send(raws, shards)
            sent = lane.end_stream()
            stats = lane.drain()
            reporter = lane.reporter
            socket = {
                "store_digests": lane.digests(),
                "reports_sent": sent,
                "datagrams_sent": reporter.datagrams_sent,
                "frames_sent": reporter.frames_sent,
                "lane_seqs": reporter.lane_seqs,
                "acks_received": reporter.acks_received,
                "ctrl_datagrams_received":
                    reporter.ctrl_datagrams_received,
                "ctrl_bytes_received": reporter.ctrl_bytes_received,
                "shim": {"dropped": reporter.shim.dropped,
                         "reordered": reporter.shim.reordered,
                         "passed": reporter.shim.passed},
                "translator": stats,
                "view": lane.view(),
                "obs_digest": pipeline_digest(lane.view(labelled=False))}
        ref_digests = run_reference(spec, raws, reference)
        ref_obs = pipeline_digest(reference.snapshot())
    finally:
        obs.set_registry(previous)

    gates = transport_gates(reporter, sent, stats) + [
        bench.gate("socket-lane store digests match in-process lane",
                   socket["store_digests"] == ref_digests),
        bench.gate("socket-lane obs digest matches in-process lane",
                   socket["obs_digest"] == ref_obs),
    ]
    return {"socket": socket,
            "reference": {"store_digests": ref_digests, "obs_digest": ref_obs},
            "gates": gates}

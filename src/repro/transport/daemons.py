"""Deployment-lane processes: collector daemons and a translator daemon.

The process topology mirrors Figure 2 of the paper:

* N **collector daemons** each map their primitive stores onto
  ``multiprocessing.shared_memory`` segments and then go idle — their
  CPU runs only when asked a query or a digest, which is the paper's
  zero-CPU collection claim restated as process architecture.
* one **translator daemon** maps the *same* segments, provisions an
  identical deployment over them, and converts the DTA datagram stream
  arriving on its UDP socket into RDMA verbs.  Its
  :class:`~repro.core.transport.RdmaClient` writes land in the shared
  segments — collector memory — exactly the seam a pyverbs backend
  would replace with real ``ibv_post_send``.

The parent (``repro.transport.serve``) owns the segments: it creates
them from :func:`segment_plan`, hands the names to both daemon kinds
(which map them with :class:`~repro.runtime.shm.Attached`, like the
plan workers of the process lane), and unlinks them on teardown — so a
crashed daemon can never leak a segment past the lane's context
manager.

Store geometry and :func:`provision_collector` are the workload's own
(:mod:`repro.workloads.reports`); this module only sizes the segments
to match.
"""

from __future__ import annotations

import socket
from functools import partial

import numpy as np

from repro import obs
from repro.core.cluster import ClusterMap
from repro.core.translator import Translator
from repro.runtime.engine import store_digest
from repro.runtime.shm import Attached
from repro.transport import mmsg
from repro.transport.assembler import ReportAssembler
from repro.transport.envelope import (
    KIND_CTRL,
    KIND_END,
    KIND_FRAME,
    KIND_REPORT,
    WINDOW,
    Reassembler,
    end_total,
    wrap,
    wrap_ack,
)
from repro.workloads.reports import provision_collector, serve_params

#: Receiver re-acks at least this often while idle so a lost ACK can
#: never wedge the reporter's send window (a control command ends the
#: wait at once).
_SOCK_TIMEOUT_S = 0.05

_MAX_DGRAM = 65535

#: Datagrams drained per receive burst.  Wider than the sender's
#: sendmmsg batch on purpose: every frame in a burst lands in a single
#: vectorized :meth:`ReportAssembler.feed_frames` pass, so burst width
#: is the decode width *and* the plan width — each shard's share of a
#: burst is one ``Translator.plan_columns`` call.
_RECV_BURST = 4 * mmsg.BATCH_MSGS

#: Cumulative-ACK cadence: one ACK per this many in-order envelopes
#: (plus the idle re-ack above); the daemon's ``ack_every``.
ACK_EVERY = 64


def segment_plan(sketch_width: int = 0) -> list:
    """``(store, region_bytes)`` per served primitive, in serve order.

    The order is load-bearing: :func:`provision_collector` registers
    regions in exactly this order, so the k-th segment backs the k-th
    store on every process that maps the plan.
    """
    return [(primitive.store, primitive.layout(0, params).region_bytes)
            for primitive, params in serve_params(sketch_width).items()]


# ---------------------------------------------------------------------------
# Collector daemon
# ---------------------------------------------------------------------------


def collector_daemon_main(shard: int, sketch_width: int, segment_names,
                          conn) -> None:
    """Serve one collector shard over shared segments; then sit idle.

    The command loop is the *only* CPU this process spends after
    provisioning: ``("digest", None)`` hashes the stores,
    ``("query_value", key)`` / ``("query_counter", key)`` answer
    collector queries (used by the NACK settle test to prove
    retransmitted data landed), ``("checkpoint", path)`` writes a
    crash-consistent ``repro-ckpt/1`` directory (translators must be
    quiesced first — the daemon sees only its own shard's stores),
    ``("snapshot", None)`` answers its obs registry's snapshot,
    ``("stop", None)`` answers it too and exits.
    """
    registry = obs.Registry()
    obs.set_registry(registry)
    segments = Attached(segment_names, [
        length for _store, length in segment_plan(sketch_width)])
    collector = provision_collector(f"collector-{shard}",
                                    sketch_width=sketch_width,
                                    buffers=segments.buffers)
    conn.send(("ready", shard))
    try:
        while True:
            try:
                command, arg = conn.recv()
            except EOFError:
                break
            if command == "digest":
                conn.send(("digest", store_digest(collector)))
            elif command == "query_value":
                conn.send(("value", collector.query_value(arg)))
            elif command == "query_counter":
                conn.send(("counter", collector.query_counter(arg)))
            elif command == "checkpoint":
                from repro.retention.checkpoint import (CheckpointError,
                                                        write_checkpoint)

                try:
                    manifest_path = write_checkpoint(collector, arg,
                                                     overwrite=True)
                    conn.send(("checkpoint", manifest_path))
                except (CheckpointError, OSError) as exc:
                    conn.send(("error", f"checkpoint failed: {exc}"))
            elif command == "snapshot":
                conn.send(("snapshot", registry.snapshot()))
            elif command == "stop":
                conn.send(("stopped", registry.snapshot()))
                break
            else:
                conn.send(("error", f"unknown command {command!r}"))
    finally:
        del collector
        segments.release()


# ---------------------------------------------------------------------------
# Translator daemon
# ---------------------------------------------------------------------------


def translator_daemon_main(shard_segment_names, sketch_width: int,
                           vectorized: bool, batch_size: int,
                           ctrl_addr, conn, *, lane: int = 0,
                           ack_every: int = ACK_EVERY,
                           window: int = WINDOW) -> None:
    """Receive DTA datagrams and translate them into RDMA writes.

    Owns the data socket (bound to an ephemeral loopback port reported
    back over ``conn``) and the control send socket toward
    ``ctrl_addr``.  Datagrams arrive in ``recvmmsg`` bursts through a
    preallocated-buffer :class:`~repro.transport.mmsg.DatagramReceiver`
    (``recvmsg_into`` fallback), are re-ordered by lane sequence
    (:class:`Reassembler`), then routed/batched/translated by the
    shared :class:`ReportAssembler` — coalesced ``KIND_FRAME``
    payloads through the vectorized columnar path, single
    ``KIND_REPORT`` payloads through the scalar reference path.  A
    ``KIND_END`` datagram flushes everything and reports
    ``("drained", snapshot)`` of the daemon's obs registry, ``stop``
    answers ``("stopped", snapshot)``; the parent may send further
    traffic and ENDs afterwards (NACK settle rounds).  The registry's
    ``transport.*`` series sample the assembler's and reassembler's
    counts at snapshot time and count the control datagrams sent.

    With ``--translators N`` scale-out every daemon maps *all* shard
    segments and provisions the full translator set, but the reporter
    only routes shard ``s`` traffic to daemon ``s % N`` — so each
    shard still has exactly one writer and ``lane`` merely stamps this
    daemon's ACK envelopes.  ``window`` is the reporter's send window:
    a lane seq that far ahead of in-order delivery cannot be live
    traffic and counts as malformed.
    """
    registry = obs.Registry()
    obs.set_registry(registry)
    shards = len(shard_segment_names)
    lengths = [length for _store, length in segment_plan(sketch_width)]
    segments = Attached([name for names in shard_segment_names
                         for name in names], lengths * shards)
    stores = len(lengths)
    collectors = []
    translators = []
    for shard in range(shards):
        collector = provision_collector(
            f"collector-{shard}", sketch_width=sketch_width,
            buffers=segments.buffers[shard * stores:(shard + 1) * stores])
        translator = Translator(f"translator-{shard}",
                                vectorized=vectorized)
        collector.connect_translator(translator)
        collectors.append(collector)
        translators.append(translator)
    del collector, translator

    ctrl_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    # The count of control datagrams sent is the next one's seq.
    ctrl_seq = registry.counter("transport.ctrl_datagrams_sent")
    ctrl_bytes = registry.counter("transport.ctrl_bytes_sent")
    expected_reports = registry.gauge("transport.expected_reports")

    def ctrl_send(envelope: bytes) -> None:
        ctrl_sock.sendto(envelope, ctrl_addr)
        ctrl_seq.inc()
        ctrl_bytes.inc(len(envelope))

    def make_control_sink(shard: int):
        # The shard byte routes the frame back to the matching per-shard
        # seq stream inside the SocketReporter's ClusterReporter.
        prefix = bytes([shard])

        def control_sink(_src, raw):
            ctrl_send(wrap(ctrl_seq.value, prefix + raw, KIND_CTRL))

        return control_sink

    for shard, translator in enumerate(translators):
        translator.control_sink = make_control_sink(shard)
    del translator   # the loop var would pin the last shard's regions

    assembler = ReportAssembler(translators,
                                ClusterMap(collectors=shards),
                                batch_size=batch_size)
    reassembler = Reassembler(horizon=window)
    gauge = registry.gauge
    for name in ("reports", "batches", "per_report", "rejected"):
        gauge(f"transport.{name}", fn=partial(getattr, assembler, name))
    for name in ("delivered", "duplicates", "waiting"):
        gauge(f"transport.{name}", fn=partial(getattr, reassembler, name))
    gauge("transport.malformed",
          fn=lambda: assembler.malformed + reassembler.malformed)

    data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    data_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
    data_sock.bind(("127.0.0.1", 0))
    receiver = mmsg.DatagramReceiver(data_sock, max_msgs=_RECV_BURST,
                                     buf_bytes=_MAX_DGRAM)
    conn.send(("ready", data_sock.getsockname()[1]))

    last_ack = [0]
    # After END the drained snapshot holds the ctrl counters; going
    # quiet until new traffic arrives keeps that snapshot an upper
    # bound on what the reporter can observe (the serve conservation
    # gate), and an idle finished stream has no window to unwedge.
    stream_done = False

    def send_ack():
        ctrl_send(wrap_ack(ctrl_seq.value, reassembler.next_seq, lane))
        last_ack[0] = reassembler.next_seq

    try:
        while True:
            if conn.poll():
                command, _arg = conn.recv()
                if command == "stop":
                    conn.send(("stopped", registry.snapshot()))
                    break
            data, starts, lengths = receiver.recv_burst(_SOCK_TIMEOUT_S,
                                                        conn)
            if not len(lengths):
                # Idle re-ack: a lost ACK must not wedge the window.
                if reassembler.next_seq and not stream_done:
                    send_ack()
                continue
            kinds, data, starts, lengths = reassembler.push_burst(
                data, starts, lengths)
            # Each run of frames is one vectorized decode, straight from
            # the ring; singles and ENDs go one by one, in order.  New
            # in-order traffic (not a duplicate straggler) reopens the
            # stream and its idle re-acks until an END closes it.
            cuts = (np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(kinds)]
                              if len(kinds) else []):
                kind = int(kinds[lo])
                stream_done = False
                if kind == KIND_FRAME:
                    assembler.feed_burst(data, starts[lo:hi], lengths[lo:hi])
                    continue
                for start, length in zip(starts[lo:hi].tolist(),
                                         lengths[lo:hi].tolist()):
                    payload = data[start:start + length]
                    stream_done = False
                    if kind == KIND_REPORT:
                        assembler.feed(payload)
                    elif kind == KIND_END:
                        try:
                            expected = end_total(payload)
                        except ValueError:
                            reassembler.malformed += 1
                            continue
                        assembler.finish()
                        send_ack()
                        expected_reports.set(expected)
                        conn.send(("drained", registry.snapshot()))
                        stream_done = True
                    # Unknown kinds (fuzz) are simply ignored.
            if reassembler.next_seq - last_ack[0] >= ack_every:
                send_ack()
    finally:
        data_sock.close()
        ctrl_sock.close()
        registry.reset()    # its gauges hold the assembler
        del assembler, translators, collectors
        segments.release()


"""One repetition of a workload on a fresh deployment.

Two drivers share one shape — set up, ingest, drain, read, verify,
tear down — and one result record (:func:`new_result`):

* :func:`inproc_rep` feeds :class:`~repro.core.batch.ReportBatch`
  slices through a :class:`~repro.runtime.engine.StreamEngine`;
* :func:`socket_rep` sends DTA wire bytes through a
  :class:`~repro.transport.serve.SocketLane` (real daemons, loopback
  UDP, the seeded loss shim).

Load is closed-loop from this one process: ``engine.submit`` blocks on
credits, the socket reporter blocks on its ACK window.  Each rep does a
fixed amount of *work*, so every count repeats exactly; only how many
reps fit is decided by the clock.

Tracing hooks in only through public seams (instance-level wrappers on
``send_batch``/``process_batch``/…, a timing RDMA client installed with
``Translator.attach_rdma``); with the null tracer none is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import time

import gen
from harness import TreeCpu, clock
from spans import NULL
from repro import obs
from repro.core.cluster import ClusterMap
from repro.queries.serving import QueryServer
from repro.retention.checkpoint import restore_checkpoint, write_checkpoint
from repro.retention.epochs import RetentionPolicy
from repro.retention.manager import RetentionManager
from repro.runtime.engine import StreamEngine, store_digest
from repro.transport.daemons import provision_collector
from repro.transport.serve import SocketLane, route_report

DRAIN_TIMEOUT_S = 60.0
#: Checkpoint + restore round trips per rep (cheap, and fsync is noisy).
CKPT_ROUNDS = 5


def new_result() -> dict:
    """One rep's record; ``layer`` holds per-layer metrics by name."""
    return {"setup_s": 0.0, "wall_s": 0.0, "expected": 0, "landed": 0,
            "cpu_parent": 0.0, "cpu_children": 0.0, "cpu_by_name": {},
            "tick_ms": [], "ckpt_ms": [], "restore_ms": [], "plan_ms": {},
            "rows_scanned": [], "bytes_touched": [], "tick_rows": {},
            "digest": None, "failures": [], "layer": {}}


@contextlib.contextmanager
def fresh_registry():
    """A throwaway obs registry for one deployment's lifetime."""
    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        yield registry
    finally:
        obs.set_registry(previous)


def _obs_snapshot_ms(registry) -> float:
    start = clock()
    obs.to_jsonl(registry.snapshot())
    return (clock() - start) * 1e3


class TimedClient:
    """A transparent RDMA client that spans ``post``/``post_burst``.

    Everything else (QP state, counters the vector kernels bump) reads
    and writes straight through to the wrapped client, so eligibility
    checks and accounting are those of the real one.
    """

    def __init__(self, inner, tracer) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value) -> None:
        setattr(self._inner, name, value)

    def post(self, wr) -> None:
        with self._tracer.span("rdma.post_burst"):
            self._inner.post(wr)

    def post_burst(self, wrs) -> None:
        with self._tracer.span("rdma.post_burst"):
            self._inner.post_burst(wrs)


def _rows_digest(results: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(results):
        digest.update(name.encode())
        digest.update(repr(results[name].rows).encode())
    return digest.hexdigest()


def _tick(server, result: dict, tr, keep_rows: bool) -> None:
    """One timed catalog tick; costs and (optionally) rows recorded."""
    start = clock()
    with tr.span("queries.tick"):
        epoch = server.tick()
    result["tick_ms"].append((clock() - start) * 1e3)
    scanned = touched = 0
    for name, res in epoch.results.items():
        result["plan_ms"].setdefault(name, []).append(res.cost.wall_ns / 1e6)
        scanned += res.cost.rows_scanned
        touched += res.cost.bytes_touched
    result["rows_scanned"].append(scanned)
    result["bytes_touched"].append(touched)
    if keep_rows:
        result["tick_rows"][epoch.batch_seq] = _rows_digest(epoch.results)


def _server(target, plans: dict, tr) -> QueryServer:
    server = QueryServer(target)
    for name, plan in plans.items():
        server.register(name, plan)
    tr.wrap(server.engine, "execute", "queries.plan")
    return server


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


# ---------------------------------------------------------------------------
# In-process lanes
# ---------------------------------------------------------------------------


def inproc_rep(cfg: dict, inp: dict, tr, rss, ckpt_dir: str, *,
               engine_kw: dict | None = None, read_phase: bool = True
               ) -> dict:
    """One rep through a :class:`StreamEngine`; see the module docstring.

    ``engine_kw`` overrides the workload's executor settings — the
    differential twin runs the same input on the scalar reference lane.
    """
    result = new_result()
    works, sched = inp["works"], inp["schedule"]
    tick_at = inp.get("tick_at", ()) if read_phase else ()
    engine = None
    with fresh_registry() as registry:
        try:
            with tr.span("harness.rep"):
                t0 = clock()
                with tr.span("runtime.start"):
                    collector, translator, reporter, manager, engine = \
                        _start_inproc(cfg, inp, tr, engine_kw)
                t1 = clock()
                result["setup_s"] = t1 - t0
                _install_inproc_spans(tr, engine, translator, reporter,
                                      manager)
                server = _server(engine, inp["plans"], tr)

                query_s = query_cpu = 0.0
                expected = 0
                make_batch = gen.make_batch
                submit = engine.submit
                span = tr.span
                cpu = TreeCpu().start()
                t_ingest = clock()
                for index, (primitive, s, e) in enumerate(sched):
                    with span("core.batch.build", index):
                        batch = make_batch(primitive, works[primitive], s, e)
                    with span("runtime.submit", index):
                        submit(batch)
                    expected += e - s
                    if index in tick_at:
                        q0, c0 = clock(), time.process_time()
                        _tick(server, result, tr, keep_rows=True)
                        query_s += clock() - q0
                        query_cpu += time.process_time() - c0
                rss.sample()
                with span("runtime.drain"):
                    engine.drain()
                # The lane is synchronous, so wall and CPU inside query
                # ticks are exactly separable from ingest.
                result["wall_s"] = clock() - t_ingest - query_s
                used = cpu.stop()
                used["parent"] -= query_cpu
                rss.sample()
                result["expected"] = expected

                if read_phase:
                    if not tick_at:
                        _tick(server, result, tr, keep_rows=False)
                    _checkpoint_rounds(result, tr, collector, manager,
                                       engine, inp["sketch_width"],
                                       ckpt_dir)

            result.update(cpu_parent=used["parent"],
                          cpu_children=used["children"],
                          cpu_by_name=used["by_name"])
            _verify_inproc(result, engine, collector, translator, reporter)
            if tr.enabled:
                # Snapshot first: a closed process-lane engine leaves
                # gauges behind that raise when sampled.  Then close,
                # which hands the real RDMA client (and its QP
                # counters) back.
                result["layer"]["obs.snapshot_ms"] = \
                    _obs_snapshot_ms(registry)
                engine.close()
                _inproc_layer(result, engine, collector, translator, manager)
        finally:
            tr.unwrap_all()
            if engine is not None:
                engine.close()
    return result


def _start_inproc(cfg, inp, tr, engine_kw) -> tuple:
    """Cold to ready-to-submit: provision, wire, ``engine.start()``."""
    collector, translator, reporter = gen.deploy(inp["sketch_width"])
    manager = None
    if cfg.get("retention"):
        manager = RetentionManager(
            collector, translator=translator,
            policy=RetentionPolicy(**cfg["retention"]))
    if tr.enabled:
        translator.attach_rdma(TimedClient(translator.client, tr))
    engine = StreamEngine(collector, translator, reporter,
                          retention=manager, name="perf",
                          **(engine_kw or cfg["engine"]))
    engine.start()
    return collector, translator, reporter, manager, engine


def inproc_setup(cfg: dict, inp: dict) -> float:
    """One more ``setup_s`` sample: set up, time it, tear down."""
    with fresh_registry():
        start = clock()
        engine = _start_inproc(cfg, inp, NULL, None)[-1]
        elapsed = clock() - start
        engine.close()
        return elapsed


def _install_inproc_spans(tr, engine, translator, reporter, manager) -> None:
    if not tr.enabled:
        return
    tr.wrap(reporter, "send_batch", "core.reporter.encode")
    for attr in ("process_batch", "handle_report", "flush_appends",
                 "plan_vector_keywrite", "plan_vector_keyincrement"):
        tr.wrap(translator, attr, "core.translator.translate")
    tr.wrap(engine, "snapshot", "queries.snapshot")
    if manager is not None:
        tr.wrap(manager, "rotate", "retention.rotate")


def _checkpoint_rounds(result, tr, collector, manager, engine,
                       sketch_width, ckpt_dir) -> None:
    """Checkpoint the drained stores, restore into a fresh twin."""
    live = store_digest(collector)
    for _ in range(CKPT_ROUNDS):
        start = clock()
        with tr.span("retention.checkpoint"):
            if manager is not None:
                engine.checkpoint(ckpt_dir, overwrite=True)
            else:
                write_checkpoint(collector, ckpt_dir, overwrite=True)
        result["ckpt_ms"].append((clock() - start) * 1e3)
        twin = gen.provision(sketch_width, name="twin")
        start = clock()
        with tr.span("retention.restore"):
            report = restore_checkpoint(twin, ckpt_dir)
        result["restore_ms"].append((clock() - start) * 1e3)
        if report.store_digest != live:
            result["failures"].append("restore digest != checkpoint digest")
    result["layer"]["retention.ckpt_bytes"] = _dir_bytes(ckpt_dir)
    shutil.rmtree(ckpt_dir, ignore_errors=True)


def _verify_inproc(result, engine, collector, translator, reporter) -> None:
    """Conservation: every submitted report reached the stores' writer."""
    expected = result["expected"]
    sent = reporter.stats.reports_sent
    seen = translator.stats.reports_in
    result["landed"] = min(sent, seen)
    if not sent == seen == expected:
        result["failures"].append(
            f"conservation: submitted {expected}, sent {sent}, "
            f"translated {seen}")
    if engine.link.stats.drops or translator.stats.dropped_while_crashed \
            or reporter.stats.shed_by_congestion:
        result["failures"].append("reports dropped or shed in a lossless lane")
    result["digest"] = store_digest(collector)


def _inproc_layer(result, engine, collector, translator, manager) -> None:
    """Counts read from the existing stats objects, by metric name."""
    layer = result["layer"]
    nic = collector.nic.stats
    link = engine.link.stats
    qps = list(collector.nic.qps.values()) + [translator.client.qp]
    queues = engine.queues
    layer.update({
        "core.translator.rdma_msgs_per_report":
            translator.stats.rdma_messages / max(result["landed"], 1),
        "rdma.nic.messages": nic.messages,
        "rdma.nic.payload_bytes": nic.payload_bytes,
        "rdma.qp.retransmits": sum(qp.counters.retransmits for qp in qps),
        "rdma.qp.sequence_errors":
            sum(qp.counters.sequence_errors for qp in qps),
        "fabric.link.delivered": link.delivered,
        "fabric.link.drops": link.drops,
        "runtime.queue.put_stall_s":
            sum(q.stats.put_stall_seconds for q in queues),
        "runtime.queue.get_stall_s":
            sum(q.stats.get_stall_seconds for q in queues),
        "runtime.queue.high_watermark_max":
            max((q.high_watermark for q in queues), default=0),
        "runtime.parent_cpu_s": result["cpu_parent"],
        "runtime.shm.plan_worker_cpu_s": result["cpu_children"],
        "runtime.overlap_ratio":
            (result["cpu_parent"] + result["cpu_children"])
            / result["wall_s"],
    })
    if manager is not None:
        layer.update({
            "retention.rotations": manager.stats.rotations,
            "retention.cells_expired": manager.stats.cells_expired,
            "retention.live_cells_max": max(
                (sum(r.live.values()) for r in manager.epochs.reports),
                default=0)})


def per_report_digest(inp: dict) -> str:
    """The schedule through ``Reporter.<primitive>()`` one report at a
    time on a direct-mode deployment: the twin of the scalar lane."""
    with fresh_registry():
        collector, translator, reporter = gen.deploy(inp["sketch_width"])
        for primitive, s, e in inp["schedule"]:
            cols = inp["works"][primitive]
            for i in range(s, e):
                if primitive == "key_write":
                    reporter.key_write(cols["keys"][i], cols["datas"][i],
                                       redundancy=2)
                elif primitive == "key_increment":
                    reporter.key_increment(cols["keys"][i],
                                           cols["values"][i], redundancy=2)
                elif primitive == "postcarding":
                    reporter.postcard(cols["keys"][i], cols["hops"][i],
                                      cols["values"][i],
                                      path_length=cols["path_lengths"][i],
                                      redundancy=1)
                elif primitive == "append":
                    reporter.append(cols["list_ids"][i], cols["datas"][i])
                else:
                    reporter.sketch_column(0, cols["columns"][i],
                                           cols["counter_rows"][i])
        translator.flush_appends()
        return store_digest(collector)


# ---------------------------------------------------------------------------
# Socket lanes
# ---------------------------------------------------------------------------


def socket_rep(cfg: dict, inp: dict, tr, rss, ckpt_dir: str, *,
               read_phase: bool = True) -> dict:
    """One rep through real daemons over loopback UDP."""
    result = new_result()
    spec, raws = inp["spec"], inp["raws"]
    lane = SocketLane(spec)
    with fresh_registry() as registry:
        try:
            with tr.span("harness.rep"):
                t0 = clock()
                with tr.span("runtime.start"):
                    lane.__enter__()
                t1 = clock()
                result["setup_s"] = t1 - t0
                shards = inp["shards"]
                if tr.enabled:
                    # Routing is input preparation for the end-to-end
                    # window; the traced pass repeats it under a span.
                    cmap = ClusterMap(collectors=spec.collectors)
                    with tr.span("transport.route"):
                        shards = [route_report(cmap, raw) for raw in raws]
                    t1 = clock()
                cpu = TreeCpu().start()
                with tr.span("transport.reporter.transmit"):
                    lane.send(raws, shards)
                    sent = lane.reporter.end_stream()
                rss.sample()
                with tr.span("transport.drain_wait"):
                    stats = lane.drain(timeout=DRAIN_TIMEOUT_S)
                result["wall_s"] = clock() - t1
                used = cpu.stop()
                rss.sample()
                result["expected"] = sent
                result["landed"] = stats["reports"]
                if read_phase:
                    _socket_read_phase(result, tr, lane, spec, inp["plans"],
                                       ckpt_dir)

            result.update(cpu_parent=used["parent"],
                          cpu_children=used["children"],
                          cpu_by_name=used["by_name"])
            _verify_socket(result, lane, stats, sent)
            if tr.enabled:
                _socket_layer(result, lane, stats)
                result["layer"]["obs.snapshot_ms"] = \
                    _obs_snapshot_ms(registry)
        finally:
            tr.unwrap_all()
            lane.__exit__(None, None, None)
            shutil.rmtree(ckpt_dir, ignore_errors=True)
    return result


def socket_setup(cfg: dict, inp: dict) -> float:
    """One more ``setup_s`` sample: spawn the lane's daemons, stop them."""
    lane = SocketLane(inp["spec"])
    with fresh_registry():
        try:
            start = clock()
            lane.__enter__()
            return clock() - start
        finally:
            lane.__exit__(None, None, None)


def _socket_read_phase(result, tr, lane, spec, plans, ckpt_dir) -> None:
    """Daemons checkpoint their shards; twins restore; the catalog ticks
    over the restored twins (the stores themselves live in the daemons)."""
    shards = range(spec.collectors)
    live = lane.digests()
    twins = []
    for _ in range(CKPT_ROUNDS):
        start = clock()
        with tr.span("retention.checkpoint"):
            for shard in shards:
                answer = lane.query(shard, "checkpoint",
                                    f"{ckpt_dir}/shard{shard}")
                if not str(answer).endswith("MANIFEST.json"):
                    result["failures"].append(f"checkpoint: {answer}")
        result["ckpt_ms"].append((clock() - start) * 1e3)
        twins = [provision_collector(f"twin-{shard}",
                                     sketch_width=spec.sketch_width)
                 for shard in shards]
        start = clock()
        with tr.span("retention.restore"):
            reports = [restore_checkpoint(twin, f"{ckpt_dir}/shard{shard}")
                       for shard, twin in zip(shards, twins)]
        result["restore_ms"].append((clock() - start) * 1e3)
        if [r.store_digest for r in reports] != live:
            result["failures"].append("restore digest != checkpoint digest")
    result["layer"]["retention.ckpt_bytes"] = sum(
        _dir_bytes(f"{ckpt_dir}/shard{shard}") for shard in shards)
    # One cluster-wide tick: the catalog over every shard's twin.
    servers = [_server(twin, plans, tr) for twin in twins]
    partial = new_result()
    start = clock()
    for server in servers:
        _tick(server, partial, tr, keep_rows=False)
    result["tick_ms"].append((clock() - start) * 1e3)
    for name, values in partial["plan_ms"].items():
        result["plan_ms"].setdefault(name, []).append(sum(values))
    result["rows_scanned"].append(sum(partial["rows_scanned"]))
    result["bytes_touched"].append(sum(partial["bytes_touched"]))


def _verify_socket(result, lane, stats, sent) -> None:
    reporter = lane.reporter
    if not (stats["delivered"] == sum(reporter.lane_seqs)
            and stats["waiting"] == 0):
        result["failures"].append("envelopes lost or still waiting")
    if not (stats["reports"] == sent and stats["malformed"] == 0):
        result["failures"].append(
            f"conservation: sent {sent}, decoded {stats['reports']}, "
            f"malformed {stats['malformed']}")
    if not (reporter.ctrl_datagrams_received <= stats["ctrl_datagrams_sent"]
            and reporter.ctrl_bytes_received <= stats["ctrl_bytes_sent"]):
        result["failures"].append("control channel created bytes")
    result["digest"] = tuple(lane.digests())


def _socket_layer(result, lane, stats) -> None:
    """Counts from the reporter and the daemons' drain stats, by name."""
    reporter = lane.reporter
    landed = max(result["landed"], 1)
    by_name = result["cpu_by_name"]
    translator_cpu = sum(cpu for name, cpu in by_name.items()
                         if name.startswith("dta-translator"))
    result["layer"].update({
        "core.translator.rdma_msgs_per_report":
            stats["rdma_messages"] / landed,
        "transport.reporter.cpu_s": result["cpu_parent"],
        "transport.translator.cpu_s": translator_cpu,
        "transport.collector.cpu_s": sum(
            cpu for name, cpu in by_name.items()
            if name.startswith("dta-collector")),
        "transport.overlap_ratio":
            (result["cpu_parent"] + translator_cpu) / result["wall_s"],
        "transport.datagrams_sent": reporter.datagrams_sent,
        "transport.reports_per_datagram":
            landed / max(reporter.datagrams_sent, 1),
        "transport.shim.dropped": reporter.shim.dropped,
        "transport.shim.reordered": reporter.shim.reordered,
        "transport.acks_received": reporter.acks_received,
        "transport.ctrl_bytes": reporter.ctrl_bytes_received,
        "transport.nacks_sent": stats["nacks_sent"],
        "transport.duplicates": stats["duplicates"],
        "transport.batches": stats["batches"],
        "transport.reports_per_batch": landed / max(stats["batches"], 1),
    })

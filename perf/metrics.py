"""The benchmark's vocabulary: workloads, metrics, and what moves what.

``BENCHMARK.json`` carries names, units, directions and bounds (its
schema has no room for more); this table carries the rest — which
layer a per-layer metric belongs to and which end-to-end metric it is
expected to move, on which workload.  ``selftest.py`` checks the two
agree name for name.
"""

from __future__ import annotations

#: name -> why the workload exists (one line each, as in BENCHMARK.json).
WORKLOADS = {
    "udp_kw_lossy":
        "Key-Write over real daemons and loopback UDP with 2% drop + 2% "
        "reorder: transport, kernels.wire and the translator vector plan "
        "do nearly all the work",
    "serve_mixed_queries":
        "five primitives 4:4:4:4:1 interleaved at batch 64, inline "
        "vectorized engine, a snapshot + full catalog tick every tenth of "
        "the stream: per-batch overhead in core dominates, reads beside "
        "writes",
    "inproc_ki_b4096_proc":
        "Key-Increment at batch 4096 on the process executor: kernels.crc "
        "hashing and runtime.shm ring hand-off dominate, core scalar code "
        "is negligible",
    "ref_mixed_scalar":
        "first quarter of a mixed stream on the scalar reference lane "
        "every digest gate anchors to: a vector-lane gain predicts no "
        "change here",
}

#: (name, unit, better, bound) — bounds justified in perf/README.md.
END_TO_END = (
    ("ingest_rps", "1/s", "higher", 0.25),
    ("cpu_us_per_report", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("query_tick_ms", "ms", "lower", 0.25),
    ("checkpoint_ms", "ms", "lower", 0.25),
    ("restore_ms", "ms", "lower", 0.25),
)

_CORE = "ingest_rps, cpu_us_per_report on ref_mixed_scalar and " \
        "serve_mixed_queries; little on inproc_ki_b4096_proc"
_KERN = "ingest_rps on inproc_ki_b4096_proc, then udp_kw_lossy; none on " \
        "ref_mixed_scalar"
_RDMA = "ingest_rps on ref_mixed_scalar and the Postcarding/Append share " \
        "of serve_mixed_queries"
_RUNTIME = "ingest_rps on inproc_ki_b4096_proc only"
_LADDER = "diagnostic (thread lane is bimodal): decides which executors " \
          "survive"
_TRANSPORT = "ingest_rps, cpu_us_per_report on udp_kw_lossy only"
_QUERIES = "query_tick_ms on serve_mixed_queries"
_RETAIN = "none bounded: a Key-Write + Key-Increment + Append rep under " \
          "epoch rotation every 200 batches, in serve_mixed_queries's " \
          "traced pass"
_HARNESS = "none: tells host noise and harness cost from a code change"

#: (name, unit, better, layer, which end-to-end metric it should move).
PER_LAYER = (
    ("core.batch.build_s", "s", "lower", "core", _CORE),
    ("core.reporter.encode_s", "s", "lower", "core", _CORE),
    ("core.translator.translate_s", "s", "lower", "core", _CORE),
    ("core.translator.scalar_burst_ratio", "ratio", "lower", "core", _CORE),
    ("core.translator.rdma_msgs_per_report", "ratio", "lower", "core", _CORE),
    ("core.translator.perreport_rps", "1/s", "higher", "core", _CORE),
    ("kernels.crc.pack_keys_s", "s", "lower", "kernels", _KERN),
    ("kernels.crc.hash_lanes_s", "s", "lower", "kernels", _KERN),
    ("kernels.burst.apply_s", "s", "lower", "kernels", _KERN),
    ("kernels.wire.decode_s", "s", "lower", "kernels",
     "ingest_rps on udp_kw_lossy; none in-process"),
    ("rdma.post_burst_s", "s", "lower", "rdma", _RDMA),
    ("rdma.nic.messages", "count", "lower", "rdma", _RDMA),
    ("rdma.nic.payload_bytes", "bytes", "lower", "rdma", _RDMA),
    ("rdma.qp.retransmits", "count", "lower", "rdma", _RDMA),
    ("rdma.qp.sequence_errors", "count", "lower", "rdma", _RDMA),
    ("fabric.link.delivered", "count", "higher", "fabric", _RDMA),
    ("fabric.link.drops", "count", "lower", "fabric", _RDMA),
    ("runtime.start_s", "s", "lower", "runtime", "setup_s everywhere"),
    ("runtime.submit_s", "s", "lower", "runtime", _RUNTIME),
    ("runtime.drain_s", "s", "lower", "runtime", _RUNTIME),
    ("runtime.queue.put_stall_s", "s", "lower", "runtime", _RUNTIME),
    ("runtime.queue.get_stall_s", "s", "lower", "runtime", _RUNTIME),
    ("runtime.queue.high_watermark_max", "count", "lower", "runtime",
     _RUNTIME),
    ("runtime.parent_cpu_s", "s", "lower", "runtime", _RUNTIME),
    ("runtime.shm.plan_worker_cpu_s", "s", "lower", "runtime", _RUNTIME),
    ("runtime.overlap_ratio", "ratio", "higher", "runtime", _RUNTIME),
    ("runtime.lane.inline_rps", "1/s", "higher", "runtime", _LADDER),
    ("runtime.lane.thread2_rps", "1/s", "higher", "runtime", _LADDER),
    ("runtime.lane.thread2_spread", "ratio", "lower", "runtime", _LADDER),
    ("runtime.lane.process_rps", "1/s", "higher", "runtime", _LADDER),
    ("runtime.lane.thread2_b64_rps", "1/s", "higher", "runtime", _LADDER),
    ("transport.route_s", "s", "lower", "transport", _TRANSPORT),
    ("transport.reporter.transmit_s", "s", "lower", "transport", _TRANSPORT),
    ("transport.reporter.cpu_s", "s", "lower", "transport", _TRANSPORT),
    ("transport.translator.cpu_s", "s", "lower", "transport",
     _TRANSPORT + " (the blocking step today)"),
    ("transport.collector.cpu_s", "s", "lower", "transport", _TRANSPORT),
    ("transport.overlap_ratio", "ratio", "higher", "transport",
     "ingest_rps but not cpu_us_per_report on udp_kw_lossy (1.0 = reporter "
     "and translator alternate, 2.0 = full overlap)"),
    ("transport.drain_wait_s", "s", "lower", "transport", _TRANSPORT),
    ("transport.datagrams_sent", "count", "lower", "transport", _TRANSPORT),
    ("transport.reports_per_datagram", "ratio", "higher", "transport",
     _TRANSPORT),
    ("transport.shim.dropped", "count", "lower", "transport",
     "none: seeded input of udp_kw_lossy"),
    ("transport.shim.reordered", "count", "lower", "transport",
     "none: seeded input of udp_kw_lossy"),
    ("transport.acks_received", "count", "lower", "transport", _TRANSPORT),
    ("transport.ctrl_bytes", "bytes", "lower", "transport", _TRANSPORT),
    ("transport.nacks_sent", "count", "lower", "transport", _TRANSPORT),
    ("transport.duplicates", "count", "lower", "transport", _TRANSPORT),
    ("transport.batches", "count", "lower", "transport", _TRANSPORT),
    ("transport.reports_per_batch", "ratio", "higher", "transport",
     _TRANSPORT),
    ("transport.envelope.reassemble_s", "s", "lower", "transport",
     _TRANSPORT),
    ("transport.assembler.feed_frames_s", "s", "lower", "transport",
     _TRANSPORT),
    ("queries.snapshot_ms_p50", "ms", "lower", "queries",
     _QUERIES + "; also ingest_rps there"),
    ("queries.tick_ms_tail", "ms", "lower", "queries", _QUERIES),
    ("queries.plan_ms_p50.value_table", "ms", "lower", "queries", _QUERIES),
    ("queries.plan_ms_p50.top_counters", "ms", "lower", "queries", _QUERIES),
    ("queries.plan_ms_p50.heavy_keys", "ms", "lower", "queries", _QUERIES),
    ("queries.plan_ms_p50.append_volume", "ms", "lower", "queries",
     _QUERIES),
    ("queries.plan_ms_p50.paths", "ms", "lower", "queries", _QUERIES),
    ("queries.plan_ms_p50.health_join", "ms", "lower", "queries", _QUERIES),
    ("queries.rows_scanned_per_tick", "count", "lower", "queries", _QUERIES),
    ("queries.bytes_touched_per_tick", "bytes", "lower", "queries",
     _QUERIES),
    ("retention.rotate_ms_p50", "ms", "lower", "retention", _RETAIN),
    ("retention.rotate_share", "ratio", "lower", "retention", _RETAIN),
    ("retention.rotations", "count", "lower", "retention", _RETAIN),
    ("retention.cells_expired", "count", "higher", "retention", _RETAIN),
    ("retention.live_cells_max", "count", "lower", "retention", _RETAIN),
    ("retention.ckpt_bytes", "bytes", "lower", "retention", _RETAIN),
    ("obs.snapshot_ms", "ms", "lower", "obs",
     "none today; cross-process tracing must leave it and ingest_rps flat"),
    ("harness.gen_s", "s", "lower", "harness", _HARNESS),
    ("harness.self_s", "s", "lower", "harness", _HARNESS),
    ("harness.trace_overhead_ratio", "ratio", "lower", "harness", _HARNESS),
    ("harness.rep_spread", "ratio", "lower", "harness", _HARNESS),
    ("harness.calib_kops", "1/ms", "higher", "harness", _HARNESS),
    ("harness.host_steal_ticks", "count", "lower", "harness", _HARNESS),
)

#: Span name -> per-layer metric that sums its self time.
SPAN_METRIC = {
    "core.batch.build": "core.batch.build_s",
    "core.reporter.encode": "core.reporter.encode_s",
    "core.translator.translate": "core.translator.translate_s",
    "rdma.post_burst": "rdma.post_burst_s",
    "runtime.start": "runtime.start_s",
    "runtime.submit": "runtime.submit_s",
    "runtime.drain": "runtime.drain_s",
    "transport.route": "transport.route_s",
    "transport.reporter.transmit": "transport.reporter.transmit_s",
    "transport.drain_wait": "transport.drain_wait_s",
}


def benchmark_json(run_seconds: int) -> dict:
    """The document ``BENCHMARK.json`` must equal (selftest checks)."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _layer, _moves in PER_LAYER],
    }

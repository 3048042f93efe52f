"""The shipped query catalog + the mixed workload that feeds it.

The differential gate (ROADMAP item 1) is phrased over "every shipped
query plan": this module is the single definition of that set, used by
the ``repro query`` CLI, the serving example, and
``tests/queries/test_differential.py``.  The plans deliberately cover
every operator (filter, map, reduce, distinct, topk, join, union) and
every primitive store, so "catalog results equal across lanes" means
the whole algebra agrees with the serial reference.

The mixed workload interleaves all five workload primitives through one
streaming engine — the closest thing the repo has to a production
collector serving every service at once.
"""

from __future__ import annotations

from repro import bench
from repro.queries import algebra
from repro.runtime.engine import StreamEngine
from repro.workloads import reports as workload

#: Primitives of the mixed stream, in submission order.
MIXED = workload.PRIMITIVES


def demo_workloads(reports: int, seed: int) -> dict:
    """Seeded per-primitive workload columns for the mixed stream."""
    return {primitive: workload.columns(primitive, reports, seed + index)
            for index, primitive in enumerate(MIXED)}


def shipped_plans(works: dict) -> dict:
    """The catalog: named plans parameterized by the workload's keys."""
    kw_keys = tuple(dict.fromkeys(works["key_write"]["keys"]))
    ki_keys = tuple(dict.fromkeys(works["key_increment"]["keys"]))
    pc_keys = tuple(dict.fromkeys(works["postcarding"]["keys"]))
    lists = sorted(set(works["append"]["list_ids"]))

    shared_keys = kw_keys[:64]
    append_union = algebra.append_entries(lists[0])
    for list_id in lists[1:]:
        append_union = append_union.union(algebra.append_entries(list_id))

    return {
        # Key-Write: which watched keys are queryable right now.
        "value_table": (
            algebra.keywrite_values(kw_keys[:256], redundancy=2)
            .filter(lambda row: row["found"])
            .distinct(key="key")),
        # Key-Increment: the heaviest counters among the candidates.
        "top_counters": (
            algebra.counter_estimates(ki_keys[:256], redundancy=2)
            .topk(10, by="count")),
        # Merged sketch: candidate keys crossing a volume threshold.
        "heavy_keys": (
            algebra.sketch_estimates(shared_keys)
            .filter(lambda row: row["estimate"] >= 1)
            .topk(20, by="estimate")),
        # Append: per-list landed-entry volume (union + reduce).
        "append_volume": (
            append_union
            .reduce(key="list_id", how="count")),
        # Postcarding: distinct traced paths, longest first.
        "paths": (
            algebra.postcard_paths(pc_keys[:128])
            .filter(lambda row: row["found"])
            .map(lambda row: {"key": row["key"],
                              "path": tuple(row["path"]),
                              "hops": len(row["path"])})
            .distinct(key="key")
            .topk(None, by="hops")),
        # Cross-store join: per-key counter next to its latest value.
        "health_join": (
            algebra.counter_estimates(ki_keys[:64], redundancy=2)
            .join(algebra.keywrite_values(ki_keys[:64], redundancy=2),
                  on="key", how="left")
            .filter(lambda row: row["count"] > 0)
            .topk(5, by="count")),
    }


def stream_mixed(works: dict, *, workers: int, batch_size: int = 32,
                 queue_depth: int = 64, on_epoch=None, epochs: int = 1):
    """Drive the mixed workload through one streaming deployment.

    Returns ``(registry, collector, engine, zero_loss)`` with the
    engine drained and closed and the previous obs registry restored —
    the stores are ready for querying, and the registry snapshot holds
    the run's series.  ``on_epoch(engine, epoch)`` fires after each of
    ``epochs`` equal submission slices, while the stream is live — the
    hook the serving loop uses to query mid-ingest.
    """
    n = workload.size(works["key_write"])
    with bench.deployment(vectorized=False, sketch_width=n) as (
            registry, collector, translator, reporter):
        engine = StreamEngine(collector, translator, reporter,
                              workers=workers, queue_depth=queue_depth,
                              vectorized=True, name="query-feed")
        try:
            engine.start()
            slice_len = max(batch_size, (n + epochs - 1) // epochs)
            for start in range(0, n, slice_len):
                stop = min(start + slice_len, n)
                for primitive in MIXED:
                    work = works[primitive]
                    for s in range(start, stop, batch_size):
                        e = min(s + batch_size, stop)
                        engine.submit(workload.batch(primitive, work, s, e))
                if on_epoch is not None:
                    on_epoch(engine, start // slice_len + 1)
            engine.drain()
        finally:
            engine.close()
    reporter_sent = reporter.stats.reports_sent
    translator_in = translator.stats.reports_in
    zero_loss = (reporter_sent == translator_in == n * len(MIXED)
                 and engine.link.stats.drops == 0
                 and translator.stats.dropped_while_crashed == 0)
    return registry, collector, engine, zero_loss


def run_catalog(collector_or_snapshot, works: dict):
    """Evaluate every shipped plan; returns ``(results, cost_report)``.

    ``results`` maps plan name to its row list — the exact object the
    differential gate compares across lanes.
    """
    from repro.queries.serving import QueryServer

    server = QueryServer(collector_or_snapshot)
    for name, plan in shipped_plans(works).items():
        server.register(name, plan)
    tick = server.tick()
    results = {name: result.rows for name, result in tick.results.items()}
    return results, server.cost_report()

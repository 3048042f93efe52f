"""``run_lane``: one seeded workload through one engine lane.

The runtime differentials (``test_differential``, ``test_shm``,
``test_shm_regressions``, ``test_stress``, ``test_soak``) drive the
streaming engine (:mod:`repro.runtime.engine`) with the seeded report
workload (:mod:`repro.workloads.reports`) on a fresh deployment and
compare what the lanes leave behind: the ``workers=0`` scalar lane is
the reference every digest is held to.
"""

from __future__ import annotations

from repro import bench
from repro.runtime.engine import StreamEngine, pipeline_digest, store_digest
from repro.runtime.queues import _clock
from repro.workloads import reports as workload


def run_lane(primitive: str, work: dict, *, workers: int,
             queue_depth: int = 64, vectorized: bool = True,
             batch_size: int = 64, sketch_width: int = 0,
             executor: str = "thread",
             duration: float | None = None) -> dict:
    """One engine lane on a fresh deployment; returns what it left.

    ``sketch_width`` must be the *full* workload size for both lanes of
    a comparison — store digests cover the whole region, so the lanes
    must deploy identically even when one submits a shorter prefix
    (``duration`` stops submitting once that many seconds have passed).
    """
    n = workload.size(work)
    with bench.deployment(vectorized=False, sketch_width=sketch_width) as (
            registry, collector, translator, reporter):
        engine = StreamEngine(collector, translator, reporter,
                              workers=workers, queue_depth=queue_depth,
                              vectorized=vectorized, executor=executor,
                              name="soak")
        submitted = 0
        try:
            deadline = _clock() + duration if duration else None
            engine.start()
            for s in range(0, n, batch_size):
                if deadline is not None and _clock() >= deadline:
                    break
                e = min(s + batch_size, n)
                engine.submit(workload.batch(primitive, work, s, e))
                submitted += e - s
            engine.drain()
            snapshot = registry.snapshot()
        finally:
            engine.close()
    link = engine.link.stats
    drops = {
        "link_drops": link.drops,
        "shed_by_congestion": reporter.stats.shed_by_congestion,
        "dropped_while_crashed": translator.stats.dropped_while_crashed,
        "reports_sent": reporter.stats.reports_sent,
        "reports_in": translator.stats.reports_in,
    }
    zero_loss = (submitted == reporter.stats.reports_sent
                 == translator.stats.reports_in
                 and link.drops == 0
                 and translator.stats.dropped_while_crashed == 0)
    return {"reports": submitted,
            "obs_digest": pipeline_digest(snapshot),
            "store_digest": store_digest(collector),
            "workers": workers, "executor": executor,
            "vectorized": bool(vectorized),
            "drops": drops, "zero_loss": zero_loss,
            "queue_high_watermarks": {q.name: q.high_watermark
                                      for q in engine.queues}}

"""Sustained-throughput soak runs behind ``repro run``.

Drives the streaming engine (:mod:`repro.runtime.engine`) with the
seeded report workload (:mod:`repro.workloads.reports`) for a
wall-clock duration (or a fixed report count), then replays exactly
the submitted prefix through the ``workers=0`` serial reference lane
and holds the two runs to the determinism contract: identical
collector store bytes, identical non-``runtime.*`` obs digests, zero
report loss, and — outside smoke mode — streamed throughput at least
:data:`THROUGHPUT_GATE` times the serial reference.

The serial baseline is deliberately the *scalar* reference path
(``workers=0`` with vectorization off): that is today's
line-by-line-auditable semantics, the same lane every digest gate is
anchored to, so one serial run serves as both the correctness oracle
and the speedup denominator.

Each run is one ``run`` lane record (:mod:`repro.bench`) with two
cells, ``streamed`` and ``serial``; see ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import time

from repro import bench
from repro.runtime.engine import StreamEngine, pipeline_digest, store_digest
from repro.runtime.queues import _clock
from repro.workloads import reports as workload

#: Streamed reports/sec must beat the serial reference by this factor.
THROUGHPUT_GATE = 1.5


def run_lane(primitive: str, work: dict, *, workers: int,
             queue_depth: int = 64, vectorized: bool = True,
             batch_size: int = 64, sketch_width: int = 0,
             executor: str = "thread",
             duration: float | None = None,
             rate: float | None = None) -> dict:
    """One soak lane on a fresh deployment; returns its record cell.

    ``sketch_width`` must be the *full* workload size for both lanes of
    a comparison — store digests cover the whole region, so the lanes
    must deploy identically even when one submits a shorter prefix.
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
            start = _clock()
            deadline = start + duration if duration else None
            engine.start()
            for s in range(0, n, batch_size):
                now = _clock()
                if deadline is not None and now >= deadline:
                    break
                if rate and submitted:
                    # Open-loop pacing: sleep off any lead over the target.
                    lead = submitted / rate - (now - start)
                    if lead > 0:
                        time.sleep(lead)
                e = min(s + batch_size, n)
                engine.submit(workload.batch(primitive, work, s, e))
                submitted += e - s
            engine.drain()
            elapsed = _clock() - start
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
    return bench.cell(
        submitted, elapsed,
        obs_digest=pipeline_digest(snapshot),
        store_digest=store_digest(collector),
        workers=workers, executor=executor, vectorized=bool(vectorized),
        drops=drops, zero_loss=zero_loss,
        queue_high_watermarks={q.name: q.high_watermark
                               for q in engine.queues})


def run_soak(*, primitive: str = "key_write", reports: int = 120_000,
             batch_size: int = 64, queue_depth: int = 64,
             workers: int = 2, seed: int = 1, executor: str = "thread",
             duration: float | None = None, rate: float | None = None,
             smoke: bool = False) -> dict:
    """Streamed soak + serial reference replay; returns the lane record.

    The streamed cell runs first (optionally duration-bounded and
    rate-paced); the serial cell then replays exactly the prefix the
    streamed one actually submitted, taken by truncating the one
    generated workload (``workload.columns`` is not prefix-stable).

    ``executor`` and ``workers`` select the streamed cell's substrate:
    ``workers=0`` is the inline vectorized lane, anything else the
    thread pair or the plan worker processes.  The serial reference
    always runs inline and scalar, whatever the streamed cell used.
    """
    work = workload.columns(primitive, reports, seed)
    sketch_width = workload.sketch_width(primitive, reports)
    streamed = run_lane(primitive, work, workers=workers,
                        queue_depth=queue_depth, vectorized=True,
                        batch_size=batch_size, sketch_width=sketch_width,
                        executor=executor, duration=duration, rate=rate)
    prefix = {key: column[:streamed["reports"]]
              for key, column in work.items()}
    serial = run_lane(primitive, prefix, workers=0, vectorized=False,
                      queue_depth=queue_depth, batch_size=batch_size,
                      sketch_width=sketch_width)

    speedup = bench.set_speedup(streamed, "serial", serial)
    gates = [
        bench.gate("streamed digests match serial",
                   streamed["obs_digest"] == serial["obs_digest"]
                   and streamed["store_digest"] == serial["store_digest"]),
        bench.gate("zero report loss", streamed["zero_loss"]),
    ]
    if not smoke:
        gates.append(bench.gate("streamed vs serial speedup", speedup,
                                THROUGHPUT_GATE))
    config = {"primitive": primitive, "reports": reports,
              "batch_size": batch_size, "queue_depth": queue_depth,
              "workers": workers, "seed": seed, "executor": executor,
              "duration_s": duration, "rate": rate, "smoke": smoke,
              "throughput_gate": THROUGHPUT_GATE}
    return bench.record("run", config,
                        {"streamed": streamed, "serial": serial}, gates)

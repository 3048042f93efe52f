"""Differential: streamed execution is bit-identical to serial.

The streaming engine's determinism contract (see
``docs/ARCHITECTURE.md``, "Streaming runtime") says worker count and
queue depth change *scheduling* and nothing else: collector store
bytes and every non-``runtime.*`` obs series must match the serial
reference exactly.  These tests sweep the full (primitive x workers x
queue depth) matrix on one seeded workload and hold every cell to the
``workers=0`` reference — and hold that reference, in turn, to the
plain ``send_batch`` loop the rest of the suite trusts.
"""

from __future__ import annotations

import pytest

from repro import bench
from repro.runtime import StreamEngine, run_lane, store_digest
from repro.workloads import reports

REPORTS = 480
BATCH = 32
SEED = 11
WORKERS = (0, 2)
DEPTHS = (1, 4, 64)


def _sketch_width(primitive: str) -> int:
    return REPORTS if primitive == "sketch_merge" else 0


@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_streamed_matches_serial_across_workers_and_depths(primitive):
    """Store bytes + obs digests agree at every (workers, depth)."""
    work = reports.columns(primitive, REPORTS, SEED)
    reference = None
    for workers in WORKERS:
        for depth in DEPTHS:
            lane = run_lane(primitive, work, workers=workers,
                            queue_depth=depth, vectorized=workers > 0,
                            batch_size=BATCH,
                            sketch_width=_sketch_width(primitive))
            assert lane["zero_loss"], (primitive, workers, depth,
                                       lane["drops"])
            signature = (lane["obs_digest"], lane["store_digest"])
            if reference is None:
                reference = signature
            assert signature == reference, (primitive, workers, depth)


def _engine_snapshot(primitive: str, work: dict, **engine_kw):
    """Run one engine over the workload; return (snapshot, store)."""
    with bench.deployment(vectorized=False,
                          sketch_width=_sketch_width(primitive)) as (
            registry, collector, translator, reporter):
        engine = StreamEngine(collector, translator, reporter, **engine_kw)
        try:
            engine.start()
            n = len(next(iter(work.values())))
            for s in range(0, n, BATCH):
                engine.submit(reports.batch(primitive, work, s,
                                            min(s + BATCH, n)))
            engine.drain()
            snapshot = registry.snapshot()
        finally:
            engine.close()
    return snapshot, store_digest(collector)


@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_workers0_engine_equals_plain_serial_loop(primitive):
    """The inline fallback adds link/runtime series and changes nothing
    else: every series the plain ``send_batch`` loop produces has the
    identical value under the engine, and the stores are byte-equal."""
    work = reports.columns(primitive, REPORTS, SEED)
    with bench.deployment(vectorized=False,
                          sketch_width=_sketch_width(primitive)) as (
            registry, collector, translator, reporter):
        for s in range(0, REPORTS, BATCH):
            reporter.send_batch(reports.batch(primitive, work, s, s + BATCH))
        if primitive == "append":
            translator.flush_appends()
        plain_snapshot = registry.snapshot()
        plain_store = store_digest(collector)

    snapshot, store = _engine_snapshot(primitive, work, workers=0,
                                       vectorized=False)
    assert store == plain_store
    for key, value in plain_snapshot.samples.items():
        assert snapshot.samples.get(key) == value, key
    extra = set(snapshot.samples) - set(plain_snapshot.samples)
    assert all(name.startswith(("runtime.", "link."))
               for name, _labels in extra), sorted(extra)


@pytest.mark.parametrize("primitive", ("key_write", "key_increment"))
def test_vectorized_plan_apply_split_matches_scalar(primitive):
    """The engine's cross-stage plan/apply split (translate plans the
    arrays, execute scatters them) digests identically to the scalar
    reference — the PR 4 vectorization guarantee, preserved across the
    stage boundary."""
    work = reports.columns(primitive, REPORTS, SEED)
    scalar = run_lane(primitive, work, workers=0, vectorized=False,
                      batch_size=BATCH)
    vector = run_lane(primitive, work, workers=2, vectorized=True,
                      batch_size=BATCH)
    assert vector["obs_digest"] == scalar["obs_digest"]
    assert vector["store_digest"] == scalar["store_digest"]


def test_a_clean_mixed_stream_never_reaches_the_scalar_burst():
    """Five primitives 4:4:4:4:1 at batch 64 through the inline engine
    with ``vectorized=True``, on a translator *built*
    ``vectorized=False`` (the engine flips the flag later — what the
    repo benchmark's wiring does): every batch is a plan, so
    ``RdmaClient.post_burst`` is reached by the end-of-stream Append
    flush and by nothing before it — and the digests are the scalar
    reference's."""
    each, batch = 1000, 64
    sizes = {p: each // 4 if p == "sketch_merge" else each
             for p in reports.PRIMITIVES}
    works = {p: reports.columns(p, n, SEED) for p, n in sizes.items()}
    schedule = []       # one batch per primitive per round, sketch every 4th
    for turn, start in enumerate(range(0, each, batch)):
        for primitive in reports.PRIMITIVES:
            if primitive != "sketch_merge":
                schedule.append((primitive, start))
            elif turn % 4 == 0 and turn // 4 * batch < sizes[primitive]:
                schedule.append((primitive, turn // 4 * batch))

    def run(vectorized: bool):
        from repro.runtime import pipeline_digest
        with bench.deployment(vectorized=False,
                              sketch_width=sizes["sketch_merge"]) as (
                registry, collector, translator, reporter):
            client = translator.client
            bursts = []
            post_burst = client.post_burst
            client.post_burst = \
                lambda wrs: bursts.append(len(wrs)) or post_burst(wrs)
            engine = StreamEngine(collector, translator, reporter,
                                  workers=0, vectorized=vectorized)
            with engine:
                for primitive, s in schedule:
                    engine.submit(reports.batch(
                        primitive, works[primitive], s,
                        min(s + batch, sizes[primitive])))
                before_drain = len(bursts)
                engine.drain()
            return (before_drain, len(bursts), store_digest(collector),
                    pipeline_digest(registry.snapshot()))

    before_drain, total, store, digest = run(vectorized=True)
    assert before_drain == 0, "a batch fell back to the scalar burst"
    assert total == 1, "only the end-of-stream Append flush posts a burst"
    scalar = run(vectorized=False)
    assert scalar[0] > 0
    assert (store, digest) == scalar[2:]


def test_queue_metrics_register_and_exclude_from_digest():
    """Queue depth/stall series exist under ``runtime.*`` (so they are
    observable) and are excluded from the pipeline digest (so they do
    not break determinism)."""
    work = reports.columns("key_write", REPORTS, SEED)
    snapshot, _store = _engine_snapshot("key_write", work, workers=2,
                                        queue_depth=4, vectorized=False)
    names = {name for name, _labels in snapshot.samples}
    assert "runtime.queue_depth" in names
    assert "runtime.enqueued" in names
    assert "runtime.carriers" in names
    from repro.runtime import pipeline_digest
    digest_names = {name for name, _labels in snapshot.samples
                    if not name.startswith("runtime.")}
    assert "runtime.queue_depth" not in digest_names
    assert pipeline_digest(snapshot)  # digest of the filtered snapshot

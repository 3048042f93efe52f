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

import threading
import time

import pytest

from repro import bench
from repro.core.batch import ReportBatch
from repro.retention.checkpoint import read_manifest
from repro.retention.epochs import RetentionPolicy
from repro.runtime import (StageError, StreamEngine, pipeline_digest,
                           store_digest)
from repro.workloads import reports
from tests import conformance

REPORTS = 480
BATCH = 32
SEED = 11
DEPTHS = (1, 4, 64)


def _seeded(primitive: str, **kw) -> conformance.Stream:
    return conformance.stream(primitive, reports=REPORTS, batch=BATCH, **kw)


@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_streamed_matches_serial_across_workers_and_depths(primitive):
    """Store bytes + obs digests agree at every (workers, depth)."""
    # ``workers=0`` runs no queue: one depth stands for all.
    serial = conformance.run("reference", _seeded(primitive))
    for depth in DEPTHS:
        got = conformance.run("thread", _seeded(primitive,
                                                queue_depth=depth))
        assert got["zero_loss"], (primitive, depth)
        assert (got["obs"], got["store"]) == (
            serial["obs"], serial["store"]), (primitive, depth)


@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_workers0_engine_equals_plain_serial_loop(primitive):
    """The inline fallback adds link/runtime series and changes nothing
    else: every series the plain ``send_batch`` loop produces has the
    identical value under the engine, and the stores are byte-equal."""
    plain = conformance.run("batched", _seeded(primitive))
    engine = conformance.run("reference", _seeded(primitive))
    assert plain["store"] == engine["store"]
    # ``unlinked``: the pipeline digest without ``link.*``.
    assert plain["obs"] == plain["unlinked"] == engine["unlinked"]
    assert all(name.startswith(("runtime.", "link."))
               for name in engine["series"] - plain["series"])


@pytest.mark.parametrize("primitive", ("key_write", "key_increment"))
def test_vectorized_plan_apply_split_matches_scalar(primitive):
    """The engine's cross-stage plan/apply split (translate plans the
    arrays, execute scatters them) digests identically to the scalar
    reference — the PR 4 vectorization guarantee, preserved across the
    stage boundary."""
    scalar = conformance.run("reference", _seeded(primitive))
    vector = conformance.run("thread", _seeded(primitive))
    assert vector["kernels"] > 0
    assert vector["obs"] == scalar["obs"]
    assert vector["store"] == scalar["store"]


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
    got = conformance.run("thread", _seeded("key_write", queue_depth=4))
    assert {"runtime.queue_depth", "runtime.enqueued",
            "runtime.carriers"} <= got["series"]
    # The reference runs no stage queue, and digests the same.
    assert got["obs"] == conformance.run("reference",
                                         _seeded("key_write"))["obs"]


# ----------------------------------------------------------------------
# Plans as wide as the next observer: the engine holds plain batches per
# primitive and plans each run at the next cut (``docs/CONCURRENCY.md``).
# The reference is the same engine with ``vectorized=False``, which
# holds nothing and translates every batch as submitted.
# ----------------------------------------------------------------------

#: The mixed stream: rounds of interleaved primitives (reports each),
#: one snapshot point after every round.  ``toy`` is the sixth
#: primitive ``tests/core/test_primitives.py`` declares; nothing in the
#: engine names it.
ROUNDS = (
    {"key_write": 150, "postcarding": 200, "toy": 90, "append": 120},
    {"key_increment": 400, "sketch_merge": 128, "key_write": 40},
    {"postcarding": 333, "append": 250, "toy": 300, "key_increment": 70,
     "sketch_merge": 64},
    {"key_write": 500, "append": 9, "toy": 1},
)
WIDTHS = (1, 7, 64, 4096)


@pytest.fixture
def toy(monkeypatch):
    """The toy as a sixth registry row, for one test."""
    from tests.core.test_primitives import install_toy

    install_toy(monkeypatch)


def _totals() -> dict:
    totals: dict = {}
    for rnd in ROUNDS:
        for primitive, n in rnd.items():
            totals[primitive] = totals.get(primitive, 0) + n
    return totals


def _works() -> dict:
    works = {p: reports.columns(p, n, SEED)
             for p, n in _totals().items() if p != "toy"}
    works["toy"] = reports.columns("key_write", _totals()["toy"], SEED + 1)
    return works


def _schedule(width: int) -> list:
    """Per round, ``(primitive, start, stop)`` slices of at most
    ``width`` reports, round-robin over the round's primitives."""
    cursor = dict.fromkeys(_totals(), 0)
    rounds = []
    for rnd in ROUNDS:
        left, out = dict(rnd), []
        while left:
            for primitive in list(left):
                start = cursor[primitive]
                n = min(width, left[primitive])
                cursor[primitive] = start + n
                left[primitive] -= n
                if not left[primitive]:
                    del left[primitive]
                out.append((primitive, start, start + n))
        rounds.append(out)
    return rounds


def _batch(works, primitive, start, stop):
    from tests.core.test_primitives import TOY

    if primitive == "toy":
        work = works["toy"]
        return ReportBatch.from_columns(
            TOY, (work["keys"][start:stop], work["datas"][start:stop]), 2)
    return reports.batch(primitive, works[primitive], start, stop)


#: The rig deployment every mixed-stream engine runs on.
MIXED = {"sketch_width": _totals()["sketch_merge"], "toy": True}


def _stream(width: int, *, rotate_every=None, **engine_kw):
    """The mixed stream at ``width``: per snapshot point ``(store digest,
    obs digest, snapshot batch_seq, last submitted seq)``, then the
    drained ``(store digest, obs digest)``."""
    works = _works()
    points = []
    policy = rotate_every and RetentionPolicy(window=2,
                                              rotate_every=rotate_every)
    with conformance.engine(**MIXED, policy=policy, **engine_kw) as (
            registry, engine):
        for rnd in _schedule(width):
            for primitive, start, stop in rnd:
                seq = engine.submit(_batch(works, primitive, start, stop))
            snap = engine.snapshot()
            points.append((snap.store_digest(),
                           pipeline_digest(registry.snapshot()),
                           snap.batch_seq, seq))
        engine.drain()
        final = (store_digest(engine.collector),
                 pipeline_digest(registry.snapshot()))
    return points, final


@pytest.mark.parametrize("rotating", (False, True),
                         ids=("no-retention", "rotate_every"))
def test_merged_runs_match_submit_width_at_every_snapshot_point(
        toy, rotating):
    """One mixed stream at batch 1 / 7 / 64 / 4096: the inline engine
    that merges equals the one that holds nothing on store bytes, obs
    digest and ``batch_seq`` at every snapshot point, and the threaded
    engine on the drained result.  Without retention the widths agree
    with each other too (rotation points are batch numbers, so with it
    each width is its own stream)."""
    across = set()
    for width in WIDTHS:
        every = None
        if rotating:
            every = max(1, sum(map(len, _schedule(width))) // 5)
        reference = _stream(width, rotate_every=every, workers=0,
                            vectorized=False)
        merged = _stream(width, rotate_every=every, workers=0,
                         vectorized=True)
        assert merged == reference, width
        for _store, _obs, batch_seq, last in merged[0]:
            assert batch_seq == last
        threaded = _stream(width, rotate_every=every, workers=2,
                           vectorized=True)
        assert threaded[1] == reference[1], width
        across.add(tuple((store, obs) for store, obs, *_ in merged[0])
                   + (merged[1],))
    if not rotating:
        assert len(across) == 1


def test_batch_seq_is_the_last_submitted_at_every_tick_point(toy, tmp_path):
    """After any cut, ``executed_seq``, ``snapshot().batch_seq`` and a
    checkpoint's ``batch_seq`` name the last batch submitted — what the
    engine that holds nothing reports at the same points."""
    works = _works()
    seen = {}
    for vectorized in (False, True):
        seen[vectorized] = got = []
        with conformance.engine(
                **MIXED, policy=RetentionPolicy(window=2, rotate_every=40),
                workers=0, vectorized=vectorized) as (_r, engine):
            for rnd in _schedule(64):
                for primitive, start, stop in rnd:
                    seq = engine.submit(_batch(works, primitive, start, stop))
                path = str(tmp_path / f"ckpt-{vectorized}")
                engine.checkpoint(path, overwrite=True)
                got.append((seq, engine.snapshot().batch_seq,
                            engine.executed_seq,
                            read_manifest(path)["batch_seq"]))
    assert seen[True] == seen[False]
    assert all(len(set(point)) == 1 for point in seen[True]), seen[True]


def _failing_stream(engine, works):
    """Submit the mixed stream with a Key-Write batch the scalar lane
    rejects (data wider than the slot) in the middle of round three;
    returns the StageError."""
    bad = ReportBatch.key_writes([b"wide"], [b"\xab" * 40], redundancy=2)
    rounds = _schedule(64)
    rounds[2].insert(3, None)
    try:
        for rnd in rounds:
            for item in rnd:
                engine.submit(bad if item is None else _batch(works, *item))
        engine.drain()
    except StageError as error:
        return error
    raise AssertionError("the rejected batch did not fail the stream")


@pytest.mark.parametrize("workers", (0, 2))
def test_a_rejected_batch_fails_where_it_did_and_nothing_after_lands(
        toy, workers):
    """``docs/CONCURRENCY.md``: an exception is not a sum.  A batch the
    scalar lane raises for is never held, so every run held before it
    lands first and nothing after it does: ``StageError.batch_seq`` and
    the partial store bytes are those of the engine that holds
    nothing."""
    works = _works()
    outcome = {}
    for vectorized in (False, True):
        with conformance.engine(**MIXED, workers=workers,
                                vectorized=vectorized) as (_r, engine):
            error = _failing_stream(engine, works)
            outcome[vectorized] = (error.stage, error.batch_seq,
                                   store_digest(engine.collector))
    assert outcome[True] == outcome[False]
    assert outcome[True][0] == "translate"


def test_close_without_drain_lands_what_is_held(toy):
    """Inline submit used to apply every batch before returning, so a
    ``close()`` with no ``drain()`` must not lose the held runs."""
    works = _works()
    digests = {}
    for vectorized in (False, True):
        with conformance.engine(**MIXED, workers=0,
                                vectorized=vectorized) as (_r, engine):
            for item in _schedule(64)[0]:
                engine.submit(_batch(works, *item))
            before = store_digest(engine.collector)
        digests[vectorized] = store_digest(engine.collector)
    assert before != digests[True], "nothing was held: the test is moot"
    assert digests[True] == digests[False]


def test_reader_threads_snapshot_batch_boundaries_of_an_inline_engine(toy):
    """Readers calling ``snapshot()`` on other threads make the cut
    themselves, racing the submitting thread: every snapshot must be
    exactly the store state after the batch it names."""
    works = _works()
    batches = [item for rnd in _schedule(7) for item in rnd]
    with conformance.engine(**MIXED, workers=0, vectorized=False) as (
            _r, engine):
        after = [None]      # store digest after batch seq - 1
        for item in batches:
            engine.submit(_batch(works, *item))
            after.append(store_digest(engine.collector))

    views, errors = [], []
    with conformance.engine(**MIXED, workers=0, vectorized=True) as (
            _r, engine):
        done = threading.Event()

        def read() -> None:
            try:
                while not done.is_set():
                    snap = engine.snapshot()
                    views.append((snap.batch_seq, snap.store_digest()))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(2)]
        for reader in readers:
            reader.start()
        try:
            for item in batches:
                engine.submit(_batch(works, *item))
                time.sleep(0)       # let a reader in between submits
        finally:
            done.set()
            for reader in readers:
                reader.join()
    assert not errors, errors
    assert len({seq for seq, _digest in views}) > 3, len(views)
    for seq, digest in views:
        if seq is not None:
            assert digest == after[seq + 1], seq

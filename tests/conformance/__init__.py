"""The conformance rig: one deployment, one lane table, one signature.

Every lane must leave what the ``workers=0, vectorized=False`` engine
leaves on the same stream (``docs/CONCURRENCY.md``, "Conformance
matrix").  The rig is what every differential shares:

* :func:`deploy` — ``bench.deployment`` at the small
  :data:`GEOMETRY`, serving the toy sixth primitive of
  ``tests/core/test_primitives.py`` when asked, or (``serve=``) only
  the stores a test provisions itself;
* :data:`LANES` — lane name -> :class:`Lane`, whose ``drive`` feeds a
  :class:`Stream` through that lane on a fresh deployment;
* :func:`signature` — what lanes are compared on.

``test_matrix.py`` crosses every registry row with every lane; the
other differentials :func:`run` the lanes they need.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import multiprocessing
import os
import weakref
from dataclasses import dataclass, replace
from typing import Callable

import pytest

from repro import bench, obs
from repro.core import primitives
from repro.core.batch import ReportBatch
from repro.core.cluster import ClusterMap
from repro.core.collector import Collector
from repro.kernels import burst as kburst
from repro.retention.epochs import RetentionPolicy
from repro.retention.manager import RetentionManager
from repro.runtime import StreamEngine, pipeline_digest, store_digest
from repro.runtime.engine import pipeline_series
from repro.runtime.queues import _clock
from repro.transport.assembler import ReportAssembler
from repro.transport.envelope import unwrap, wrap_frame
from repro.transport.loss import LossSpec
from repro.transport.serve import (
    ServeSpec,
    SocketLane,
    route_report,
    run_reference,
    transport_gates,
)
from repro.workloads import reports as workload

SEED = 11
#: Reports per matrix stream: 14 batches at batch 7, 2 at batch 64.
REPORTS = 96
BATCHES = (1, 7, 64)
TRAFFIC = ("clean", "loss")
#: Seeded loss is upstream of every lane: the same survivors, in the
#: same (partly reordered) order, reach each one.
LOSS = LossSpec(seed=SEED, drop_rate=0.05, reorder_rate=0.05)
ROTATION = RetentionPolicy(window=2, rotate_every=5)
#: Frames per ``feed_frames`` call on the frames lane.
FRAME_BURSTS = (1, 3, 64, 256)
#: Store sizes every rig deployment runs at, in place of
#: ``workloads.reports``' own (forked daemons and plan workers inherit
#: them): small enough that one 64-report batch at redundancy 2 lands
#: ~20 times on a Key-Write slot and ~25 times on a Key-Increment cell
#: it already wrote, that Postcarding flows share chunks and that
#: Append rings wrap — last writer wins and add-accumulate within a
#: batch are what the vector kernels must get right.
GEOMETRY = {"KW_SLOTS": 256, "KI_SLOTS_PER_ROW": 128, "PC_CHUNKS": 32,
            "AP_CAPACITY": 16}
TOY_PARAMS = {"cells": 128, "width": 16}
#: Every engine the rig builds carries this name in its link series.
ENGINE_NAME = "lane"


def rows() -> tuple:
    """Every registry row's service, then the toy."""
    return tuple(p.service for p in primitives.REGISTRY) + ("toy",)


@dataclass(frozen=True)
class Stream:
    """One row's columns, cut into batches of ``batch`` reports.

    ``sketch_width`` is provisioned whatever ``work`` holds, so a lossy
    or truncated stream deploys like its whole self.  ``policy``,
    ``queue_depth`` and ``duration`` (submit no further batch once that
    many seconds have passed since the engine started) concern the
    engine lanes only.
    """

    row: str
    work: dict
    batch: int = 64
    sketch_width: int = 0
    policy: RetentionPolicy | None = None
    queue_depth: int = 64
    duration: float | None = None

    def __len__(self) -> int:
        return workload.size(self.work)

    @property
    def deployment(self) -> dict:
        return {"sketch_width": self.sketch_width, "toy": self.row == "toy"}

    def batches(self):
        spec = primitives.BY_SERVICE[self.row]
        extra = workload.EXTRA.get(
            "key_write" if self.row == "toy" else self.row)
        for s in range(0, len(self), self.batch):
            yield ReportBatch.from_columns(
                spec, [self.work[c][s:s + self.batch] for c in spec.columns],
                extra)

    def raws(self) -> list:
        """DTA wire bytes from reporter 1, what every rig reporter is."""
        out = []
        for batch in self.batches():
            batch.reporter_id = 1
            out.extend(batch.iter_raw())
        return out

    def shard(self, shards: int, index: int) -> "Stream":
        """The reports :func:`route_report` sends to shard ``index``."""
        cmap = ClusterMap(collectors=shards)
        keep = [i for i, raw in enumerate(self.raws())
                if route_report(cmap, raw) == index]
        return replace(self, work={k: [v[i] for i in keep]
                                   for k, v in self.work.items()})


def stream(row: str, *, traffic: str = "clean", reports: int = REPORTS,
           **kw) -> Stream:
    """``row``'s seeded stream; ``traffic="loss"`` keeps the survivors
    of :data:`LOSS`."""
    work = workload.columns("key_write" if row == "toy" else row, reports,
                            SEED + (row == "toy"))
    if traffic == "loss":
        keep = LOSS.shim().apply(range(reports))
        work = {k: [v[i] for i in keep] for k, v in work.items()}
    kw.setdefault("sketch_width", workload.sketch_width(row, reports))
    return Stream(row, work, **kw)


@contextlib.contextmanager
def geometry(serve: Callable | None = None):
    """:data:`GEOMETRY` in force while open, and ``serve`` if given
    (:func:`deploy`)."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in GEOMETRY.items():
            patch.setattr(workload, name, value)
        if serve is not None:
            patch.setattr(workload, "provision_collector",
                          functools.partial(_served, serve))
        yield


def _served(serve: Callable, name: str, **_kw) -> Collector:
    collector = Collector(name)
    serve(collector)
    return collector


@contextlib.contextmanager
def deploy(*, vectorized: bool = False, sketch_width: int = 0,
           toy: bool = False, serve: Callable | None = None):
    """``bench.deployment`` at :data:`GEOMETRY`, serving the toy too
    when ``toy`` (the caller has made it a registry row:
    ``install_toy``); ``serve(collector)``, if given, provisions a bare
    collector in place of the workload's stores."""
    with geometry(serve), bench.deployment(
            vectorized=vectorized, sketch_width=sketch_width) as deployment:
        if toy:
            from tests.core.test_primitives import TOY

            _registry, collector, translator, _reporter = deployment
            translator.configure(collector._serve(TOY, TOY_PARAMS, 9990))
        yield deployment


#: The series a lane with no engine (``link.*``), or no reporter before
#: its translator (``reporter.*``, or one whose ``send_batch`` a
#: rejected batch never got through), lacks beside one that has both.
SHARED_DROP = ("link.", "reporter.")


def _digests(snapshot, *drops: tuple) -> list:
    """``pipeline_digest`` of ``snapshot`` without the series under
    each prefix tuple of ``drops``, from one serialisation of it."""
    lines = [(record["name"], json.dumps(record, sort_keys=True))
             for record in obs.iter_samples(snapshot)
             if pipeline_series(record["name"])]
    return ["sha256:" + hashlib.sha256("\n".join(
        line for name, line in lines
        if not name.startswith(drop)).encode()).hexdigest()
        for drop in drops]


def shared_digest(snapshot, drop: tuple = SHARED_DROP) -> str:
    """``pipeline_digest`` of the series outside ``drop``."""
    return _digests(snapshot, drop)[0]


def signature(registry, collector, kernels: list) -> dict:
    """Store digest; ``pipeline_digest`` whole (``obs``), without
    ``link.*`` (``unlinked``) and without ``reporter.*`` too
    (``shared``); burst-kernel calls; the series recorded."""
    snapshot = registry.snapshot()
    whole, unlinked, shared = _digests(snapshot, (), ("link.",),
                                       SHARED_DROP)
    return {"store": store_digest(collector),
            "obs": whole,
            "unlinked": unlinked,
            "shared": shared,
            "kernels": len(kernels),
            "series": {name for name, _labels in snapshot.samples}}


def count_kernels(patch) -> list:
    """Burst-kernel calls — a vector plan landing — one entry each,
    counted through ``patch`` (a ``pytest.MonkeyPatch``)."""
    calls: list = []
    for name in ("write_rows", "write_spans", "fetch_add_many"):
        real = getattr(kburst, name)
        patch.setattr(kburst, name, lambda *args, _real=real, **kw:
                      calls.append(1) or _real(*args, **kw))
    return calls


def _refs(**objects) -> dict:
    return {name: weakref.ref(obj) for name, obj in objects.items()}


@contextlib.contextmanager
def engine(*, sketch_width: int = 0, toy: bool = False,
           policy: RetentionPolicy | None = None, start: bool = True,
           **engine_kw):
    """A :class:`StreamEngine` on a fresh :func:`deploy`, rotating under
    ``policy`` if given, started unless ``start`` is false; yields
    ``(registry, engine)`` and closes the engine on exit."""
    with deploy(sketch_width=sketch_width, toy=toy) as (
            registry, collector, translator, reporter):
        manager = policy and RetentionManager(collector, policy=policy)
        built = StreamEngine(collector, translator, reporter,
                             retention=manager, name=ENGINE_NAME,
                             **engine_kw)
        try:
            yield registry, built.start() if start else built
        finally:
            built.close()


def direct(feed: Callable, *, vectorized: bool = False,
           sketch_width: int = 0, toy: bool = False,
           serve: Callable | None = None) -> tuple:
    """``feed(translator, reporter)`` on a fresh :func:`deploy`, then
    the end-of-stream Append flush; returns ``(signature, weakrefs)``."""
    with pytest.MonkeyPatch.context() as patch, deploy(
            vectorized=vectorized, sketch_width=sketch_width, toy=toy,
            serve=serve) as (registry, collector, translator, reporter):
        kernels = count_kernels(patch)
        feed(translator, reporter)
        translator.flush_appends()
        return signature(registry, collector, kernels), _refs(
            registry=registry, collector=collector,
            region=primitives.served(collector)[0][1].region)


@dataclass(frozen=True)
class Lane:
    """``drive(stream) -> (signature, weakrefs)``, held to the reference
    on store bytes and the signature's ``digest``.  ``engine``:
    retention applies.  ``wire``: fed DTA wire bytes, so only rows with
    a wire code ride it.  ``vector``: may plan (a scalar lane calls no
    burst kernel).  ``shards``: a socket lane, whose signature is a
    store digest per collector shard and the obs digest its daemons
    roll up to (:func:`serve_reference`)."""

    drive: Callable
    digest: str = "shared"
    engine: bool = False
    wire: bool = False
    vector: bool = True
    shards: int = 0


def _engine_lane(vectorized: bool = True, **engine_kw) -> Callable:
    def drive(stream: Stream):
        submitted = 0
        with pytest.MonkeyPatch.context() as patch, engine(
                **stream.deployment, policy=stream.policy,
                queue_depth=stream.queue_depth, vectorized=vectorized,
                **engine_kw) as (registry, eng):
            kernels = count_kernels(patch)
            deadline = stream.duration and _clock() + stream.duration
            for batch in stream.batches():
                eng.submit(batch)
                submitted += len(batch)
                if deadline and _clock() >= deadline:
                    break
            eng.drain()
        # After close: the registry must still snapshot (it once raised
        # on the process lane).
        out = signature(registry, eng.collector, kernels)
        sent, got = eng.reporter.stats, eng.translator.stats
        out.update(
            reports=submitted,
            zero_loss=(submitted == sent.reports_sent == got.reports_in
                       and eng.link.stats.drops
                       == got.dropped_while_crashed == 0),
            queue_high_watermarks={q.name: q.high_watermark
                                   for q in eng.queues})
        return out, _refs(registry=registry, collector=eng.collector,
                          region=eng.collector.keywrite.region, engine=eng)
    return drive


def _direct_lane(feed: Callable, vectorized: bool = True) -> Callable:
    """A lane with no engine: ``feed(stream, translator, reporter)``."""
    return lambda stream: direct(
        lambda translator, reporter: feed(stream, translator, reporter),
        vectorized=vectorized, **stream.deployment)


def _per_report(stream, translator, _reporter) -> None:
    for raw in stream.raws():
        translator.handle_report(raw)


def _emitted(stream, _translator, reporter) -> None:
    workload.emit(reporter, stream.row, stream.work)


def _batched(stream, _translator, reporter) -> None:
    for batch in stream.batches():
        reporter.send_batch(batch)


def _assembled(stream, translator, _reporter, burst=None) -> None:
    """``ReportAssembler.feed`` per report, or (``burst``) frames of
    ``batch`` reports, ``burst`` frames per ``feed_frames`` call."""
    assembler = ReportAssembler([translator], ClusterMap(1),
                                batch_size=stream.batch)
    raws = stream.raws()
    if burst is None:
        for raw in raws:
            assembler.feed(raw)
    else:
        frames = [unwrap(wrap_frame(0, raws[s:s + stream.batch]))[2]
                  for s in range(0, len(raws), stream.batch)]
        for s in range(0, len(frames), burst):
            assembler.feed_frames(frames[s:s + burst])
    assembler.finish()


def _frames(stream: Stream):
    """Every :data:`FRAME_BURSTS` width that cuts the frames differently
    must leave the same signature."""
    frames = -(-len(stream) // stream.batch)
    seen = [_direct_lane(lambda *args, burst=burst: _assembled(
                *args, burst=burst))(stream)
            for burst in sorted({min(b, frames) for b in FRAME_BURSTS})]
    for got, _refs in seen[1:]:
        assert (got["store"], got["shared"]) == (
            seen[0][0]["store"], seen[0][0]["shared"]), "burst widths differ"
    return seen[-1]


def serve_spec(stream: Stream, translators: int) -> ServeSpec:
    """The socket lane's deployment: one collector shard per
    translator."""
    return ServeSpec(primitive=stream.row, collectors=translators,
                     translators=translators, batch_size=stream.batch,
                     reports=stream.sketch_width or len(stream))


def serve_reference(stream: Stream, translators: int) -> dict:
    """``run_reference`` over ``stream``: each shard's store digest and
    the ``pipeline_digest`` of its registry — the socket lane's
    signature, what its daemons must leave and roll up to."""
    registry = obs.Registry()
    with geometry():
        stores = run_reference(serve_spec(stream, translators),
                               stream.raws(), registry)
    return {"stores": stores, "obs": pipeline_digest(registry.snapshot())}


def _socket_lane(translators: int) -> Callable:
    """The real socket lane: each shard's store digest and the obs
    digest of the daemons' roll-up, once ``transport_gates`` (what
    ``repro serve`` gates on besides digests) hold.  No ``/dev/shm``
    segment the lane made and no ``dta-*`` daemon may outlive it."""
    def drive(stream: Stream):
        raws = stream.raws()
        cmap = ClusterMap(collectors=translators)
        registry = obs.Registry()
        previous = obs.set_registry(registry)
        try:
            with geometry(), SocketLane(serve_spec(stream, translators)) \
                    as lane:
                segments = [shm.name for shm in lane._segments]
                reporter = lane.reporter
                lane.send(raws, [route_report(cmap, raw) for raw in raws])
                sent = lane.end_stream()
                gates = transport_gates(reporter, sent, lane.drain())
                stores = lane.digests()
        finally:
            obs.set_registry(previous)
        failed = [gate["gate"] for gate in gates if not gate["pass"]]
        assert not failed, f"the socket lane failed {failed}"
        left = [name for name in segments
                if os.path.exists(f"/dev/shm/{name}")]
        left += [proc.name for proc in multiprocessing.active_children()
                 if proc.name.startswith("dta-")]
        assert not left, f"the socket lane left {left} behind"
        return {"stores": stores,
                "obs": pipeline_digest(lane.view(labelled=False))}, _refs(
            lane=lane, reporter=reporter, registry=registry)
    return drive


#: Lane name -> :class:`Lane`; ``reference`` is what the others are
#: held to.
LANES = {
    "reference": Lane(_engine_lane(vectorized=False, workers=0),
                      digest="obs", engine=True, vector=False),
    "per_report": Lane(_direct_lane(_per_report, False), wire=True,
                       vector=False),
    "reporter": Lane(_direct_lane(_emitted, False), digest="unlinked",
                     wire=True, vector=False),
    "batched": Lane(_direct_lane(_batched, False), digest="unlinked",
                    vector=False),
    "vectorized": Lane(_direct_lane(_batched), digest="unlinked"),
    "inline": Lane(_engine_lane(workers=0), digest="obs", engine=True),
    "thread": Lane(_engine_lane(workers=2), digest="obs", engine=True),
    "process1": Lane(_engine_lane(workers=1, executor="process"),
                     digest="obs", engine=True),
    "process2": Lane(_engine_lane(workers=2, executor="process"),
                     digest="obs", engine=True),
    "assembler": Lane(_direct_lane(_assembled), wire=True),
    "frames": Lane(_frames, wire=True),
    "socket1": Lane(_socket_lane(1), wire=True, shards=1),
    "socket2": Lane(_socket_lane(2), wire=True, shards=2),
}


def run(lane: str, stream: Stream) -> dict:
    """``stream`` through one lane: its signature.  Runs with the cycle
    collector off and fails unless, once the lane has closed, its
    deployment — registry, collector, a store region, the engine — is
    freed by reference count alone (north-star "never leak")."""
    gc.disable()
    try:
        out, refs = LANES[lane].drive(stream)
        alive = sorted(name for name, ref in refs.items()
                       if ref() is not None)
    finally:
        gc.enable()
    assert not alive, f"{lane}: not freed by reference count: {alive}"
    return out

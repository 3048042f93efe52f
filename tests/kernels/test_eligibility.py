"""One eligibility decision, six lanes, every way to be ineligible.

The body behind ``Translator.plan_batch`` (batch objects) and
``Translator.plan_columns`` (receive-burst columns) is the only place
reports are declared vector-eligible, and ``VectorPlan.apply`` the only
other place a fallback can happen (``docs/CONCURRENCY.md``, "The
one-eligibility-point rule").  This drives the same batch through every
lane that reaches them — the serial translator, the streaming engine
inline / threaded / with plan worker processes, and the socket lane's
``ReportAssembler`` fed per report (``assembler``) and as one coalesced
frame (``frames``, the daemon's path: columns straight to
``plan_columns``) — under each ineligible condition, and holds every
lane to two things: no burst kernel ran (the scalar fallback was
taken), and store bytes + obs digest equal the ``workers=0,
vectorized=False`` reference.  The ``eligible`` condition is the
positive control: there the kernels must run, in every lane — and the
``frames`` lane must get there without building a ``ReportBatch``.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro import obs
from repro.core.batch import ReportBatch
from repro.core.cluster import ClusterMap
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.kernels import MIN_VECTOR_BATCH, burst as kburst
from repro.obs.registry import Snapshot
from repro.retention.tenants import TenantTable
from repro.runtime import StageError, StreamEngine, pipeline_digest, \
    store_digest
from repro.transport import assembler as assembler_mod
from repro.transport.assembler import ReportAssembler
from repro.transport.envelope import unwrap, wrap_frame

DATA_BYTES = 16

LANES = ("serial", "inline", "thread", "process", "assembler", "frames")
INELIGIBLE = ("essential", "immediate", "meter", "tenants", "tiny",
              "oversize", "ki_overflow", "stall")

_ENGINE_KW = {
    "reference": {"workers": 0, "vectorized": False},
    "inline": {"workers": 0, "vectorized": True},
    "thread": {"workers": 2, "vectorized": True},
    "process": {"workers": 1, "vectorized": True, "executor": "process"},
}


def _batch(condition: str) -> ReportBatch:
    rng = random.Random(5)
    n = MIN_VECTOR_BATCH - 1 if condition == "tiny" else 8
    keys = [rng.randbytes(6) for _ in range(n)]
    if condition == "ki_overflow":
        # Beyond int64: only the scalar lane has the wrap semantics.
        return ReportBatch.key_increments(keys, [1 << 70] + [3] * (n - 1),
                                          redundancy=2)
    datas = [rng.randbytes(8) for _ in range(n)]
    if condition == "oversize":
        datas[2] = b"x" * (DATA_BYTES + 8)      # the scalar lane raises
    return ReportBatch.key_writes(keys, datas, redundancy=2,
                                  essential=condition == "essential",
                                  immediate=condition == "immediate")


def _shared_digest(snapshot) -> str:
    """``pipeline_digest`` without the engine's own ``link.*`` series,
    so lanes that run no engine compare against one that does — and
    without ``reporter.*``: where the translator runs *inside*
    ``Reporter.send_batch``, a batch the scalar lane raises for never
    reaches the reporter's own counters."""
    def keep(key):
        return not key[0].startswith(("link.", "reporter."))

    return pipeline_digest(Snapshot(
        epoch=snapshot.epoch,
        samples={k: v for k, v in snapshot.samples.items() if keep(k)},
        kinds={k: v for k, v in snapshot.kinds.items() if keep(k)}))


def _run(lane: str, condition: str, monkeypatch) -> dict:
    """Drive the condition's batch through one lane on a fresh
    deployment; returns what the lanes are compared on."""
    kernel_calls = []
    for name in ("write_rows", "fetch_add_many"):
        real = getattr(kburst, name)
        monkeypatch.setattr(
            kburst, name,
            lambda *a, _real=real, **kw: kernel_calls.append(1)
            or _real(*a, **kw))

    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        collector = Collector()
        collector.serve_keywrite(slots=256, data_bytes=DATA_BYTES)
        collector.serve_keyincrement(slots_per_row=128, rows=4)
        translator = Translator(
            vectorized=lane != "reference",
            # A meter nothing ever exceeds: all GREEN, but configured.
            rate_limit_mps=1e12 if condition == "meter" else None)
        collector.connect_translator(translator)
        if condition == "tenants":
            translator.tenants = TenantTable([])     # admits every key
        if condition == "stall":
            # The NIC stalls after the plan is made, before it applies.
            for entry in ("plan_batch", "plan_columns"):
                def stalling(*args, _plan=getattr(translator, entry),
                             **kwargs):
                    plan = _plan(*args, **kwargs)
                    collector.nic.stall()
                    return plan

                setattr(translator, entry, stalling)

        batches_built = []
        monkeypatch.setattr(
            assembler_mod, "ReportBatch",
            lambda *a, **kw: batches_built.append(1) or ReportBatch(*a, **kw))
        raws: list = []
        if lane in ("assembler", "frames"):
            reporter = Reporter("elig", 1, transmit=raws.append)
        else:
            reporter = Reporter("elig", 1,
                                transmit=translator.handle_report,
                                transmit_batch=translator.process_batch)
        batch = _batch(condition)
        raised = False
        try:
            if lane == "serial":
                reporter.send_batch(batch)
            elif lane == "assembler":
                reporter.send_batch(batch)
                assembler = ReportAssembler([translator], ClusterMap(1))
                for raw in raws:
                    assembler.feed(raw)
                assembler.finish()
            elif lane == "frames":
                reporter.send_batch(batch)
                assembler = ReportAssembler([translator], ClusterMap(1))
                assembler.feed_frames([unwrap(wrap_frame(0, raws))[2]])
                assembler.finish()
            else:
                engine = StreamEngine(collector, translator, reporter,
                                      name="elig", **_ENGINE_KW[lane])
                with engine:
                    engine.submit(batch)
                    engine.drain()
        except (ValueError, StageError):
            raised = True
        if condition == "stall":
            # Timeout-driven go-back-N lands what the stall swallowed.
            collector.nic.resume()
            translator.client.resend_outstanding()
        snapshot = registry.snapshot()
    finally:
        obs.set_registry(previous)
    return {"store": store_digest(collector), "raised": raised,
            "obs": pipeline_digest(snapshot),
            "shared_obs": _shared_digest(snapshot),
            "kernel_calls": len(kernel_calls),
            "batches_built": len(batches_built)}


@pytest.mark.parametrize("condition", INELIGIBLE + ("eligible",))
@pytest.mark.parametrize("lane", LANES)
def test_every_lane_routes_like_the_reference(lane, condition, monkeypatch):
    if lane in ("assembler", "frames") and condition == "ki_overflow":
        pytest.skip("the wire format cannot carry a value beyond int64")
    reference = _run("reference", condition, monkeypatch)
    assert reference["kernel_calls"] == 0
    got = _run(lane, condition, monkeypatch)

    assert got["raised"] == reference["raised"] == (condition == "oversize")
    assert got["store"] == reference["store"]
    assert got["shared_obs"] == reference["shared_obs"]
    if lane in _ENGINE_KW:
        assert got["obs"] == reference["obs"]
    if condition == "eligible":
        assert got["kernel_calls"] == 1, "the vector path never ran"
        if lane == "frames":
            assert got["batches_built"] == 0, "columns went via a batch"
    else:
        assert got["kernel_calls"] == 0, "scalar fallback not taken"

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

The second matrix does the same for the three stateful plans —
Postcarding, Append, Sketch-Merge — which reach the decision through
``plan_batch`` on every lane (the socket lane plans only Key-Write and
Key-Increment from columns; its other runs arrive as batches), adding
the conditions that bite between plan and apply: a crashed translator,
an MR revoked after the plan was made.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro.core.batch import ReportBatch
from repro.core.cluster import ClusterMap
from repro.core.packets import CongestionSignal
from repro.core.primitives import BY_SERVICE
from repro.kernels import MIN_VECTOR_BATCH
from repro.runtime import StageError, StreamEngine, pipeline_digest, \
    store_digest
from repro.transport import assembler as assembler_mod
from repro.transport.assembler import ReportAssembler
from repro.transport.envelope import unwrap, wrap_frame
from tests import conformance

DATA_BYTES = 16

LANES = ("serial", "inline", "thread", "process", "assembler", "frames")
INELIGIBLE = ("essential", "immediate", "meter", "tenants", "tiny",
              "oversize", "ki_overflow", "stall")
STATEFUL = ("postcarding", "append", "sketch_merge")
STATEFUL_INELIGIBLE = ("essential", "immediate", "meter", "tenants", "tiny",
                       "oversize", "crashed", "stall", "revoked")
PC_HOPS = 3
_STORE = {"key_write": "keywrite", "postcarding": "postcarding",
          "append": "append", "sketch_merge": "sketch"}

#: Both conditions are named for the translator meter (and, before it,
#: the per-keyspace quotas) they replaced.  Each signals congestion to
#: the reporter first: ``meter`` then sends a plain batch, which the
#: reporter sheds whole; ``tenants`` an essential one, which goes.
_CONGESTED = ("meter", "tenants")

_ENGINE_KW = {
    "reference": {"workers": 0, "vectorized": False},
    "inline": {"workers": 0, "vectorized": True},
    "thread": {"workers": 2, "vectorized": True},
    "process": {"workers": 1, "vectorized": True, "executor": "process"},
}


def _stateful_batch(condition: str, primitive: str) -> ReportBatch:
    """Eight reports that make the plan emit; ``oversize`` is what each
    scalar lane raises for (a hop the cache has no slot for, a datum
    wider than the entries, a column of the wrong depth);
    ``oversize_dropped`` is that batch without the offending report."""
    rng = random.Random(6)
    n = MIN_VECTOR_BATCH - 1 if condition == "tiny" else 8
    flags = {"essential": condition in ("essential", "tenants"),
             "immediate": condition == "immediate"}
    bad = condition == "oversize"
    if condition == "oversize_dropped":
        whole = _stateful_batch("oversize", primitive)
        at = 7 if primitive == "postcarding" else 2
        spec = BY_SERVICE[primitive]
        return ReportBatch.from_columns(
            spec, [col[:at] + col[at + 1:] for col in spec.columns_of(whole)],
            spec.extra_of(whole))
    if primitive == "postcarding":
        # Two whole 3-hop paths, then the start of a third.
        keys = [bytes([flow]) * 4 for flow in (1, 1, 1, 2, 2, 2, 3, 3)][:n]
        hops = [0, 1, 2, 0, 1, 2, 0, PC_HOPS + 1 if bad else 1][:n]
        return ReportBatch.postcards(
            keys, hops, [rng.randrange(16) for _ in range(n)],
            path_lengths=[PC_HOPS] * n, redundancy=2, **flags)
    if primitive == "append":
        datas = [rng.randbytes(DATA_BYTES) for _ in range(n)]
        if bad:
            datas[2] = b"x" * (DATA_BYTES + 8)
        return ReportBatch.appends([i % 2 for i in range(n)], datas,
                                   **flags)
    rows = [tuple(rng.getrandbits(31) for _ in range(4)) for _ in range(n)]
    if bad:
        rows[2] = rows[2][:3]
    return ReportBatch.sketch_columns(0, list(range(n)), rows, **flags)


def _batch(condition: str, primitive: str = "key_write") -> ReportBatch:
    if primitive in STATEFUL:
        return _stateful_batch(condition, primitive)
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
    elif condition == "oversize_dropped":
        del keys[2], datas[2]
    return ReportBatch.key_writes(keys, datas, redundancy=2,
                                  essential=condition in ("essential",
                                                          "tenants"),
                                  immediate=condition == "immediate")


def _serve(collector) -> None:
    collector.serve_keywrite(slots=256, data_bytes=DATA_BYTES)
    collector.serve_keyincrement(slots_per_row=128, rows=4)
    collector.serve_postcarding(chunks=64, value_set=range(16),
                                hops=PC_HOPS)
    collector.serve_append(lists=2, capacity=32, data_bytes=DATA_BYTES,
                           batch_size=2)
    collector.serve_sketch(width=32, depth=4, expected_reporters=1,
                           batch_columns=4)


def _run(lane: str, condition: str, monkeypatch,
         primitive: str = "key_write") -> dict:
    """Drive the condition's batch through one lane on a fresh rig
    deployment; returns what the lanes are compared on."""
    kernel_calls = conformance.count_kernels(monkeypatch)
    with conformance.deploy(vectorized=lane != "reference",
                            serve=_serve) as (
            registry, collector, translator, reporter):
        if condition in _CONGESTED:
            reporter.handle_congestion(CongestionSignal(level=2))
        if condition == "crashed":
            translator.crash()
        revoked = []
        if condition in ("stall", "revoked"):
            # The fault fires after the plan is made, before it applies.
            region = getattr(collector, _STORE[primitive]).region

            def fault() -> None:
                if condition == "stall":
                    collector.nic.stall()
                elif not revoked:
                    revoked.append(region.invalidate())

            for entry in ("plan_batch", "plan_columns"):
                def faulting(*args, _plan=getattr(translator, entry),
                             **kwargs):
                    plan = _plan(*args, **kwargs)
                    fault()
                    return plan

                setattr(translator, entry, faulting)

        batches_built = []
        monkeypatch.setattr(
            assembler_mod, "ReportBatch",
            lambda *a, **kw: batches_built.append(1) or ReportBatch(*a, **kw))
        raws: list = []
        if lane in ("assembler", "frames"):
            reporter.transmit, reporter.transmit_batch = raws.append, None
        batch = _batch(condition, primitive)
        raised = False
        assembler = None
        try:
            if lane == "serial":
                reporter.send_batch(batch)
                translator.flush_appends()     # what drain()/finish() do
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
        except (ValueError, IndexError, StageError):
            raised = True
        if condition == "stall":
            # Timeout-driven go-back-N lands what the stall swallowed.
            collector.nic.resume()
            translator.client.resend_outstanding()
        if revoked:
            region.restore(revoked[0])
        snapshot = registry.snapshot()
    return {"store": store_digest(collector), "raised": raised,
            "obs": pipeline_digest(snapshot),
            "shared_obs": conformance.shared_digest(snapshot),
            "kernel_calls": len(kernel_calls),
            "batches_built": len(batches_built),
            "shed": reporter.stats.shed_by_congestion,
            "rejected": assembler.rejected if assembler else 0}


def _routes_like_the_reference(lane, condition, primitive, monkeypatch):
    reference = _run("reference", condition, monkeypatch, primitive)
    assert reference["kernel_calls"] == 0
    got = _run(lane, condition, monkeypatch, primitive)

    assert reference["raised"] == (condition == "oversize")
    if lane in ("assembler", "frames") and condition == "oversize":
        # Outside input: the socket lane drops what the service cannot
        # hold, alone, and lands the rest like a stream without it.
        assert not got["raised"] and got["rejected"] == 1
        clean = _run("reference", "oversize_dropped", monkeypatch, primitive)
        assert got["store"] == clean["store"]
        assert got["shared_obs"] == clean["shared_obs"]
        return got
    assert got["raised"] == reference["raised"] and not got["rejected"]
    assert got["shed"] == reference["shed"] == (
        8 if condition == "meter" else 0)
    assert got["store"] == reference["store"]
    assert got["shared_obs"] == reference["shared_obs"]
    if lane in _ENGINE_KW:
        assert got["obs"] == reference["obs"]
    if condition == "eligible":
        assert got["kernel_calls"] == 1, "the vector path never ran"
    else:
        assert got["kernel_calls"] == 0, "scalar fallback not taken"
    return got


@pytest.mark.parametrize("condition", INELIGIBLE + ("eligible",))
@pytest.mark.parametrize("lane", LANES)
def test_every_lane_routes_like_the_reference(lane, condition, monkeypatch):
    if lane in ("assembler", "frames") and condition == "ki_overflow":
        pytest.skip("the wire format cannot carry a value beyond int64")
    got = _routes_like_the_reference(lane, condition, "key_write",
                                     monkeypatch)
    if condition == "eligible" and lane == "frames":
        assert got["batches_built"] == 0, "columns went via a batch"


@pytest.mark.parametrize("primitive", STATEFUL)
@pytest.mark.parametrize("condition", STATEFUL_INELIGIBLE + ("eligible",))
@pytest.mark.parametrize("lane", LANES)
def test_stateful_plans_route_like_the_reference(lane, condition, primitive,
                                                 monkeypatch):
    if lane == "process" and condition not in ("eligible", "stall"):
        pytest.skip("plan workers never see these primitives: the BACK "
                    "thread plans them as the thread lane does")
    _routes_like_the_reference(lane, condition, primitive, monkeypatch)

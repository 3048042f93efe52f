"""Which verbs leave a completion: ``WorkRequest.signaled``.

``signaled`` is ibverbs' ``IBV_SEND_SIGNALED`` bit.  A request that
succeeds leaves a ``WorkCompletion`` on the requester's queue only when
it was posted signaled (the default); one that fails or is flushed
always leaves one.  The registry lanes post their telemetry verbs
unsignaled — no CPU polls for them — so a scalar-lane stream, like a
vector-lane one, leaves the translator's queue empty however long it
runs.
"""

from __future__ import annotations

import pytest

from repro.core import primitives
from repro.core.transport import make_direct_client
from repro.rdma.nic import Nic
from repro.rdma.qp import QpState
from repro.rdma.verbs import Opcode, WcStatus, WorkRequest
from repro.runtime import StreamEngine
from tests import conformance

ROWS = tuple(p.service for p in primitives.REGISTRY)


def _feed(lane, stream, collector, translator, reporter) -> None:
    if lane == "per_report":
        for raw in stream.raws():
            translator.handle_report(raw)
    elif lane == "batched":
        for batch in stream.batches():
            reporter.send_batch(batch)
    else:
        engine = StreamEngine(collector, translator, reporter, workers=0,
                              vectorized=False).start()
        try:
            for batch in stream.batches():
                engine.submit(batch)
            engine.drain()
        finally:
            engine.close()


@pytest.mark.parametrize("lane", ["per_report", "batched", "engine"])
@pytest.mark.parametrize("row", ROWS)
def test_a_scalar_lane_stream_leaves_no_completion(row, lane):
    """Every verb a registry lane posts is unsignaled: after a stream,
    the translator's requester QP holds nothing (it used to hold one
    completion per NIC message)."""
    stream = conformance.stream(row, batch=7)
    with conformance.deploy(sketch_width=stream.sketch_width) as (
            _registry, collector, translator, reporter):
        _feed(lane, stream, collector, translator, reporter)
        translator.flush_appends()
        assert collector.nic.stats.messages > 0
        assert list(translator.client.qp.completions) == []


class _Deployment:
    def __init__(self) -> None:
        self.nic = Nic("collector")
        self.region = self.nic.register_memory(64)
        self.client = make_direct_client(self.nic, self.nic.create_qp())
        self.revoked = self.nic.register_memory(64)
        self.revoked.invalidate()

    def requests(self) -> list:
        """A good write, a good fetch-add, then a write to a revoked
        region — all unsignaled."""
        addr, rkey = self.region.addr, self.region.rkey
        return [
            WorkRequest(Opcode.WRITE, addr, rkey, data=b"ok", signaled=False),
            WorkRequest(Opcode.FETCH_ADD, addr + 8, rkey, swap=3,
                        signaled=False),
            WorkRequest(Opcode.WRITE, self.revoked.addr, self.revoked.rkey,
                        data=b"denied", signaled=False),
        ]


@pytest.mark.parametrize("tier", ["packet", "burst"])
def test_an_unsignaled_verb_that_faults_still_completes(tier):
    dep = _Deployment()
    wrs = dep.requests()
    if tier == "packet":
        for wr in wrs:
            dep.client.post(wr)
    else:
        dep.client.post_burst(wrs)
    qp = dep.client.qp
    assert [(c.opcode, c.status) for c in dep.client.drain_completions()] \
        == [(Opcode.WRITE, WcStatus.REM_ACCESS_ERR)]
    assert qp.state == QpState.ERROR
    assert qp.failed_wrs == [wrs[2]]
    assert [wr.fatal_naks for wr in wrs] == [0, 0, 1]
    assert bytes(dep.region.buf[:2]) == b"ok"

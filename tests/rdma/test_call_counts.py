"""Python calls the scalar verb path makes per RDMA message.

A count, not a clock: ``sys.setprofile`` counts the Python function
calls into ``repro.rdma`` and ``enum`` while a seeded mixed stream of
every registry row runs through the ``workers=0, vectorized=False``
engine — the scalar reference lane every digest gate anchors to — and
the count is divided by the messages the collector NIC executed.  The
count repeats exactly from run to run, whatever the host's load.
"""

from __future__ import annotations

import enum
import itertools
import os

import repro.rdma
from repro.core import primitives
from repro.core.transport import make_direct_client
from repro.rdma import roce
from repro.rdma.nic import Nic
from repro.rdma.verbs import Opcode, WorkRequest
from tests import conformance
from tests.calls import CallCounter

#: Reports per registry row: ten batches of 64 each.
REPORTS = 640
#: Calls per NIC message allowed.  The verb path made 15.27 on this
#: stream (42 278 calls for 2 768 messages) while opcode traits were
#: properties, each rights check did ``Flag`` arithmetic, three loops
#: over every burst re-derived each request's payload and every verb
#: left a completion; the guard holds it to half of that.
BOUND = 15.27 / 2

RDMA_DIR = os.path.dirname(repro.rdma.__file__) + os.sep


def _batches() -> tuple[list, int]:
    """The rows' batches interleaved round-robin, and the sketch width
    to provision."""
    streams = [conformance.stream(p.service, reports=REPORTS)
               for p in primitives.REGISTRY]
    per_row = [list(s.batches()) for s in streams]
    mixed = [batch for round_ in itertools.zip_longest(*per_row)
             for batch in round_ if batch is not None]
    return mixed, max(s.sketch_width for s in streams)


def _count() -> tuple[int, int, int]:
    """``(calls, NIC messages, completions left)`` for one stream."""
    batches, sketch_width = _batches()
    counter = CallCounter((RDMA_DIR, enum.__file__))
    with conformance.engine(sketch_width=sketch_width, workers=0,
                            vectorized=False) as (_registry, engine):
        with counter:
            for batch in batches:
                engine.submit(batch)
            engine.drain()
    messages = engine.collector.nic.stats.messages
    return (counter.calls, messages,
            len(engine.translator.client.qp.completions))


def test_scalar_verb_path_calls_per_message():
    calls, messages, left = _count()
    assert messages > REPORTS
    assert calls / messages <= BOUND, (
        f"{calls} calls into repro.rdma + enum for {messages} NIC "
        f"messages: {calls / messages:.2f} per message > {BOUND}")
    # Nothing polls the scalar lane's verbs, and nothing is left behind.
    assert left == 0
    # A count, not a timing: a second run counts the same calls.
    assert _count() == (calls, messages, left)


def test_one_decode_per_inbound_packet(monkeypatch):
    """The per-packet tier decodes each packet once where it lands: 100
    direct-mode ``RdmaClient.post`` WRITEs make 100 request decodes at
    the collector NIC and 100 ACK decodes at the requester (300 while
    the responder QP decoded the request a second time)."""
    decodes = []
    real = roce.decode
    monkeypatch.setattr(roce, "decode",
                        lambda raw: decodes.append(1) or real(raw))
    nic = Nic("collector")
    region = nic.register_memory(1024)
    client = make_direct_client(nic, nic.create_qp())
    for i in range(100):
        client.post(WorkRequest(opcode=Opcode.WRITE, rkey=region.rkey,
                                remote_addr=region.addr + 8 * i,
                                data=i.to_bytes(8, "little")))
    assert nic.stats.messages == 100
    assert len(decodes) == 200

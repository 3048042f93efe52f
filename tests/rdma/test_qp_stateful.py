"""Stateful property test: a QP pair under adversarial delivery.

Hypothesis drives a random interleaving of posts, deliveries, drops,
duplications, and timeout retransmissions against a requester/responder
pair, and checks the RC contract: memory always reflects a prefix of
the posted writes in order, duplicates never double-execute, and once
everything is delivered the state converges exactly.
"""

import struct

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
import hypothesis.strategies as st

from repro.rdma import roce
from repro.rdma.memory import ProtectionDomain
from repro.rdma.qp import QpState, QueuePair
from repro.rdma.verbs import Opcode, WorkRequest

REGION_CELLS = 64


class QpMachine(RuleBasedStateMachine):
    """Drop / duplicate / reorder-free delivery of a write stream."""

    def __init__(self):
        super().__init__()
        self.pd = ProtectionDomain()
        self.region = self.pd.register(8 * REGION_CELLS)
        self.requester = QueuePair(1, ProtectionDomain())
        self.responder = QueuePair(2, self.pd)
        for qp, dest in ((self.requester, 2), (self.responder, 1)):
            qp.modify(QpState.INIT)
            qp.modify(QpState.RTR, dest_qpn=dest, expected_psn=0)
            qp.modify(QpState.RTS, send_psn=0)
        self.posted_values: list[int] = []     # write i stores value i+1
        self.in_flight: list[bytes] = []       # undelivered raw packets
        self.executed = 0

    # -- actions ------------------------------------------------------------

    @rule()
    def post_write(self):
        """Post the next sequential write (cell i <- i+1)."""
        if self.requester.outstanding >= 900:
            return
        index = len(self.posted_values)
        if index >= REGION_CELLS:
            return
        value = index + 1
        raw = self.requester.post_send(WorkRequest(
            opcode=Opcode.WRITE,
            remote_addr=self.region.addr + 8 * index,
            rkey=self.region.rkey,
            data=struct.pack("<Q", value)))
        self.posted_values.append(value)
        self.in_flight.append(raw)

    @precondition(lambda self: self.in_flight)
    @rule(data=st.data())
    def deliver_one(self, data):
        """Deliver the oldest in-flight packet (in-order fabric)."""
        raw = self.in_flight.pop(0)
        self._deliver(raw)

    @precondition(lambda self: self.in_flight)
    @rule()
    def drop_one(self):
        """Lose the oldest in-flight packet."""
        self.in_flight.pop(0)

    @precondition(lambda self: self.in_flight)
    @rule()
    def duplicate_head(self):
        """The fabric duplicates a packet."""
        self.in_flight.insert(0, self.in_flight[0])

    @rule()
    def timeout_retransmit(self):
        """Requester timeout: re-send everything unacked, in order."""
        for _psn, raw, _wr in self.requester._unacked:
            self.in_flight.append(raw)

    def _deliver(self, raw: bytes) -> None:
        response = self.responder.responder_receive(roce.decode(raw))
        if response is not None:
            for retransmit in self.requester.requester_receive(response):
                self.in_flight.append(retransmit)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def memory_is_ordered_prefix(self):
        """Executed writes form a prefix: cell i holds i+1 or 0, and a
        non-zero cell never follows a zero cell (strict PSN ordering
        means no write skips ahead of a lost predecessor)."""
        cells = [struct.unpack_from("<Q", self.region.buf, 8 * i)[0]
                 for i in range(REGION_CELLS)]
        seen_zero = False
        for i, value in enumerate(cells):
            assert value in (0, i + 1)
            if value == 0:
                seen_zero = True
            else:
                assert not seen_zero, "write executed past a gap"

    @invariant()
    def counters_consistent(self):
        c = self.responder.counters
        assert c.requests_executed == self.responder.expected_psn

    def teardown(self):
        """Drain everything: final convergence check."""
        for _round in range(50):
            while self.in_flight:
                self._deliver(self.in_flight.pop(0))
            if self.requester.outstanding == 0:
                break
            self.timeout_retransmit()
        if self.posted_values:
            cells = [struct.unpack_from("<Q", self.region.buf, 8 * i)[0]
                     for i in range(len(self.posted_values))]
            assert cells == self.posted_values


QpMachine.TestCase.settings = settings(max_examples=30,
                                       stateful_step_count=40,
                                       deadline=None)
TestQpStateMachine = QpMachine.TestCase

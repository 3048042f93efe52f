"""Queue pairs: state machine, PSN ordering, go-back-N, execution."""

import pytest

from repro.rdma.memory import ProtectionDomain
from repro.rdma.qp import (
    NAK_PSN_SEQUENCE_ERROR,
    NAK_REMOTE_ACCESS_ERROR,
    QpError,
    QpState,
    QueuePair,
)
from repro.rdma import roce
from repro.rdma.verbs import Opcode, WcStatus, WorkRequest


def make_pair():
    """A connected requester/responder pair over one PD."""
    pd = ProtectionDomain()
    region = pd.register(256)
    requester = QueuePair(1, ProtectionDomain())
    responder = QueuePair(2, pd)
    for qp, dest in ((requester, 2), (responder, 1)):
        qp.modify(QpState.INIT)
        qp.modify(QpState.RTR, dest_qpn=dest, expected_psn=0)
        qp.modify(QpState.RTS, send_psn=0)
    return requester, responder, region


class TestStateMachine:
    def test_fresh_qp_is_reset(self):
        qp = QueuePair(1, ProtectionDomain())
        assert qp.state == QpState.RESET

    def test_legal_walk_to_rts(self):
        qp = QueuePair(1, ProtectionDomain())
        qp.modify(QpState.INIT)
        qp.modify(QpState.RTR, dest_qpn=9)
        qp.modify(QpState.RTS)
        assert qp.state == QpState.RTS

    def test_skipping_states_rejected(self):
        qp = QueuePair(1, ProtectionDomain())
        with pytest.raises(QpError):
            qp.modify(QpState.RTS)

    def test_post_send_requires_rts(self):
        qp = QueuePair(1, ProtectionDomain())
        with pytest.raises(QpError):
            qp.post_send(WorkRequest(opcode=Opcode.WRITE))

    def test_post_send_requires_destination(self):
        qp = QueuePair(1, ProtectionDomain())
        qp.modify(QpState.INIT)
        qp.modify(QpState.RTR)
        qp.modify(QpState.RTS)
        with pytest.raises(QpError):
            qp.post_send(WorkRequest(opcode=Opcode.WRITE))

    def test_error_state_flushes_outstanding(self):
        requester, _responder, region = make_pair()
        requester.post_send(WorkRequest(opcode=Opcode.WRITE,
                                        remote_addr=region.addr,
                                        rkey=region.rkey, data=b"x"))
        requester.modify(QpState.ERROR)
        assert requester.outstanding == 0
        (wc,) = requester.completions
        assert wc.status == WcStatus.WR_FLUSH_ERR


class TestHappyPath:
    def test_write_lands_in_memory(self):
        requester, responder, region = make_pair()
        raw = requester.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=region.addr + 4,
            rkey=region.rkey, data=b"ping"))
        ack = responder.responder_receive(roce.decode(raw))
        assert roce.decode(ack).syndrome == 0
        assert region.local_read(4, 4) == b"ping"

    def test_ack_completes_request(self):
        requester, responder, region = make_pair()
        raw = requester.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=region.addr,
            rkey=region.rkey, data=b"a"))
        retransmits = requester.requester_receive(
            responder.responder_receive(roce.decode(raw)))
        assert retransmits == []
        assert requester.outstanding == 0
        (wc,) = requester.completions
        assert wc.ok

    def test_read_returns_data(self):
        requester, responder, region = make_pair()
        region.local_write(0, b"telemetry!")
        raw = requester.post_send(WorkRequest(
            opcode=Opcode.READ, remote_addr=region.addr,
            rkey=region.rkey, length=9))
        requester.requester_receive(
            responder.responder_receive(roce.decode(raw)))
        (wc,) = requester.completions
        assert wc.data == b"telemetry"

    def test_fetch_add_accumulates(self):
        requester, responder, region = make_pair()
        for _ in range(3):
            raw = requester.post_send(WorkRequest(
                opcode=Opcode.FETCH_ADD, remote_addr=region.addr,
                rkey=region.rkey, swap=10))
            requester.requester_receive(
                responder.responder_receive(roce.decode(raw)))
        assert region.fetch_add(region.addr, 0) == 30

    def test_psn_increments_per_request(self):
        requester, responder, region = make_pair()
        for expected_psn in range(5):
            raw = requester.post_send(WorkRequest(
                opcode=Opcode.WRITE, remote_addr=region.addr,
                rkey=region.rkey, data=b"x"))
            assert roce.decode(raw).bth.psn == expected_psn
            responder.responder_receive(roce.decode(raw))
        assert responder.expected_psn == 5

    def test_send_queues_receive_completion(self):
        requester, responder, _region = make_pair()
        raw = requester.post_send(WorkRequest(opcode=Opcode.SEND,
                                              data=b"hello"))
        responder.responder_receive(roce.decode(raw))
        (wc,) = responder.completions
        assert wc.data == b"hello"


class TestSequencing:
    def test_gap_triggers_nak_and_skips_execution(self):
        requester, responder, region = make_pair()
        first = requester.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=region.addr,
            rkey=region.rkey, data=b"A"))
        second = requester.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=region.addr + 1,
            rkey=region.rkey, data=b"B"))
        # Lose `first`; deliver `second` out of order.
        del first
        nak = responder.responder_receive(roce.decode(second))
        assert roce.decode(nak).syndrome == NAK_PSN_SEQUENCE_ERROR
        assert region.local_read(1, 1) == b"\x00"
        assert responder.counters.sequence_errors == 1

    def test_nak_rewinds_everything_outstanding(self):
        requester, responder, region = make_pair()
        first = requester.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=region.addr,
            rkey=region.rkey, data=b"A"))
        second = requester.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=region.addr + 1,
            rkey=region.rkey, data=b"B"))
        nak = responder.responder_receive(roce.decode(second))
        to_retransmit = requester.requester_receive(nak)
        assert to_retransmit == [first, second]
        # Replay in order: both now execute.
        for raw in to_retransmit:
            responder.responder_receive(roce.decode(raw))
        assert region.local_read(0, 2) == b"AB"

    def test_duplicate_is_reacked_not_reexecuted(self):
        requester, responder, region = make_pair()
        raw = requester.post_send(WorkRequest(
            opcode=Opcode.FETCH_ADD, remote_addr=region.addr,
            rkey=region.rkey, swap=5))
        responder.responder_receive(roce.decode(raw))
        # Duplicate delivery.
        ack2 = responder.responder_receive(roce.decode(raw))
        assert roce.decode(ack2).syndrome == 0
        assert responder.counters.duplicates == 1
        # The atomic must not have applied twice.
        assert region.fetch_add(region.addr, 0) == 5

    @pytest.mark.parametrize("opcode, compare, swap, after", (
        (Opcode.FETCH_ADD, 0, 5, 12),
        (Opcode.CMP_SWAP, 7, 9, 9),
    ))
    def test_duplicate_atomic_replays_its_first_response(
            self, opcode, compare, swap, after):
        """A signaled atomic whose ACK is lost is resent: the word moves
        once and the completion holds the value it held before."""
        requester, responder, region = make_pair()
        region.local_write(0, (7).to_bytes(8, "little"))
        raw = requester.post_send(WorkRequest(
            opcode=opcode, remote_addr=region.addr, rkey=region.rkey,
            compare=compare, swap=swap))
        responder.responder_receive(roce.decode(raw))      # ACK lost
        requester.requester_receive(
            responder.responder_receive(roce.decode(raw)))
        assert region.fetch_add(region.addr, 0) == after
        (wc,) = requester.completions
        assert wc.status is WcStatus.SUCCESS
        assert wc.data == (7).to_bytes(8, "little")
        assert (responder.counters.atomics,
                responder.counters.duplicates) == (1, 1)

    def test_duplicate_read_executes_again(self):
        requester, responder, region = make_pair()
        region.local_write(0, b"before")
        raw = requester.post_send(WorkRequest(
            opcode=Opcode.READ, remote_addr=region.addr,
            rkey=region.rkey, length=6))
        responder.responder_receive(roce.decode(raw))      # response lost
        region.local_write(0, b"after!")
        requester.requester_receive(
            responder.responder_receive(roce.decode(raw)))
        (wc,) = requester.completions
        assert wc.data == b"after!"
        assert (responder.counters.requests_executed,
                responder.counters.duplicates) == (1, 1)

    def test_atomic_replay_cache_is_bounded_by_the_window(self):
        requester, responder, region = make_pair()
        responder.max_outstanding = 4
        raws = []
        for _ in range(10):
            raws.append(requester.post_send(WorkRequest(
                opcode=Opcode.FETCH_ADD, remote_addr=region.addr,
                rkey=region.rkey, swap=1)))
            requester.requester_receive(
                responder.responder_receive(roce.decode(raws[-1])))
        assert len(responder._atomic_replies) == 4
        # The newest four replay; the word still moved ten times.
        ack = roce.decode(responder.responder_receive(roce.decode(raws[-1])))
        assert ack.payload == (9).to_bytes(8, "little")
        assert region.fetch_add(region.addr, 0) == 10

    def test_access_error_naks_and_errors_qp(self):
        requester, responder, region = make_pair()
        raw = requester.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=region.addr,
            rkey=0xBAD, data=b"x"))
        nak = responder.responder_receive(roce.decode(raw))
        assert roce.decode(nak).syndrome == NAK_REMOTE_ACCESS_ERROR
        assert responder.state == QpState.ERROR

    def test_send_queue_bounded(self):
        requester, _responder, region = make_pair()
        requester.max_outstanding = 4
        for _ in range(4):
            requester.post_send(WorkRequest(
                opcode=Opcode.WRITE, remote_addr=region.addr,
                rkey=region.rkey, data=b"x"))
        with pytest.raises(QpError):
            requester.post_send(WorkRequest(
                opcode=Opcode.WRITE, remote_addr=region.addr,
                rkey=region.rkey, data=b"x"))

"""Failure injection: QP teardown and reconnection."""

import pytest

from repro.core.collector import Collector
from repro.core.packets import KeyWrite, make_report
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.rdma.qp import QpState
from repro.rdma.verbs import Opcode, WorkRequest


def deploy():
    col = Collector()
    col.serve_keywrite(slots=2048, data_bytes=4)
    tr = Translator()
    col.connect_translator(tr)
    return col, tr


class TestQpFailure:
    def test_bad_rkey_errors_the_connection(self):
        """A write with a stale rkey NAKs and moves the server QP to
        ERROR — the collector-side teardown semantics of real NICs."""
        col, tr = deploy()
        tr.client.post(WorkRequest(opcode=Opcode.WRITE,
                                   remote_addr=0xDEAD, rkey=0xBAD,
                                   data=b"oops"))
        server_qp = col._server_qps[0]
        assert server_qp.state == QpState.ERROR
        assert server_qp.counters.access_errors == 1

    def test_errored_qp_recovers_on_next_post(self):
        """Posting on an errored QP triggers the bounded recovery path
        (reset + re-handshake) instead of raising: the very next report
        lands.  The poisoned write is replayed under the per-request
        budget and — still poisonous — eventually abandoned."""
        col, tr = deploy()
        poison = WorkRequest(opcode=Opcode.WRITE, remote_addr=0xDEAD,
                             rkey=0xBAD, data=b"oops")
        tr.client.post(poison)
        assert tr.client.qp.state == QpState.ERROR
        tr.handle_report(make_report(KeyWrite(
            key=b"after-error", data=b"\x00\x00\x00\x01",
            redundancy=1)))
        assert tr.client.recoveries == 1
        assert tr.client.qp.state == QpState.RTS
        assert col.query_value(b"after-error", redundancy=1).found
        # The replay budget was charged to the poisonous request until
        # it was dropped from the recovery set.
        assert poison.fatal_naks == tr.client.retry.wr_replay_cap

    def test_recovery_exhausts_budget_when_peer_is_gone(self):
        """When the responder half no longer exists, the controller
        cannot re-handshake: recovery burns its bounded attempt budget
        (accumulating modelled backoff) and the error propagates."""
        col, tr = deploy()
        from repro.rdma.qp import QpError

        tr.client.post(WorkRequest(opcode=Opcode.WRITE,
                                   remote_addr=0xDEAD, rkey=0xBAD,
                                   data=b"oops"))
        del col.nic.qps[col._server_qps[0].qpn]
        with pytest.raises(QpError):
            tr.handle_report(make_report(KeyWrite(
                key=b"blocked", data=b"\x00\x00\x00\x01", redundancy=1)))
        assert tr.client.recovery_failures == 1
        assert tr.client.recoveries == 0
        assert tr.client.backoff_s > 0

    def test_region_invalidate_then_restore(self):
        """An invalidated MR fatal-NAKs every write (the QP dies after
        each post, and recovery revives it); once the region's rights
        are restored, recovery replays the captured write — nothing
        NAKed during the outage is lost."""
        col, tr = deploy()
        revoked = col.keywrite.region.invalidate()
        tr.handle_report(make_report(KeyWrite(
            key=b"blocked", data=b"\x00\x00\x00\x01", redundancy=1)))
        assert tr.client.qp.state == QpState.ERROR
        assert not col.query_value(b"blocked", redundancy=1).found
        col.keywrite.region.restore(revoked)
        tr.handle_report(make_report(KeyWrite(
            key=b"unblocked", data=b"\x00\x00\x00\x01", redundancy=1)))
        assert tr.client.recoveries == 1
        assert col.query_value(b"unblocked", redundancy=1).found
        # The write NAKed while the region was dark was captured on the
        # QP and replayed by the recovery triggered above.
        assert col.query_value(b"blocked", redundancy=1).found

    def test_reconnect_restores_service(self):
        """The controller re-runs the CM handshake; data flows again
        and previously collected data is still in memory."""
        col, tr = deploy()
        reporter = Reporter("r", 1, transmit=tr.handle_report)
        reporter.key_write(b"before", b"\x00\x00\x00\x01", redundancy=2)

        tr.client.post(WorkRequest(opcode=Opcode.WRITE,
                                   remote_addr=0xDEAD, rkey=0xBAD,
                                   data=b"kill"))
        col.connect_translator(tr)   # fresh QP, same stores
        reporter.key_write(b"after", b"\x00\x00\x00\x02", redundancy=2)

        assert col.query_value(b"before", redundancy=2).found
        assert col.query_value(b"after", redundancy=2).found
        # Old errored QP no longer counts toward the perf model.
        assert col.nic.active_qps == 1

    def test_collector_nic_drops_traffic_for_dead_qpn(self):
        col, tr = deploy()
        dead_qpn = 0x99999
        from repro.rdma import roce

        raw = roce.encode_request(Opcode.WRITE, dest_qp=dead_qpn, psn=0,
                                  remote_addr=0, rkey=0, payload=b"")
        assert col.nic.receive(raw) is None
        assert col.nic.stats.drops == 1

"""Crash guards, re-delivery through the reporter backup, and backup
recency."""

from repro.core.collector import Collector
from repro.core.flow_control import SEQ_MOD, ReportBackup
from repro.core.packets import DtaFlags, KeyWrite, decode_report, make_report
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.core.transport import CtrlFrame


def deploy():
    col = Collector()
    col.serve_keywrite(slots=2048, data_bytes=4)
    tr = Translator()
    col.connect_translator(tr)
    return col, tr


def report(key=b"k"):
    return make_report(KeyWrite(key=key, data=b"\x00\x00\x00\x01",
                                redundancy=1))


def essential(key, seq, retransmit=False):
    flags = DtaFlags.ESSENTIAL | (DtaFlags.RETRANSMIT if retransmit
                                  else DtaFlags.NONE)
    return make_report(KeyWrite(key=key, data=b"\x00\x00\x00\x01",
                                redundancy=1), seq=seq, flags=flags)


class TestCrashGuards:
    def test_crashed_translator_drops_reports(self):
        col, tr = deploy()
        tr.crash()
        tr.handle_report(report(b"during-crash"))
        assert tr.stats.dropped_while_crashed == 1
        assert not col.query_value(b"during-crash", redundancy=1).found

    def test_restart_resumes_service(self):
        col, tr = deploy()
        tr.crash()
        tr.handle_report(report(b"lost"))
        tr.restart()
        assert not tr.crashed
        tr.handle_report(report(b"served"))
        assert col.query_value(b"served", redundancy=1).found

    def test_reinject_is_noop_while_crashed(self):
        # A crashed translator tracks no sequence and NACKs nothing.
        _col, tr = deploy()
        control = []
        tr.control_sink = lambda _src, raw: control.append(raw)
        tr.crash()
        tr.handle_report(essential(b"k", seq=5))
        assert control == [] and tr.loss.stats.reports_checked == 0


class TestBacklogReinjection:
    """Re-delivery of essential reports goes through the reporter's
    backup and the NACK it serves (the switch-CPU backlog is gone)."""

    def test_reinjection_readmits_in_order(self):
        col, tr = deploy()
        sent = []

        def lossy(raw):                 # the second and third are lost
            sent.append(raw)
            if len(sent) not in (2, 3):
                tr.handle_report(raw)

        rep = Reporter("r", 0, transmit=lossy)
        tr.control_sink = lambda _src, raw: rep.receive(
            CtrlFrame(src=tr.name, raw=raw))
        keys = (b"a", b"b", b"c", b"d")
        for key in keys:
            rep.key_write(key, b"\x00" * 4, redundancy=1, essential=True)
        assert rep.stats.retransmitted == 3
        assert [decode_report(raw)[1].key for raw in sent[4:]] == [
            b"b", b"c", b"d"]
        assert all(col.query_value(key, redundancy=1).found for key in keys)

    def test_reinjection_stops_on_re_rejection(self):
        """A retransmission the translator already holds is a duplicate:
        counted, and it NACKs nothing."""
        _col, tr = deploy()
        tr.handle_report(essential(b"a", seq=0))
        tr.handle_report(essential(b"a", seq=0, retransmit=True))
        assert tr.loss.stats.duplicate_retransmits == 1
        assert tr.stats.nacks_sent == 0


class TestBackupRecency:
    def test_restore_refreshes_eviction_order(self):
        backup = ReportBackup(capacity=3)
        backup.store(1, b"one")
        backup.store(2, b"two")
        backup.store(3, b"three")
        backup.store(1, b"one'")      # refresh: 1 becomes most recent
        backup.store(4, b"four")      # evicts 2, not 1
        assert backup.get(1) == b"one'"
        assert backup.get(2) is None
        assert backup.seqs() == [3, 1, 4]

    def test_get_and_seqs_are_modular(self):
        backup = ReportBackup(capacity=4)
        backup.store(SEQ_MOD + 5, b"wrapped")
        assert backup.get(5) == b"wrapped"
        assert backup.seqs() == [5]

    def test_capacity_still_enforced(self):
        backup = ReportBackup(capacity=2)
        for seq in range(5):
            backup.store(seq, bytes([seq]))
        assert len(backup) == 2
        assert backup.stats.evicted == 3

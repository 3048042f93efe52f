"""Flow control: loss detection, NACKs, report backup."""

import contextlib
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collector import Collector
from repro.core.flow_control import (
    SEQ_MOD,
    LossDetector,
    ReportBackup,
    seq_distance,
)
from repro.core.packets import Nack
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.core.transport import CtrlFrame
from repro.faults.recovery import drain_losses


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the block once it runs past ``seconds``: a gap walked seq
    by seq would run for minutes and fill memory instead."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds


class TestLossDetector:
    def test_in_order_sequence_accepted(self):
        det = LossDetector()
        for seq in range(5):
            assert det.check(1, seq) is None
        assert det.expected_seq(1) == 5

    def test_first_contact_accepts_any_seq(self):
        det = LossDetector()
        assert det.check(1, 42) is None
        assert det.expected_seq(1) == 43

    def test_gap_produces_nack(self):
        det = LossDetector()
        det.check(1, 0)
        nack = det.check(1, 3)  # 1, 2 lost; 3 aborted
        assert nack == Nack(expected_seq=1, missing=3)
        assert det.stats.losses_detected == 2
        assert det.stats.nacks_sent == 1

    def test_sequence_resumes_after_gap(self):
        det = LossDetector()
        det.check(1, 0)
        det.check(1, 3)
        assert det.check(1, 4) is None

    def test_retransmit_bypasses_sequencing(self):
        det = LossDetector()
        det.check(1, 0)
        det.check(1, 3)
        # NACKed reports come back flagged; no new NACK.
        for seq in (1, 2, 3):
            assert det.check(1, seq, retransmit=True) is None
        assert det.stats.retransmits_accepted == 3

    def test_stale_duplicate_processed_silently(self):
        det = LossDetector()
        for seq in range(5):
            det.check(1, seq)
        assert det.check(1, 2) is None
        assert det.expected_seq(1) == 5

    def test_reporters_tracked_independently(self):
        det = LossDetector()
        det.check(1, 0)
        det.check(2, 0)
        assert det.check(1, 1) is None
        nack = det.check(2, 2)
        assert nack is not None and nack.expected_seq == 1

    def test_reporter_capacity_enforced(self):
        det = LossDetector(max_reporters=2)
        det.check(1, 0)
        det.check(2, 0)
        with pytest.raises(OverflowError):
            det.check(3, 0)


class TestReportBackup:
    def test_store_and_fetch(self):
        backup = ReportBackup(capacity=8)
        backup.store(0, b"report-0")
        backup.store(1, b"report-1")
        got = backup.fetch(Nack(expected_seq=0, missing=2))
        assert got == [(0, b"report-0"), (1, b"report-1")]

    def test_eviction_fifo(self):
        backup = ReportBackup(capacity=2)
        for seq in range(4):
            backup.store(seq, f"r{seq}".encode())
        assert len(backup) == 2
        assert backup.stats.evicted == 2
        got = backup.fetch(Nack(expected_seq=0, missing=4))
        assert [seq for seq, _ in got] == [2, 3]
        assert backup.stats.unavailable == 2

    def test_fetch_counts_retransmitted(self):
        backup = ReportBackup(capacity=8)
        backup.store(5, b"x")
        backup.fetch(Nack(expected_seq=5, missing=1))
        assert backup.stats.retransmitted == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReportBackup(capacity=0)


class TestSequenceWraparound:
    """The wire counter is 32 bits; a long-lived reporter wraps."""

    def test_seq_distance_is_modular(self):
        assert seq_distance(0, SEQ_MOD - 1) == 1
        assert seq_distance(5, SEQ_MOD - 5) == 10
        assert seq_distance(SEQ_MOD - 1, 0) == SEQ_MOD - 1  # behind

    def test_in_order_across_the_wrap(self):
        det = LossDetector()
        for seq in (SEQ_MOD - 2, SEQ_MOD - 1, 0, 1):
            assert det.check(1, seq) is None
        assert det.expected_seq(1) == 2
        assert det.stats.losses_detected == 0

    def test_gap_straddling_the_wrap(self):
        det = LossDetector()
        det.check(1, SEQ_MOD - 2)
        nack = det.check(1, 1)  # SEQ_MOD-1 and 0 lost; 1 aborted
        assert nack == Nack(expected_seq=SEQ_MOD - 1, missing=3)
        assert det.stats.losses_detected == 2
        assert det.expected_seq(1) == 2

    def test_stale_duplicate_after_the_wrap(self):
        det = LossDetector()
        for seq in (SEQ_MOD - 1, 0, 1):
            det.check(1, seq)
        assert det.check(1, SEQ_MOD - 1) is None
        assert det.stats.stale_duplicates == 1
        assert det.expected_seq(1) == 2  # not rewound

    def test_backup_fetch_across_the_wrap(self):
        backup = ReportBackup(capacity=8)
        backup.store(SEQ_MOD - 1, b"pre-wrap")
        backup.store(SEQ_MOD, b"post-wrap")  # stored as seq 0
        got = backup.fetch(Nack(expected_seq=SEQ_MOD - 1, missing=2))
        assert got == [(SEQ_MOD - 1, b"pre-wrap"), (0, b"post-wrap")]
        assert backup.stats.unavailable == 0

    def test_half_the_sequence_space_ahead_is_a_gap(self):
        """``seq_distance``: only a distance *above* ``SEQ_MOD // 2``
        is behind, so exactly half the space ahead is still a gap."""
        det = LossDetector()
        det.check(1, 0)
        with deadline(1.0):
            nack = det.check(1, 1 + SEQ_MOD // 2)
        assert nack == Nack(expected_seq=1, missing=SEQ_MOD // 2 + 1)
        assert det.stats.losses_detected == SEQ_MOD // 2
        assert det.stats.stale_duplicates == 0
        assert det.expected_seq(1) == 2 + SEQ_MOD // 2

    def test_one_past_half_the_sequence_space_is_stale(self):
        det = LossDetector()
        det.check(1, 0)
        assert det.check(1, 2 + SEQ_MOD // 2) is None
        assert det.stats.stale_duplicates == 1
        assert det.stats.nacks_sent == 0
        assert det.expected_seq(1) == 1


class TestHugeGap:
    """One essential report far ahead costs what the backup holds, not
    what the gap spans."""

    JUMP = SEQ_MOD // 2 - 1          # the gap a wire seq may open

    def test_a_jump_of_2_31_minus_1_nacks_within_a_second(self):
        col = Collector()
        col.serve_keywrite(slots=64, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr)
        rep = Reporter("r", 0, transmit=tr.handle_report)
        tr.control_sink = lambda _src, raw: rep.receive(
            CtrlFrame(src=tr.name, raw=raw))
        rep.key_write(b"a", b"\x00" * 4, redundancy=1, essential=True)
        rep._seq += self.JUMP
        with deadline(1.0):
            rep.key_write(b"b", b"\x00" * 4, redundancy=1, essential=True)
            assert drain_losses([tr], [rep]) == 0
        assert tr.loss.stats.losses_detected == self.JUMP
        assert tr.loss.stats.nacks_sent == 1
        # The report that revealed the gap was aborted, served from the
        # backup and accepted; the rest were never backed up.
        assert rep.backup.stats.retransmitted == 1
        assert rep.backup.stats.unavailable == self.JUMP
        assert rep.stats.lost_forever == self.JUMP
        assert tr.loss.stats.retransmits_accepted == 1
        assert tr.loss.awaiting_runs() == {}
        assert col.query_value(b"b", redundancy=1).found

    def test_a_nack_fetches_only_what_the_backup_holds(self):
        backup = ReportBackup(capacity=4)
        for seq in (3, 9, 5, SEQ_MOD - 2):
            backup.store(seq, bytes([seq % 251]))
        with deadline(1.0):
            got = backup.fetch(Nack(expected_seq=SEQ_MOD - 4,
                                        missing=SEQ_MOD // 2))
        assert [seq for seq, _raw in got] == [SEQ_MOD - 2, 3, 5, 9]
        assert backup.stats.retransmitted == 4
        assert backup.stats.unavailable == SEQ_MOD // 2 - 4


class TestDuplicateRetransmitAccounting:
    """A NACKed seq is a recovery once; every re-arrival is a dup."""

    def test_second_identical_retransmit_counts_as_duplicate(self):
        det = LossDetector()
        det.check(1, 0)
        det.check(1, 3)  # NACKs 1, 2, 3
        for seq in (1, 2, 3):
            assert det.check(1, seq, retransmit=True) is None
        assert det.stats.retransmits_accepted == 3
        # The same retransmits arrive again (duplicated NACK upstream).
        for seq in (1, 2, 3):
            assert det.check(1, seq, retransmit=True) is None
        assert det.stats.retransmits_accepted == 3
        assert det.stats.duplicate_retransmits == 3

    def test_unsolicited_retransmit_is_a_duplicate(self):
        det = LossDetector()
        det.check(1, 0)
        det.check(1, 1)
        # Nothing was NACKed, so any retransmit-flagged arrival is noise.
        det.check(1, 0, retransmit=True)
        assert det.stats.retransmits_accepted == 0
        assert det.stats.duplicate_retransmits == 1

    def test_awaiting_ledgers_are_per_reporter(self):
        det = LossDetector()
        for reporter_id in (1, 2):
            det.check(reporter_id, 0)
            det.check(reporter_id, 2)  # NACKs 1, 2 for each
        det.check(1, 1, retransmit=True)
        det.check(2, 1, retransmit=True)
        assert det.stats.retransmits_accepted == 2
        # Reporter 1 re-serving does not spend reporter 2's ledger.
        det.check(1, 1, retransmit=True)
        assert det.stats.duplicate_retransmits == 1
        det.check(2, 2, retransmit=True)
        assert det.stats.retransmits_accepted == 3


class TestAwaitingLedger:
    """The run ledger answers as the set of every NACKed seq would."""

    @given(st.lists(st.tuples(st.sampled_from(["send", "resend", "settle"]),
                              st.integers(0, 40)), max_size=60),
           st.sampled_from([0, SEQ_MOD - 20]))
    @settings(max_examples=200, deadline=None)
    def test_runs_match_a_set_of_seqs(self, ops, base):
        det = LossDetector()
        det.check(1, base)
        head, awaited = base + 1, set()
        for op, value in ops:
            if op == "send":                # a gap of ``value`` reports
                seq = (head + value) % SEQ_MOD
                awaited |= {(head + i) % SEQ_MOD for i in range(value + 1)
                            } if value else set()
                det.check(1, seq)
                head = (seq + 1) % SEQ_MOD
            elif op == "resend":
                seq = (base + value) % SEQ_MOD
                accepted = det.stats.retransmits_accepted
                det.check(1, seq, retransmit=True)
                assert (det.stats.retransmits_accepted > accepted) == (
                    seq in awaited)
                awaited.discard(seq)
            else:
                held = [(base + i) % SEQ_MOD for i in range(0, 41, 3)]
                assert det.settle(1, held) == sorted(awaited & set(held))
                awaited &= set(held)
            runs = det.awaiting_runs().get(1, [])
            assert {seq for start, stop in runs
                    for seq in range(start, stop)} == awaited
            assert all(a[1] < b[0] for a, b in zip(runs, runs[1:]))

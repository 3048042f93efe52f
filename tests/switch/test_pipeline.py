"""The translator's ingress as a match-action pipeline.

These ids once drove the tables and stages of a switch-pipeline model
(removed, ROADMAP item 11(B)).  The translator the system runs is that
pipeline: each report's header is matched against the configured
services (exact match on the primitive, a miss refused), flag bits
select the loss-detection and immediate-write stages, and those stages
run in order, once per report.  Each id now checks that on
:class:`~repro.core.translator.Translator`; the two per-stage bounds
are the ASIC budget of :mod:`repro.switch.resources`.
"""

import pytest

from repro import calibration
from repro.core import packets, primitives
from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.packets import (
    Append,
    DtaFlags,
    DtaPrimitive,
    KeyWrite,
    Postcard,
    SketchColumn,
    make_report,
)
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.switch.programs import translator_program
from repro.switch.resources import Resource, ResourceBudget, ResourceUsage

DATA = b"\x01\x02\x03\x04"


def deploy(vectorized=False):
    col = Collector()
    col.serve_keywrite(slots=1024, data_bytes=4)
    col.serve_postcarding(chunks=64, value_set=range(16), cache_slots=16)
    col.serve_append(lists=4, capacity=32, data_bytes=4, batch_size=8)
    col.serve_sketch(width=4, depth=2, expected_reporters=2,
                     batch_columns=4)
    tr = Translator(vectorized=vectorized)
    col.connect_translator(tr)
    return col, tr


def keywrite(key: bytes, **header) -> bytes:
    return make_report(KeyWrite(key=key, data=DATA), **header)


class TestTable:
    def test_exact_match_hits(self):
        col, tr = deploy()
        tr.handle_report(keywrite(b"k"))
        tr.handle_report(make_report(Append(list_id=0, data=DATA)))
        assert (tr.stats.keywrites, tr.stats.appends,
                tr.stats.postcards) == (1, 1, 0)
        assert col.query_value(b"k", redundancy=2).value == DATA

    def test_miss_runs_default(self):
        """A primitive no service matches is refused — by ``check``
        unraised, by the data path raised — before any verb."""
        col = Collector()
        col.serve_append(lists=1, capacity=8, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr)
        error = tr.check(primitives.KEY_WRITE.code, ([b"k"], [DATA]))
        assert isinstance(error, RuntimeError)
        with pytest.raises(RuntimeError, match="service not configured"):
            tr.handle_report(keywrite(b"k"))
        assert col.nic.stats.messages == 0

    def test_ternary_masked_match(self):
        """The IMMEDIATE bit alone selects the immediate write, whatever
        the other flag bits say."""
        col, tr = deploy()
        tr.handle_report(keywrite(b"a", reporter_id=1,
                                  flags=DtaFlags.IMMEDIATE))
        tr.handle_report(keywrite(b"b", reporter_id=2, seq=0,
                                  flags=DtaFlags.IMMEDIATE
                                  | DtaFlags.ESSENTIAL))
        tr.handle_report(keywrite(b"c", reporter_id=3))
        notes = col.drain_notifications()
        assert [(n.primitive, n.reporter_id) for n in notes] == \
            [(DtaPrimitive.KEY_WRITE, 1), (DtaPrimitive.KEY_WRITE, 2)]
        assert tr.stats.immediate_writes == 2

    def test_ternary_priority_order(self):
        """Loss detection outranks the service: an essential report
        that exposes a gap is NACKed, not translated."""
        col, tr = deploy()
        nacks = []
        tr.control_sink = lambda src, raw: nacks.append(raw)
        tr.handle_report(keywrite(b"a", reporter_id=3, seq=0,
                                  flags=DtaFlags.ESSENTIAL))
        tr.handle_report(keywrite(b"b", reporter_id=3, seq=2,
                                  flags=DtaFlags.ESSENTIAL))
        assert len(nacks) == 1 and tr.stats.keywrites == 1
        assert not col.query_value(b"b", redundancy=2).found

    def test_capacity_enforced(self):
        """A service holds what it was provisioned for: a list or a hop
        beyond it is refused before any state moves."""
        col, tr = deploy()
        with pytest.raises(ValueError, match="not provisioned"):
            tr.handle_report(make_report(Append(list_id=4, data=DATA)))
        with pytest.raises(IndexError, match="hop outside"):
            tr.handle_report(make_report(Postcard(key=b"f", hop=5,
                                                  value=1)))
        assert (tr.append_head(4), tr.stats.postcards) == (0, 0)
        assert col.nic.stats.messages == 0

    def test_key_arity_checked(self):
        """A value wider than the Key-Write slot is refused, and a batch
        holding one is refused whole, on either lane."""
        for vectorized in (False, True):
            col, tr = deploy(vectorized=vectorized)
            with pytest.raises(ValueError):
                tr.handle_report(make_report(KeyWrite(key=b"k",
                                                      data=b"\x00" * 8)))
            with pytest.raises(ValueError):
                tr.process_batch(ReportBatch.key_writes(
                    [b"k%d" % i for i in range(8)],
                    [DATA] * 7 + [b"\x00" * 8]))
            assert col.nic.stats.messages == 0

    def test_clear(self):
        """A new sketch epoch clears the merge state: columns restart
        at zero and merge only what arrives after the reset."""
        col, tr = deploy()

        def send(reporter, value):
            for column in range(4):
                tr.handle_report(make_report(
                    SketchColumn(sketch_id=0, column=column,
                                 counters=(value, value)),
                    reporter_id=reporter))

        send(1, 5)
        tr.reset_sketch_epoch()
        send(1, 1)
        send(2, 2)
        assert tr.stats.sketch_column_nacks == 0
        assert [col.sketch.column(c) for c in range(4)] == [(3, 3)] * 4


class TestPipeline:
    def test_stages_execute_in_order(self):
        """An immediate Append flushes its list before the write that
        raises the interrupt, so the CPU finds the entry in place."""
        col, tr = deploy()
        tr.handle_report(make_report(Append(list_id=1, data=b"\x00" * 3
                                            + b"\x07"),
                                     reporter_id=9, flags=DtaFlags.IMMEDIATE))
        (note,) = col.drain_notifications()
        assert (note.primitive, note.reporter_id) == \
            (DtaPrimitive.APPEND, 9)
        assert col.list_poller(1).poll() == [b"\x00\x00\x00\x07"]

    def test_drop_short_circuits(self):
        """A crashed translator drops a report before every stage: no
        sequence state, no write."""
        col, tr = deploy()
        tr.crash()
        tr.handle_report(keywrite(b"a", reporter_id=3, seq=0,
                                  flags=DtaFlags.ESSENTIAL))
        assert tr.stats.dropped_while_crashed == 1
        tr.restart()
        assert col.nic.stats.messages == 0
        tr.handle_report(keywrite(b"a", reporter_id=3, seq=0,
                                  flags=DtaFlags.ESSENTIAL))
        assert tr.stats.nacks_sent == 0
        assert col.query_value(b"a", redundancy=2).value == DATA

    def test_register_guard_rearmed_per_traversal(self):
        """The immediate flag is consumed by its own report's first
        write; the next report writes plainly."""
        col, tr = deploy()
        tr.handle_report(keywrite(b"a", flags=DtaFlags.IMMEDIATE))
        tr.handle_report(keywrite(b"b"))
        assert tr.stats.immediate_writes == 1
        assert tr.stats.rdma_writes == 4
        assert len(col.drain_notifications()) == 1

    def test_recirculation_counted(self):
        """Reports re-sent after a NACK re-enter the translator, are
        counted as retransmissions, and land."""
        col, tr = deploy()
        sent = []

        def lossy(raw):
            sent.append(raw)
            if len(sent) != 2:           # the second report is lost
                tr.handle_report(raw)

        rep = Reporter("sw", 3, transmit=lossy)
        tr.control_sink = lambda src, raw: rep.handle_nack(
            packets.decode_report(raw)[1])
        for key in (b"a", b"b", b"c"):
            rep.key_write(key, DATA, essential=True)
        assert tr.stats.nacks_sent == 1
        assert rep.stats.retransmitted == 2
        assert all(packets.DtaHeader.unpack(raw).flags
                   & DtaFlags.RETRANSMIT for raw in sent[3:])
        for key in (b"a", b"b", b"c"):
            assert col.query_value(key, redundancy=2).value == DATA

    def test_tables_per_stage_bounded(self):
        """Table IDs: 16 per stage; the translator fits, and one table
        ID past the budget does not."""
        budget = ResourceBudget.tofino1()
        tables = (calibration.TOFINO_STAGES
                  * calibration.TOFINO_TABLE_IDS_PER_STAGE)
        assert budget.capacity(Resource.TABLE_IDS) == tables == 192
        assert translator_program().get(Resource.TABLE_IDS) <= tables
        assert not ResourceUsage().add(Resource.TABLE_IDS,
                                       tables + 1).fits()

    def test_registers_per_stage_bounded(self):
        """Stateful ALUs: 4 per stage, so the batching feature's B-1
        sALUs cap the batch size one translator can compile."""
        budget = ResourceBudget.tofino1()
        salus = calibration.TOFINO_STAGES * calibration.TOFINO_SALU_PER_STAGE
        assert budget.capacity(Resource.SALU) == salus == 48
        base = translator_program().get(Resource.SALU)
        largest = int(salus - base) + 1
        assert translator_program(batching=largest).fits()
        assert not translator_program(batching=largest + 1).fits()

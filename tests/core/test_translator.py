"""Translator: DTA-to-RDMA translation paths, batching, flow control."""

import pytest

from repro.core import packets
from repro.core.collector import Collector
from repro.core.packets import (
    Append,
    DtaFlags,
    DtaPrimitive,
    KeyIncrement,
    KeyWrite,
    Postcard,
    SketchColumn,
    make_report,
)
from repro.core.translator import Translator


def deploy(**append_kwargs):
    col = Collector()
    col.serve_keywrite(slots=2048, data_bytes=4)
    col.serve_postcarding(chunks=512, value_set=range(128), cache_slots=64)
    col.serve_append(lists=4, capacity=32, data_bytes=4,
                     **(append_kwargs or {"batch_size": 4}))
    col.serve_keyincrement(slots_per_row=256, rows=4)
    col.serve_sketch(width=16, depth=4, expected_reporters=2,
                     batch_columns=4)
    tr = Translator()
    col.connect_translator(tr)
    return col, tr


class TestKeyWritePath:
    def test_one_report_fans_out_n_writes(self):
        col, tr = deploy()
        raw = make_report(KeyWrite(key=b"k", data=b"\x01\x02\x03\x04",
                                   redundancy=3))
        tr.handle_report(raw)
        assert tr.stats.rdma_writes == 3
        assert col.nic.stats.messages == 3

    def test_written_value_queryable(self):
        col, tr = deploy()
        tr.handle_report(make_report(
            KeyWrite(key=b"flow", data=b"\xAB\xCD\xEF\x01",
                     redundancy=2)))
        assert col.query_value(b"flow", redundancy=2).value == \
            b"\xAB\xCD\xEF\x01"

    def test_unconfigured_primitive_raises(self):
        col = Collector()
        col.serve_append(lists=1, capacity=8, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr)
        with pytest.raises(RuntimeError):
            tr.handle_report(make_report(KeyWrite(key=b"k", data=b"d")))


class TestKeyIncrementPath:
    def test_fetch_adds_issued(self):
        col, tr = deploy()
        tr.handle_report(make_report(KeyIncrement(key=b"c", value=5,
                                                  redundancy=4)))
        assert tr.stats.rdma_atomics == 4
        assert col.nic.stats.atomics == 4

    def test_counter_accumulates_across_reports(self):
        col, tr = deploy()
        for _ in range(3):
            tr.handle_report(make_report(
                KeyIncrement(key=b"c", value=2, redundancy=4)))
        assert col.query_counter(b"c") == 6


class TestPostcardingPath:
    def test_full_path_is_single_write(self):
        col, tr = deploy()
        for hop in range(5):
            tr.handle_report(make_report(
                Postcard(key=b"f", hop=hop, value=hop + 1,
                         path_length=5)))
        assert tr.stats.postcard_chunks_complete == 1
        # One write for 5 postcards — the B-fold reduction.
        assert tr.stats.rdma_writes == 1
        assert col.query_path(b"f") == [1, 2, 3, 4, 5]

    def test_short_path_emits_at_announced_length(self):
        col, tr = deploy()
        tr.handle_report(make_report(Postcard(key=b"f", hop=0, value=1,
                                              path_length=2)))
        tr.handle_report(make_report(Postcard(key=b"f", hop=1, value=2,
                                              path_length=2)))
        assert col.query_path(b"f") == [1, 2]

    def test_early_emission_counted(self):
        col, tr = deploy()
        # The fixture cache has 64 slots; force a collision with two
        # flows that share a row by brute force.
        import zlib
        base = b"flow-A"
        target = zlib.crc32(b"\x50\x43" + base) % 64
        other = next(
            f"flow-{i}".encode() for i in range(10_000)
            if zlib.crc32(b"\x50\x43" + f"flow-{i}".encode()) % 64
            == target and f"flow-{i}".encode() != base)
        tr.handle_report(make_report(Postcard(key=base, hop=0, value=1,
                                              path_length=5)))
        tr.handle_report(make_report(Postcard(key=other, hop=0, value=2,
                                              path_length=5)))
        assert tr.stats.postcard_chunks_early == 1


class TestAppendPath:
    def test_batching_defers_writes(self):
        col, tr = deploy()
        for i in range(3):
            tr.handle_report(make_report(Append(list_id=0,
                                                data=bytes([i]))))
        assert tr.stats.rdma_writes == 0
        tr.handle_report(make_report(Append(list_id=0, data=b"\x03")))
        assert tr.stats.rdma_writes == 1
        assert tr.stats.append_batches == 1

    def test_batch_readable_by_poller(self):
        col, tr = deploy()
        for i in range(4):
            tr.handle_report(make_report(Append(list_id=1,
                                                data=bytes([i]))))
        entries = col.list_poller(1).poll()
        assert [e[0] for e in entries] == [0, 1, 2, 3]

    def test_flush_appends_drains_partial_batches(self):
        col, tr = deploy()
        tr.handle_report(make_report(Append(list_id=0, data=b"\x07")))
        tr.flush_appends()
        assert [e[0] for e in col.list_poller(0).poll()] == [7]

    def test_ring_wrap_splits_batch(self):
        col, tr = deploy(batch_size=8)
        # Capacity 32; fill 28 entries, then an 8-batch must split 4+4.
        for i in range(28):
            tr.handle_report(make_report(Append(list_id=0,
                                                data=bytes([i % 250]))))
        tr.flush_appends()
        writes_before = tr.stats.rdma_writes
        for i in range(8):
            tr.handle_report(make_report(Append(list_id=0,
                                                data=bytes([i]))))
        # The boundary forces an early flush of the first 4 entries...
        assert tr.stats.rdma_writes - writes_before == 1
        assert tr.append_head(0) == 32
        # ...and the remaining 4 follow on the next flush, after the
        # wrap, without any single write crossing the ring edge.
        tr.flush_appends()
        assert tr.stats.rdma_writes - writes_before == 2
        assert tr.append_head(0) == 36

    def test_unprovisioned_list_rejected(self):
        col, tr = deploy()
        with pytest.raises(ValueError):
            tr.handle_report(make_report(Append(list_id=99, data=b"x")))

    def test_per_list_batching_independent(self):
        col, tr = deploy()
        for list_id in (0, 1):
            for i in range(2):
                tr.handle_report(make_report(
                    Append(list_id=list_id, data=bytes([i]))))
        # Neither list reached batch size 4.
        assert tr.stats.rdma_writes == 0


class TestSketchMergePath:
    def test_columns_merge_across_reporters(self):
        col, tr = deploy()
        for reporter in (1, 2):
            for column in range(16):
                tr.handle_report(make_report(
                    SketchColumn(sketch_id=0, column=column,
                                 counters=(reporter,) * 4),
                    reporter_id=reporter))
        # Sum-merged: every counter is 1+2 = 3.
        assert col.sketch.column(0) == (3, 3, 3, 3)

    def test_batches_of_w_columns(self):
        col, tr = deploy()
        for reporter in (1, 2):
            for column in range(16):
                tr.handle_report(make_report(
                    SketchColumn(sketch_id=0, column=column,
                                 counters=(1, 1, 1, 1)),
                    reporter_id=reporter))
        # 16 columns at w=4 -> 4 batch writes.
        assert tr.stats.sketch_batches == 4

    def test_out_of_order_column_nacked(self):
        col, tr = deploy()
        nacks = []
        tr.control_sink = lambda src, raw: nacks.append(
            packets.decode_report(raw))
        tr.handle_report(make_report(
            SketchColumn(sketch_id=0, column=2, counters=(1, 1, 1, 1)),
            reporter_id=7))
        assert tr.stats.sketch_column_nacks == 1
        (header, nack), = nacks
        assert nack.expected_seq == 0
        # Column 2 was not merged.
        assert tr._lanes[DtaPrimitive.SKETCH_MERGE].merged_count[2] == 0

    def test_incomplete_columns_not_transferred(self):
        col, tr = deploy()
        for column in range(16):
            tr.handle_report(make_report(
                SketchColumn(sketch_id=0, column=column,
                             counters=(1, 1, 1, 1)),
                reporter_id=1))
        # Only one of two expected reporters: nothing moves.
        assert tr.stats.sketch_batches == 0
        assert col.sketch.column(0) == (0, 0, 0, 0)


class TestLossDetectionIntegration:
    def test_gap_in_essential_reports_nacks(self):
        col, tr = deploy()
        control = []
        tr.control_sink = lambda src, raw: control.append(raw)
        tr.handle_report(make_report(
            KeyWrite(key=b"a", data=b"\x01\x00\x00\x00"),
            reporter_id=3, seq=0, flags=DtaFlags.ESSENTIAL))
        tr.handle_report(make_report(
            KeyWrite(key=b"b", data=b"\x02\x00\x00\x00"),
            reporter_id=3, seq=2, flags=DtaFlags.ESSENTIAL))
        assert tr.stats.nacks_sent == 1
        header, nack = packets.decode_report(control[0])
        assert nack.expected_seq == 1
        assert nack.missing == 2
        # The gap-triggering report was aborted, not written.
        assert not col.query_value(b"b", redundancy=2).found

    def test_retransmit_flag_processes_normally(self):
        col, tr = deploy()
        tr.handle_report(make_report(
            KeyWrite(key=b"x", data=b"\x05\x00\x00\x00"),
            reporter_id=3, seq=4,
            flags=DtaFlags.ESSENTIAL | DtaFlags.RETRANSMIT))
        assert col.query_value(b"x", redundancy=2).found

    def test_non_essential_reports_skip_sequencing(self):
        col, tr = deploy()
        tr.handle_report(make_report(
            KeyWrite(key=b"a", data=b"\x01\x00\x00\x00"),
            reporter_id=3, seq=0))
        tr.handle_report(make_report(
            KeyWrite(key=b"b", data=b"\x02\x00\x00\x00"),
            reporter_id=3, seq=99))
        assert tr.stats.nacks_sent == 0


class TestMeterFlowControl:
    """The translator keeps no ingress meter: a report arriving at any
    rate is translated at once, and congestion signals are the
    reporter's to honour (``tests/integration/test_congestion.py``)."""

    def _burst(self, n: int = 500, flags=DtaFlags.NONE):
        col = Collector()
        col.serve_keywrite(slots=2048, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr)
        control = []
        tr.control_sink = lambda src, raw: control.append(raw)
        for i in range(n):
            tr.handle_report(make_report(
                KeyWrite(key=bytes([i % 250, i // 250]),
                         data=b"\x00\x00\x00\x01"), seq=i, flags=flags),
                now=0.001)
        return col, tr, control

    def test_overload_sheds_low_priority(self):
        col, tr, _control = self._burst()
        assert tr.stats.reports_in == tr.stats.keywrites == 500
        assert col.query_value(bytes([249, 1]), redundancy=2).found

    def test_overload_reroutes_essential_to_cpu(self):
        col, tr, control = self._burst(flags=DtaFlags.ESSENTIAL)
        assert tr.stats.keywrites == 500 and not control
        assert tr.loss.stats.reports_checked == 500

    def test_congestion_signal_emitted_at_red(self):
        _col, tr, control = self._burst(2000)
        assert control == [] and tr.stats.nacks_sent == 0

    def test_cpu_backlog_reinjection(self):
        col, tr, _control = self._burst(
            flags=DtaFlags.ESSENTIAL | DtaFlags.RETRANSMIT)
        assert tr.stats.keywrites == 500
        assert col.query_value(bytes([0, 0]), redundancy=2).found


class TestSketchIdRouting:
    def test_wrong_sketch_id_rejected_with_guidance(self):
        col = Collector()
        col.serve_sketch(width=8, depth=2, expected_reporters=1,
                         batch_columns=4, sketch_id=3)
        tr = Translator()
        col.connect_translator(tr)
        with pytest.raises(ValueError, match="sketch 9 not served"):
            tr.handle_report(make_report(
                SketchColumn(sketch_id=9, column=0, counters=(1, 1)),
                reporter_id=1))

    def test_matching_sketch_id_accepted(self):
        col = Collector()
        col.serve_sketch(width=8, depth=2, expected_reporters=1,
                         batch_columns=8, sketch_id=3)
        tr = Translator()
        col.connect_translator(tr)
        tr.handle_report(make_report(
            SketchColumn(sketch_id=3, column=0, counters=(4, 4)),
            reporter_id=1))
        assert tr._lanes[DtaPrimitive.SKETCH_MERGE].merged_count[0] == 1

"""The translator's Append batching and Key-Write fan-out, on the one
translator the system runs.

These ids once drove a second translator, a switch-pipeline model of
the Append batching and Key-Write multicast paths (removed, ROADMAP
item 11(B)).  Each now checks on :class:`~repro.core.translator.Translator`
what the model was compared against: the bytes and addresses the verbs
land at, when a batch is written, and that the scalar lane and the
vector plan land the same bytes.
"""

import struct

import pytest

from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.packets import Append, KeyWrite, make_report
from repro.core.translator import Translator
from repro.switch.programs import batching_feature
from repro.switch.resources import Resource


def append_service(batch=4, lists=4, capacity=64, data_bytes=4,
                   vectorized=False):
    col = Collector()
    col.serve_append(lists=lists, capacity=capacity, data_bytes=data_bytes,
                     batch_size=batch)
    tr = Translator(vectorized=vectorized)
    col.connect_translator(tr)
    return col, tr


def append(tr, list_id: int, value: int) -> None:
    tr.handle_report(make_report(Append(list_id=list_id,
                                        data=struct.pack(">I", value))))


def values(col, list_id: int) -> list:
    return [struct.unpack(">I", data)[0]
            for data in col.list_poller(list_id).poll()]


def keywrite_service(vectorized=False):
    col = Collector()
    col.serve_keywrite(slots=512, data_bytes=4)
    tr = Translator(vectorized=vectorized)
    col.connect_translator(tr)
    return col, tr


class TestAppendBatchingPath:
    def test_stores_until_batch_full(self):
        col, tr = append_service(batch=4)
        for v in (1, 2, 3):
            append(tr, 0, v)
        assert col.nic.stats.messages == 0
        append(tr, 0, 4)
        assert col.nic.stats.messages == 1
        assert values(col, 0) == [1, 2, 3, 4]

    def test_batch_payload_matches_software_encoding(self):
        col, tr = append_service(batch=4)
        for v in (1, 2, 3, 4):
            append(tr, 1, v)
        layout = col.append.layout
        expected = layout.encode_batch(
            [struct.pack(">I", v) for v in (1, 2, 3, 4)], head=0)
        offset = layout.entry_addr(1, 0) - layout.base_addr
        assert col.append.region.local_read(offset, len(expected)) == \
            expected
        assert tr.stats.rdma_payload_bytes == len(expected)

    def test_head_advances_across_batches(self):
        col, tr = append_service(batch=2)
        for v in (1, 2, 3, 4):
            append(tr, 0, v)
        layout = col.append.layout
        second = layout.encode_batch([struct.pack(">I", v) for v in (3, 4)],
                                     head=2)
        offset = layout.entry_addr(0, 2) - layout.base_addr
        assert col.append.region.local_read(offset, len(second)) == second
        assert tr.append_head(0) == 4
        assert tr.stats.append_batches == 2

    def test_lists_have_independent_batches(self):
        col, tr = append_service(batch=3)
        append(tr, 0, 1)
        append(tr, 1, 9)
        append(tr, 0, 2)
        append(tr, 0, 3)
        assert values(col, 0) == [1, 2, 3]
        assert values(col, 1) == []
        assert (tr.append_head(0), tr.append_head(1)) == (3, 0)

    def test_register_arrays_scale_with_batch(self):
        """The translator holds B-1 entries per list before one write of
        B: the state Table 3's batching row pays B-1 stateful ALUs for
        (``switch.programs.batching_feature``)."""
        col, tr = append_service(batch=16)
        for v in range(15):
            append(tr, 0, v)
        assert col.nic.stats.messages == 0
        append(tr, 0, 15)
        assert col.nic.stats.messages == 1
        assert values(col, 0) == list(range(16))
        assert batching_feature(16).get(Resource.SALU) == 15

    def test_wide_entries_rejected(self):
        """An entry wider than the list's slots is refused before it
        joins a batch."""
        col, tr = append_service(batch=2, data_bytes=4)
        with pytest.raises(ValueError, match="too wide"):
            tr.handle_report(make_report(Append(list_id=0,
                                                data=b"\x00" * 8)))
        append(tr, 0, 1)
        append(tr, 0, 2)
        assert values(col, 0) == [1, 2]

    def test_agrees_with_software_translator(self):
        """The same appends through the scalar lane (one report at a
        time) and the vector plan (one batch) leave identical collector
        memory and batch counts."""
        data = [struct.pack(">I", i) for i in range(11)]
        col_s, tr_s = append_service(batch=4)
        for value in data:
            tr_s.handle_report(make_report(Append(list_id=0, data=value)))
        col_v, tr_v = append_service(batch=4, vectorized=True)
        tr_v.process_batch(ReportBatch.appends([0] * len(data), data))
        for tr in (tr_s, tr_v):
            tr.flush_appends()
        assert bytes(col_v.append.region.buf) == \
            bytes(col_s.append.region.buf)
        assert tr_v.stats.append_batches == tr_s.stats.append_batches == 3


class TestKeyWriteMulticastPath:
    def test_fanout_count(self):
        col, tr = keywrite_service()
        tr.handle_report(make_report(KeyWrite(
            key=b"key", data=b"\x01\x02\x03\x04", redundancy=3)))
        assert tr.stats.rdma_writes == 3
        assert col.nic.stats.messages == 3

    def test_addresses_match_layout_hashes(self):
        """One report writes exactly the N slots the layout hashes the
        key to, and nothing else."""
        col, tr = keywrite_service()
        tr.handle_report(make_report(KeyWrite(
            key=b"flow", data=b"\x00\x00\x00\x05", redundancy=2)))
        layout = col.keywrite.layout
        buf = bytes(col.keywrite.region.buf)
        touched = {offset // layout.slot_bytes
                   for offset, byte in enumerate(buf) if byte}
        assert touched == {layout.slot_index(0, b"flow"),
                           layout.slot_index(1, b"flow")}
        assert [layout.slot_addr(n, b"flow") for n in range(2)] == \
            layout.slot_addrs(b"flow", 2)

    def test_payload_parity_with_software_translator(self):
        """Each slot holds the layout's encoding of the pair, and the
        scalar lane and the vector plan land the same bytes."""
        keys = [b"parity%d" % i for i in range(40)]
        datas = [struct.pack(">I", i * 7919) for i in range(40)]
        col_s, tr_s = keywrite_service()
        for key, data in zip(keys, datas):
            tr_s.handle_report(make_report(KeyWrite(key=key, data=data,
                                                    redundancy=2)))
        col_v, tr_v = keywrite_service(vectorized=True)
        tr_v.process_batch(ReportBatch.key_writes(keys, datas,
                                                  redundancy=2))
        assert bytes(col_v.keywrite.region.buf) == \
            bytes(col_s.keywrite.region.buf)
        layout = col_s.keywrite.layout
        offset = layout.slot_addr(0, keys[-1]) - layout.base_addr
        assert col_s.keywrite.region.local_read(
            offset, layout.slot_bytes) == \
            layout.encode_entry(keys[-1], datas[-1])

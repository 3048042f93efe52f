"""Sonata dataflow operators and compiled queries."""

import struct

import pytest

from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.workloads.traffic import Packet
from tests.table2.sonata_dataflow import (
    DataflowQuery,
    Distinct,
    Filter,
    Map,
    Reduce,
)


def pkt(src: bytes, dst: bytes, retx=False):
    return Packet(flow_key=src + dst + b"\x00" * 5, seq=0, size=100,
                  timestamp=0.0, is_retransmission=retx)


@pytest.fixture
def rig():
    col = Collector()
    col.serve_keywrite(slots=2048, data_bytes=8)
    col.serve_append(lists=2, capacity=128, data_bytes=4, batch_size=1)
    tr = Translator()
    col.connect_translator(tr)
    return col, Reporter("sw", 1, transmit=tr.handle_report)


class TestOperators:
    def test_filter_drops(self):
        f = Filter(lambda r: r > 5)
        assert f.process(9) == 9
        assert f.process(3) is None

    def test_map_transforms(self):
        m = Map(lambda r: r * 2)
        assert m.process(4) == 8

    def test_distinct_per_epoch(self):
        d = Distinct()
        assert d.process("a") == "a"
        assert d.process("a") is None
        d.start_epoch()
        assert d.process("a") == "a"

    def test_distinct_with_key_fn(self):
        d = Distinct(key_fn=lambda r: r[0])
        assert d.process(("x", 1)) is not None
        assert d.process(("x", 2)) is None

    def test_reduce_accumulates_and_thresholds(self):
        r = Reduce(threshold=3)
        for _ in range(3):
            r.process("hot")
        r.process("cold")
        assert r.over_threshold() == {"hot": 3}
        assert r.table == {"hot": 3, "cold": 1}

    def test_reduce_is_terminal(self):
        assert Reduce().process("x") is None

    def test_reduce_custom_value(self):
        r = Reduce(key_fn=lambda rec: rec[0],
                   value_fn=lambda rec: rec[1])
        r.process(("k", 10))
        r.process(("k", 5))
        assert r.table == {"k": 15}


class TestCompiledQueries:
    def test_ddos_style_distinct_sources_per_destination(self, rig):
        """Sonata's DDoS query: count distinct sources per dst."""
        col, rep = rig
        query = DataflowQuery(
            query_id=11,
            operators=[
                Distinct(key_fn=lambda p: p.flow_key[:8]),  # (src,dst)
                Map(lambda p: p.flow_key[4:8]),             # dst
                Reduce(threshold=3),
            ],
            reporter=rep, raw_list=0)
        victim = b"\x0A\x00\x00\x63"
        for i in range(5):
            src = struct.pack(">I", i)
            query.process(pkt(src, victim))
            query.process(pkt(src, victim))   # duplicates deduped
        query.process(pkt(b"\x01\x00\x00\x00", b"\x0A\x00\x00\x01"))
        result = query.end_epoch()
        assert result.over_threshold == {victim: 5}

        # Key-Write result landed under the query id.
        stored = col.query_value(struct.pack(">I", 11), redundancy=2)
        groups, over = struct.unpack(">II", stored.value)
        assert (groups, over) == (2, 1)
        # Raw mirror carries the victim address.
        assert col.list_poller(0).poll() == [victim]

    def test_heavy_senders_filter_map_reduce(self, rig):
        col, rep = rig
        query = DataflowQuery(
            query_id=4,
            operators=[
                Filter(lambda p: p.size >= 100),
                Map(lambda p: p.flow_key[:4]),
                Reduce(threshold=10),
            ],
            reporter=rep)
        for _ in range(12):
            query.process(pkt(b"\xC0\x00\x00\x01", b"\x0A\x00\x00\x02"))
        result = query.end_epoch()
        assert result.over_threshold == {b"\xC0\x00\x00\x01": 12}

    def test_epoch_isolation(self, rig):
        col, rep = rig
        query = DataflowQuery(
            query_id=5,
            operators=[Map(lambda p: p.flow_key[:4]), Reduce()],
            reporter=rep)
        query.process(pkt(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02"))
        first = query.end_epoch()
        second = query.end_epoch()
        assert first.groups == 1
        assert second.groups == 0
        assert query.epochs == 2

    def test_reduce_must_be_last(self, rig):
        _, rep = rig
        with pytest.raises(ValueError):
            DataflowQuery(query_id=1,
                          operators=[Reduce(), Map(lambda r: r)],
                          reporter=rep)

    def test_empty_chain_rejected(self, rig):
        _, rep = rig
        with pytest.raises(ValueError):
            DataflowQuery(query_id=1, operators=[], reporter=rep)

    def test_query_without_reduce_reports_zero_groups(self, rig):
        col, rep = rig
        query = DataflowQuery(
            query_id=6, operators=[Filter(lambda p: False)],
            reporter=rep)
        query.process(pkt(b"\x01\x00\x00\x00", b"\x02\x00\x00\x00"))
        result = query.end_epoch()
        assert result.groups == 0

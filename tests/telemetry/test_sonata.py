"""Sonata queries: dataflow, epoch results, raw mirroring."""

import struct

import pytest

from repro.core import packets
from repro.core.reporter import Reporter
from repro.workloads.traffic import Packet
from tests.table2.sonata import SonataQuery


def pkt(flow=b"S" * 13, size=1500):
    return Packet(flow_key=flow, seq=0, size=size, timestamp=0.0)


@pytest.fixture
def capture():
    sent = []
    reporter = Reporter("sw", 2,
                        transmit=lambda raw: sent.append(
                            packets.decode_report(raw)))
    return reporter, sent


def heavy_flows_query(reporter, **kwargs):
    """A 'flows with many large packets' query."""
    return SonataQuery(query_id=7,
                       filter_fn=lambda p: p.size >= 1000,
                       key_fn=lambda p: p.flow_key,
                       reporter=reporter, **kwargs)


class TestDataflow:
    def test_filter_excludes_packets(self, capture):
        reporter, _ = capture
        query = heavy_flows_query(reporter, threshold=2)
        query.process(pkt(size=64))
        counts = query.end_epoch()
        assert counts == {}

    def test_groups_counted(self, capture):
        reporter, _ = capture
        query = heavy_flows_query(reporter)
        for _ in range(3):
            query.process(pkt(flow=b"A" * 13))
        query.process(pkt(flow=b"B" * 13))
        counts = query.end_epoch()
        assert counts == {b"A" * 13: 3, b"B" * 13: 1}

    def test_epoch_result_keyed_by_query_id(self, capture):
        reporter, sent = capture
        query = heavy_flows_query(reporter, threshold=2)
        for _ in range(2):
            query.process(pkt())
        query.end_epoch()
        keywrites = [(h, op) for h, op in sent
                     if h.primitive == packets.DtaPrimitive.KEY_WRITE]
        (header, op), = keywrites
        assert op.key == struct.pack(">I", 7)
        distinct, over = struct.unpack(">II", op.data)
        assert (distinct, over) == (1, 1)
        assert header.essential

    def test_epoch_resets_state(self, capture):
        reporter, _ = capture
        query = heavy_flows_query(reporter)
        query.process(pkt())
        query.end_epoch()
        assert query.end_epoch() == {}
        assert query.epochs_reported == 2

    def test_raw_mirroring_on_threshold_crossing(self, capture):
        reporter, sent = capture
        query = heavy_flows_query(reporter, threshold=2, raw_list=1)
        for _ in range(5):
            query.process(pkt(flow=b"C" * 13))
        appends = [op for h, op in sent
                   if h.primitive == packets.DtaPrimitive.APPEND]
        # Mirrored exactly once, at the first crossing.
        assert len(appends) == 1
        assert appends[0].list_id == 1
        assert appends[0].data == b"C" * 13
        assert query.tuples_mirrored == 1

    def test_no_mirror_without_raw_list(self, capture):
        reporter, sent = capture
        query = heavy_flows_query(reporter, threshold=1, raw_list=None)
        query.process(pkt())
        appends = [op for h, op in sent
                   if h.primitive == packets.DtaPrimitive.APPEND]
        assert appends == []

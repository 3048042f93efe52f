"""Table 2, row by row: every listed telemetry integration works.

Table 2 is the paper's claim that DTA's five primitives cover the
monitoring-systems literature.  Each test here is one row of the table
driving the real pipeline end to end.
"""

import struct

import pytest

from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator


@pytest.fixture
def rig():
    """A collector serving everything, wide enough for every row."""
    col = Collector()
    col.serve_keywrite(slots=1 << 13, data_bytes=20)
    col.serve_postcarding(chunks=1 << 12, value_set=range(512),
                          cache_slots=1 << 10)
    col.serve_append(lists=8, capacity=256, data_bytes=18, batch_size=1)
    col.serve_keyincrement(slots_per_row=1 << 10, rows=4)
    col.serve_sketch(width=16, depth=4, expected_reporters=2,
                     batch_columns=4)
    tr = Translator()
    col.connect_translator(tr)
    rep = Reporter("sw", 1, transmit=tr.handle_report)
    return col, tr, rep


FLOW = b"T" * 13


class TestKeyWriteRows:
    def test_int_md_path_tracing(self, rig):
        """INT-MD: sinks report 5x4B switch IDs, flow 5-tuple keys."""
        from repro.telemetry.inband import IntMdSink, trace_path

        col, tr, rep = rig
        sink = IntMdSink(rep, max_hops=5)
        sink.process(trace_path(FLOW, [11, 22, 33, 44, 55]))
        value = col.query_value(FLOW, redundancy=2).value
        assert struct.unpack(">5I", value) == (11, 22, 33, 44, 55)

    def test_marple_host_counters_non_merging(self, rig):
        """Marple: 4B counters, source-IP keys, non-merging."""
        from repro.telemetry.marple import HostCountersQuery
        from repro.workloads.traffic import Packet

        col, tr, rep = rig
        query = HostCountersQuery(rep, mode="key_write", export_every=1)
        query.process(Packet(FLOW, 0, 100, 0.0))
        result = col.query_value(FLOW[:4], redundancy=2)
        assert result.found

    def test_sonata_per_query_results(self, rig):
        """Sonata: fixed-size query results keyed by queryID."""
        from tests.table2.sonata import SonataQuery
        from repro.workloads.traffic import Packet

        col, tr, rep = rig
        q = SonataQuery(query_id=3, filter_fn=lambda p: True,
                        key_fn=lambda p: p.flow_key, reporter=rep)
        q.process(Packet(FLOW, 0, 1500, 0.0))
        q.end_epoch()
        assert col.query_value(struct.pack(">I", 3), redundancy=2).found

    def test_pint_per_flow_fragments(self, rig):
        """PINT: 1B reports, redundancy derived from packet ID."""
        from tests.table2.pint import PintSampler

        col, tr, rep = rig
        sampler = PintSampler(rep, sample_bits=0)
        assert sampler.process(FLOW, packet_id=1, value=0x5A)
        n = sampler.derived_redundancy(1)
        result = col.query_value(FLOW, redundancy=n)
        assert result.found and result.value[0] == 0x5A

    def test_packetscope_flow_troubleshooting(self, rig):
        """PacketScope: traversal info keyed by <switchID, 5-tuple>."""
        from tests.table2.packetscope import (
            PacketScopeSwitch,
            TraversalInfo,
            traversal_key,
        )

        col, tr, rep = rig
        scope = PacketScopeSwitch(rep, switch_id=1, export_every=1)
        scope.observe(FLOW, ingress_port=2, egress_port=5)
        raw = col.query_value(traversal_key(1, FLOW), redundancy=2).value
        assert TraversalInfo.unpack(raw).egress_port == 5


class TestPostcardingRows:
    def test_int_xd_path_measurements(self, rig):
        """INT-XD/MX: 4B postcards keyed by (flow, hop)."""
        from repro.telemetry.inband import IntXdSwitch

        col, tr, rep = rig
        for hop in range(5):
            IntXdSwitch(rep, switch_id=100 + hop,
                        hop=hop).process(FLOW, path_length=5)
        assert col.query_path(FLOW) == [100, 101, 102, 103, 104]

    def test_trajectory_sampling(self, rig):
        """Trajectory Sampling: unique labels from all hops."""
        from tests.table2.trajectory import (
            TrajectorySwitch,
            consistent_sample,
        )

        col, tr, rep = rig
        digest = next(f"d{i}".encode() for i in range(100)
                      if consistent_sample(f"d{i}".encode(), 1))
        for hop in range(3):
            TrajectorySwitch(rep, hop=hop, label=200 + hop,
                             sample_bits=1).process(digest,
                                                    path_length=3)
        assert col.query_path(digest) == [200, 201, 202]


class TestAppendRows:
    def test_int_congestion_events(self, rig):
        """INT: 4B congestion reports appended to a list."""
        from repro.telemetry.inband import IntMdSink, trace_path

        col, tr, rep = rig
        sink = IntMdSink(rep, max_hops=5, congestion_threshold=10,
                         congestion_list=0)
        sink.process(trace_path(FLOW, [7], [99]))
        assert len(col.list_poller(0).poll()) == 1

    def test_marple_lossy_connections(self, rig):
        """Marple: 13B lossy flows to threshold lists."""
        from repro.telemetry.marple import LossyFlowsQuery
        from repro.workloads.traffic import Packet

        col, tr, rep = rig
        q = LossyFlowsQuery(rep, threshold=0.01, min_packets=4,
                            base_list=1, buckets=(0.01,))
        for i in range(6):
            q.process(Packet(FLOW, i, 100, i * 0.01,
                             is_retransmission=True))
        entries = col.list_poller(1).poll()
        assert entries and entries[0][:13] == FLOW

    def test_netseer_loss_events(self, rig):
        """NetSeer: 18B loss events into a network-wide list."""
        from repro.telemetry.netseer import LossEvent, NetSeerSwitch

        col, tr, rep = rig
        switch = NetSeerSwitch(rep, switch_id=4, loss_list=2,
                               coalesce=1)
        switch.observe_drop(FLOW)
        (raw,) = col.list_poller(2).poll()
        assert LossEvent.unpack(raw).switch_id == 4

    def test_sonata_raw_data_transfer(self, rig):
        """Sonata: raw packet tuples mirrored to stream processors."""
        from tests.table2.sonata import SonataQuery
        from repro.workloads.traffic import Packet

        col, tr, rep = rig
        q = SonataQuery(query_id=1, filter_fn=lambda p: True,
                        key_fn=lambda p: p.flow_key, reporter=rep,
                        threshold=1, raw_list=3)
        q.process(Packet(FLOW, 0, 100, 0.0))
        entries = col.list_poller(3).poll()
        assert entries and entries[0][:13] == FLOW

    def test_packetscope_pipeline_loss(self, rig):
        """PacketScope: 14B pipeline-loss records."""
        from tests.table2.packetscope import (
            PacketScopeSwitch,
            PipelineLossEvent,
            PipelineStage,
        )

        col, tr, rep = rig
        scope = PacketScopeSwitch(rep, switch_id=6, loss_list=4)
        scope.observe_drop(FLOW, PipelineStage.PARSER, reason=1)
        (raw,) = col.list_poller(4).poll()
        assert PipelineLossEvent.unpack(raw).stage == \
            PipelineStage.PARSER


class TestSketchMergeRows:
    def test_count_min_counter_wise_sum(self, rig):
        """C/CM sketches: counter-wise sum across switches."""
        col, tr, rep = rig
        rep2 = Reporter("sw2", 2, transmit=tr.handle_report)
        for column in range(16):
            rep.sketch_column(0, column, (1, 1, 1, 1))
            rep2.sketch_column(0, column, (2, 2, 2, 2))
        assert col.sketch.column(0) == (3, 3, 3, 3)

    def test_hyperloglog_register_wise_max(self):
        """HyperLogLog: register-wise max (dedicated deployment)."""
        col = Collector()
        col.serve_sketch(width=4, depth=8, expected_reporters=2,
                         batch_columns=2, merge="max")
        tr = Translator()
        col.connect_translator(tr)
        a = Reporter("a", 1, transmit=tr.handle_report)
        b = Reporter("b", 2, transmit=tr.handle_report)
        for column in range(4):
            a.sketch_column(0, column, (5,) * 8)
            b.sketch_column(0, column, (3,) * 8)
        assert col.sketch.column(0) == (5,) * 8

    def test_aroma_network_wide_samples(self, rig):
        """AROMA: uniform network-wide samples from switch samples.

        (Sample merging happens in the sketch layer; DTA ships the
        sample sets as opaque columns.)"""
        from tests.table2.aroma import AromaSketch

        parts = [AromaSketch(k=8) for _ in range(3)]
        union = AromaSketch(k=8)
        for i in range(300):
            item = f"pkt{i}".encode()
            parts[i % 3].update(item)
            union.update(item)
        merged = AromaSketch(k=8)
        for part in parts:
            merged.merge(part)
        assert [s.key for s in merged.samples()] == \
            [s.key for s in union.samples()]


class TestKeyIncrementRows:
    def test_turboflow_evicted_microflows(self, rig):
        """TurboFlow: evicted 4B counters aggregated by flow key."""
        from repro.telemetry.turboflow import TurboFlowCache

        col, tr, rep = rig
        cache = TurboFlowCache(rep, slots=1, redundancy=4)
        cache.process(FLOW, 100)
        cache.process(b"other-flow!!!", 100)   # evicts FLOW
        assert col.query_counter(FLOW) == 1

    def test_marple_host_counters_addition_based(self, rig):
        """Marple: 4B counters, addition-based aggregation."""
        from repro.telemetry.marple import HostCountersQuery
        from repro.workloads.traffic import Packet

        col, tr, rep = rig
        q = HostCountersQuery(rep, mode="key_increment",
                              export_every=1, redundancy=4)
        for _ in range(3):
            q.process(Packet(FLOW, 0, 100, 0.0))
        assert col.query_counter(FLOW[:4]) == 3

"""PacketScope: traversal records and pipeline-loss events."""

import struct

import pytest

from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from tests.table2.packetscope import (
    PacketScopeSwitch,
    PipelineLossEvent,
    PipelineStage,
    TraversalInfo,
    traversal_key,
)

FLOW = b"F" * 13


class TestRecords:
    def test_traversal_roundtrip(self):
        info = TraversalInfo(ingress_port=3, egress_port=17,
                             last_stage=PipelineStage.EGRESS_MATCH,
                             packets=42, queue_peak=900)
        assert TraversalInfo.unpack(info.pack()) == info
        assert len(info.pack()) == TraversalInfo.RECORD_BYTES

    def test_loss_event_is_14_bytes(self):
        event = PipelineLossEvent(flow_digest=b"\x01" * 8, switch_id=5,
                                  stage=PipelineStage.TRAFFIC_MANAGER,
                                  reason=2)
        assert len(event.pack()) == 14
        assert PipelineLossEvent.unpack(event.pack()) == event

    def test_digest_width_enforced(self):
        with pytest.raises(ValueError):
            PipelineLossEvent(flow_digest=b"short", switch_id=1,
                              stage=PipelineStage.PARSER,
                              reason=0).pack()

    def test_composite_key(self):
        key = traversal_key(7, FLOW)
        assert key == struct.pack(">H", 7) + FLOW


class TestSwitchIntegration:
    def deploy(self):
        col = Collector()
        col.serve_keywrite(slots=4096,
                           data_bytes=TraversalInfo.RECORD_BYTES)
        col.serve_append(lists=2, capacity=128,
                         data_bytes=PipelineLossEvent.RECORD_BYTES,
                         batch_size=1)
        tr = Translator()
        col.connect_translator(tr)
        rep = Reporter("sw", 9, transmit=tr.handle_report)
        return col, PacketScopeSwitch(rep, switch_id=9, export_every=4)

    def test_traversal_queryable_by_composite_key(self):
        col, scope = self.deploy()
        for _ in range(4):
            scope.observe(FLOW, ingress_port=1, egress_port=2,
                          queue_depth=10)
        result = col.query_value(traversal_key(9, FLOW), redundancy=2)
        info = TraversalInfo.unpack(result.value)
        assert info.packets == 4
        assert info.queue_peak == 10

    def test_queue_peak_is_maximum(self):
        col, scope = self.deploy()
        for depth in (5, 80, 12, 3):
            scope.observe(FLOW, ingress_port=1, egress_port=2,
                          queue_depth=depth)
        info = TraversalInfo.unpack(
            col.query_value(traversal_key(9, FLOW),
                            redundancy=2).value)
        assert info.queue_peak == 80

    def test_export_cadence(self):
        col, scope = self.deploy()
        for _ in range(9):
            scope.observe(FLOW, ingress_port=1, egress_port=2)
        # Exported on packets 1, 4, 8.
        assert scope.traversal_reports == 3

    def test_pipeline_loss_lands_in_list(self):
        col, scope = self.deploy()
        scope.observe_drop(FLOW, PipelineStage.TRAFFIC_MANAGER,
                           reason=3)
        entries = col.list_poller(0).poll()
        event = PipelineLossEvent.unpack(entries[0])
        assert event.stage == PipelineStage.TRAFFIC_MANAGER
        assert event.switch_id == 9
        assert scope.loss_reports == 1

    def test_per_switch_keys_disjoint(self):
        col, scope = self.deploy()
        other = PacketScopeSwitch(
            Reporter("sw2", 10, transmit=None), switch_id=10)
        assert traversal_key(9, FLOW) != traversal_key(10, FLOW)

"""Event-triggered monitoring: microbursts and suspicious flows."""

import pytest

from repro.core import packets
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from tests.table2.events import (
    MicroburstDetector,
    MicroburstEvent,
    SuspiciousFlowDetector,
    SuspiciousFlowEvent,
)

FLOW = b"E" * 13


@pytest.fixture
def capture():
    sent = []
    reporter = Reporter("sw", 1,
                        transmit=lambda raw: sent.append(
                            packets.decode_report(raw)))
    return reporter, sent


class TestMicroburstDetector:
    def test_burst_reported_when_it_drains(self, capture):
        reporter, sent = capture
        det = MicroburstDetector(reporter, threshold=100)
        det.sample(3, 50, now_us=0)        # calm
        det.sample(3, 150, now_us=10)      # burst opens
        det.sample(3, 400, now_us=20)      # grows
        assert sent == []                   # still in progress
        det.sample(3, 30, now_us=35)       # drains -> report
        (_, op), = sent
        event = MicroburstEvent.unpack(op.data)
        assert event.port == 3
        assert event.peak_depth == 400
        assert event.start_us == 10
        assert event.duration_us == 25

    def test_ports_tracked_independently(self, capture):
        reporter, sent = capture
        det = MicroburstDetector(reporter, threshold=100)
        det.sample(1, 200, now_us=0)
        det.sample(2, 300, now_us=0)
        det.sample(1, 0, now_us=5)
        assert det.bursts_reported == 1     # port 2 still bursting
        det.sample(2, 0, now_us=9)
        assert det.bursts_reported == 2

    def test_flush_closes_open_bursts(self, capture):
        reporter, sent = capture
        det = MicroburstDetector(reporter, threshold=100)
        det.sample(1, 500, now_us=0)
        det.flush(now_us=100)
        assert det.bursts_reported == 1

    def test_calm_traffic_reports_nothing(self, capture):
        reporter, sent = capture
        det = MicroburstDetector(reporter, threshold=1000)
        for t in range(50):
            det.sample(0, 100, now_us=t)
        assert sent == []

    def test_record_roundtrip(self):
        event = MicroburstEvent(port=9, peak_depth=1234, start_us=5,
                                duration_us=77)
        assert MicroburstEvent.unpack(event.pack()) == event
        assert len(event.pack()) == 16

    def test_validation(self, capture):
        reporter, _ = capture
        with pytest.raises(ValueError):
            MicroburstDetector(reporter, threshold=0)
        det = MicroburstDetector(reporter, ports=4)
        with pytest.raises(IndexError):
            det.sample(4, 0, now_us=0)


class TestSuspiciousFlowDetector:
    def test_high_rate_flagged_once(self, capture):
        reporter, sent = capture
        det = SuspiciousFlowDetector(reporter, rate_threshold=10)
        for _ in range(25):
            det.observe(FLOW, dst_port=80)
        assert det.reports == 1
        (_, op), = sent
        event = SuspiciousFlowEvent.unpack(op.data)
        assert event.rule == SuspiciousFlowDetector.RULE_HIGH_RATE
        assert event.score == 10

    def test_port_scan_detected(self, capture):
        reporter, sent = capture
        det = SuspiciousFlowDetector(reporter, rate_threshold=10_000,
                                     fanout_threshold=8)
        for port in range(8):
            det.observe(FLOW, dst_port=port)
        assert det.reports == 1
        (_, op), = sent
        assert SuspiciousFlowEvent.unpack(op.data).rule == \
            SuspiciousFlowDetector.RULE_PORT_SCAN

    def test_epoch_reset_rearms(self, capture):
        reporter, sent = capture
        det = SuspiciousFlowDetector(reporter, rate_threshold=5)
        for _ in range(6):
            det.observe(FLOW, dst_port=80)
        det.end_epoch()
        for _ in range(6):
            det.observe(FLOW, dst_port=80)
        assert det.reports == 2

    def test_events_are_essential(self, capture):
        reporter, sent = capture
        det = SuspiciousFlowDetector(reporter, rate_threshold=1)
        det.observe(FLOW, dst_port=80)
        (header, _), = sent
        assert header.essential

    def test_end_to_end_into_list(self):
        col = Collector()
        col.serve_append(lists=1, capacity=64,
                         data_bytes=SuspiciousFlowEvent.RECORD_BYTES,
                         batch_size=1)
        tr = Translator()
        col.connect_translator(tr)
        rep = Reporter("sw", 1, transmit=tr.handle_report)
        det = SuspiciousFlowDetector(rep, rate_threshold=3)
        for _ in range(3):
            det.observe(FLOW, dst_port=443)
        (raw,) = col.list_poller(0).poll()
        assert SuspiciousFlowEvent.unpack(raw).flow_key == FLOW

    def test_record_roundtrip(self):
        event = SuspiciousFlowEvent(flow_key=FLOW, rule=2, score=31)
        assert SuspiciousFlowEvent.unpack(event.pack()) == event

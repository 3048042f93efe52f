"""INT telemetry-report wire format: spec-shaped round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.int_report import (
    HopMetadata,
    IntInstruction,
    IntMetadataHeader,
    IntReport,
    IntShim,
    TelemetryReport,
)

FULL = (IntInstruction.NODE_ID | IntInstruction.L1_PORT_IDS
        | IntInstruction.HOP_LATENCY | IntInstruction.QUEUE_OCCUPANCY)


class TestInstructionBitmap:
    def test_word_counts(self):
        assert IntInstruction.NODE_ID.words == 1
        assert IntInstruction.INGRESS_TSTAMP.words == 2
        assert FULL.words == 4

    def test_full_bitmap_words(self):
        everything = IntInstruction(0xFF00)
        # 6 single-word + 2 double-word instructions.
        assert everything.words == 10


class TestHeaders:
    def test_report_header_roundtrip(self):
        report = TelemetryReport(hw_id=5, seq=123456, node_id=77,
                                 ingress_tstamp=0xDEADBEEF,
                                 dropped=True)
        decoded = TelemetryReport.unpack(report.pack())
        assert decoded == report
        assert len(report.pack()) == 16

    def test_report_version_checked(self):
        raw = bytearray(TelemetryReport(hw_id=0, seq=0, node_id=0,
                                        ingress_tstamp=0).pack())
        raw[0] = 0xF0
        with pytest.raises(ValueError):
            TelemetryReport.unpack(bytes(raw))

    def test_shim_roundtrip(self):
        shim = IntShim(length_words=9, dscp=12)
        assert IntShim.unpack(shim.pack()) == shim

    def test_shim_type_checked(self):
        raw = bytearray(IntShim(length_words=1).pack())
        raw[0] = 9
        with pytest.raises(ValueError):
            IntShim.unpack(bytes(raw))

    def test_md_header_roundtrip(self):
        md = IntMetadataHeader(instructions=FULL, remaining_hops=3,
                               hop_count=2)
        assert IntMetadataHeader.unpack(md.pack()) == md


class TestHopMetadata:
    def test_roundtrip_full_instructions(self):
        hop = HopMetadata(node_id=42, ingress_port=1, egress_port=2,
                          hop_latency=950, queue_id=3,
                          queue_occupancy=12000)
        decoded = HopMetadata.unpack(hop.pack(FULL), FULL)
        assert decoded == hop

    def test_bitmap_controls_length(self):
        hop = HopMetadata(node_id=1)
        assert len(hop.pack(IntInstruction.NODE_ID)) == 4
        assert len(hop.pack(FULL)) == 16

    def test_timestamps_are_eight_bytes(self):
        instr = IntInstruction.INGRESS_TSTAMP
        hop = HopMetadata(ingress_tstamp=0x1122334455)
        raw = hop.pack(instr)
        assert len(raw) == 8
        assert HopMetadata.unpack(raw, instr).ingress_tstamp == \
            0x1122334455

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            HopMetadata.unpack(b"\x00\x00", IntInstruction.NODE_ID)


class TestFullReport:
    def make(self, hops=3):
        return IntReport(
            report=TelemetryReport(hw_id=1, seq=9, node_id=500,
                                   ingress_tstamp=1000),
            instructions=FULL,
            hops=[HopMetadata(node_id=100 + i, ingress_port=i,
                              egress_port=i + 1, hop_latency=10 * i,
                              queue_occupancy=i)
                  for i in range(hops)])

    def test_roundtrip(self):
        report = self.make()
        decoded = IntReport.unpack(report.pack())
        assert decoded.hops == report.hops
        assert decoded.report == report.report

    def test_path_property(self):
        assert self.make(hops=4).path == [100, 101, 102, 103]

    def test_stack_order_on_wire_is_last_hop_first(self):
        report = self.make(hops=2)
        raw = report.pack()
        stack_start = (TelemetryReport.HEADER_BYTES + IntShim.SHIM_BYTES
                       + IntMetadataHeader.HEADER_BYTES)
        first_on_wire = HopMetadata.unpack(
            raw[stack_start:stack_start + 16], FULL)
        assert first_on_wire.node_id == 101  # the egress-most hop

    @given(st.integers(1, 6), st.integers(0, 2 ** 22 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, hop_count, seq):
        report = IntReport(
            report=TelemetryReport(hw_id=0, seq=seq, node_id=1,
                                   ingress_tstamp=0),
            instructions=IntInstruction.NODE_ID,
            hops=[HopMetadata(node_id=i) for i in range(hop_count)])
        assert IntReport.unpack(report.pack()).path == report.path


class TestDtaIntegration:
    def test_real_int_report_as_dta_payload(self):
        """Figure 3 end to end: the DTA report's telemetry payload is a
        spec-shaped INT report, carried opaquely into collector memory
        and decodable after retrieval."""
        from repro.core.collector import Collector
        from repro.core.reporter import Reporter
        from repro.core.translator import Translator

        report = IntReport(
            report=TelemetryReport(hw_id=2, seq=77, node_id=900,
                                   ingress_tstamp=5),
            instructions=IntInstruction.NODE_ID,
            hops=[HopMetadata(node_id=n) for n in (10, 20, 30)])
        payload = report.pack()

        col = Collector()
        col.serve_keywrite(slots=1024, data_bytes=len(payload))
        tr = Translator()
        col.connect_translator(tr)
        rep = Reporter("sink", 1, transmit=tr.handle_report)
        rep.key_write(b"flow-with-int", payload, redundancy=2)

        stored = col.query_value(b"flow-with-int", redundancy=2).value
        assert IntReport.unpack(stored).path == [10, 20, 30]


class TestInFlightTransit:
    from repro.telemetry.int_report import IntInstruction as _II
    INSTR = _II.NODE_ID | _II.HOP_LATENCY

    def test_source_then_transit_hops(self):
        from repro.telemetry.int_report import (
            HopMetadata,
            InFlightInt,
            int_source,
        )

        state = int_source(self.INSTR, max_hops=5)
        for node in (1, 2, 3):
            assert state.push(HopMetadata(node_id=node,
                                          hop_latency=node * 10))
        assert state.remaining_hops == 2
        # Wire round trip mid-path (what the next switch parses).
        reparsed = InFlightInt.unpack(state.pack())
        assert [h.node_id for h in reparsed.hops] == [1, 2, 3]
        assert reparsed.remaining_hops == 2

    def test_hop_budget_enforced(self):
        from repro.telemetry.int_report import HopMetadata, int_source

        state = int_source(self.INSTR, max_hops=2)
        assert state.push(HopMetadata(node_id=1))
        assert state.push(HopMetadata(node_id=2))
        assert not state.push(HopMetadata(node_id=3))
        assert [h.node_id for h in state.hops] == [1, 2]

    def test_sink_conversion_and_export(self):
        """Source -> transits -> sink -> DTA -> collector: the whole
        INT-MD lifecycle with real bytes at every stage."""
        from repro.core.collector import Collector
        from repro.core.reporter import Reporter
        from repro.core.translator import Translator
        from repro.telemetry.int_report import (
            HopMetadata,
            IntReport,
            int_source,
        )

        state = int_source(self.INSTR, max_hops=5)
        for node in (11, 22, 33):
            state.push(HopMetadata(node_id=node, hop_latency=5))
        report = IntReport(report=TelemetryReport(hw_id=0, seq=9, node_id=33,
                                                  ingress_tstamp=0),
                           instructions=state.instructions,
                           hops=list(state.hops))
        payload = report.pack()

        col = Collector()
        col.serve_keywrite(slots=1024, data_bytes=len(payload))
        tr = Translator()
        col.connect_translator(tr)
        Reporter("sink", 1, transmit=tr.handle_report).key_write(
            b"transit-flow!", payload, redundancy=2)
        stored = col.query_value(b"transit-flow!", redundancy=2).value
        assert IntReport.unpack(stored).path == [11, 22, 33]

    def test_source_validation(self):
        from repro.telemetry.int_report import int_source

        import pytest as _pytest

        with _pytest.raises(ValueError):
            int_source(self.INSTR, max_hops=0)

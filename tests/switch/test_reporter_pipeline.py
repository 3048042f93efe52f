"""The reporter's emission path, on the one reporter the system runs.

These ids once drove a second reporter, a switch-pipeline model with
its own event and route tables (removed, ROADMAP item 11(B)).  Each now
checks, on :class:`~repro.core.reporter.Reporter` and the translator it
feeds, the behaviour that model was held to: byte parity with the
codec, sequence numbers for essential reports only, one stream per
destination, and nothing leaving for a report that may not be sent.
"""

import pytest

from repro.core import packets
from repro.core.batch import ReportBatch
from repro.core.cluster import ClusterMap, ClusterReporter
from repro.core.collector import Collector
from repro.core.packets import DtaPrimitive, KeyWrite
from repro.core.reporter import Reporter
from repro.core.translator import Translator


@pytest.fixture
def reporter():
    sent = []
    return Reporter("sw", 42, transmit=sent.append), sent


def seq_of(raw: bytes) -> int:
    return packets.DtaHeader.unpack(raw).seq


class TestPipelineEmission:
    def test_keywrite_byte_parity_with_software_reporter(self, reporter):
        """Per-report and batched emission put the codec's bytes on the
        wire (the codec itself is pinned by the golden vectors)."""
        rep, sent = reporter
        rep.key_write(b"flow", b"\x01\x02\x03\x04", redundancy=2)
        rep.send_batch(ReportBatch.key_writes(
            [b"flow"], [b"\x01\x02\x03\x04"], redundancy=2))
        expected = packets.make_report(
            KeyWrite(key=b"flow", data=b"\x01\x02\x03\x04", redundancy=2),
            reporter_id=42)
        assert sent == [expected, expected]

    def test_postcard_decodes_correctly(self, reporter):
        rep, sent = reporter
        rep.postcard(b"f", 2, 77, path_length=5)
        header, op = packets.decode_report(sent[0])
        assert header.primitive == DtaPrimitive.POSTCARDING
        assert header.reporter_id == 42
        assert (op.key, op.hop, op.value, op.path_length) == \
            (b"f", 2, 77, 5)

    def test_essential_events_take_sequence_numbers(self, reporter):
        """Per-report and batched essential emission share one counter."""
        rep, sent = reporter
        rep.append(3, b"evt0", essential=True)
        rep.send_batch(ReportBatch.appends([3, 3], [b"evt1", b"evt2"],
                                           essential=True))
        assert [seq_of(raw) for raw in sent] == [0, 1, 2]
        assert all(packets.DtaHeader.unpack(raw).essential for raw in sent)
        assert [rep.backup.get(seq) for seq in range(3)] == sent

    def test_non_essential_events_skip_the_counter(self, reporter):
        rep, sent = reporter
        rep.key_write(b"a", b"\x00" * 4)
        rep.append(3, b"evt", essential=True)
        rep.key_write(b"b", b"\x00" * 4)
        rep.append(3, b"evt", essential=True)
        assert [seq_of(raw) for raw in sent] == [0, 0, 0, 1]
        assert not packets.DtaHeader.unpack(sent[2]).essential
        assert rep.stats.essential_sent == 2

    def test_unconfigured_event_dropped(self, reporter):
        """A report the reporter may not send — low priority while the
        translator signals congestion — leaves no bytes and is counted;
        a batch is shed whole."""
        rep, sent = reporter
        rep.handle_congestion(packets.CongestionSignal(level=1))
        assert rep.key_write(b"k", b"\x00" * 4) is False
        assert rep.send_batch(ReportBatch.key_writes(
            [b"k", b"l"], [b"\x00" * 4] * 2)) == 0
        assert sent == []
        assert rep.stats.shed_by_congestion == 3

    def test_unrouted_primitive_dropped(self):
        """A report for a primitive the translator serves no store for
        is refused before any verb is posted."""
        col = Collector()
        col.serve_append(lists=1, capacity=8, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr)
        rep = Reporter("sw", 1, transmit=tr.handle_report)
        with pytest.raises(RuntimeError, match="service not configured"):
            rep.key_write(b"k", b"\x00" * 4)
        assert col.nic.stats.messages == 0
        assert tr.stats.rdma_messages == 0

    def test_per_translator_counters(self):
        """Toward a cluster, each collector's translator sees its own
        contiguous essential sequence."""
        streams = [[], []]
        cluster = ClusterReporter(
            "sw", 42, cluster_map=ClusterMap(collectors=2),
            transmits=[streams[0].append, streams[1].append])
        for list_id in (0, 1, 0, 1, 1):
            cluster.append(list_id, b"e", essential=True)
        # Lists route by ``list_id % collectors``.
        assert [[packets.decode_report(raw)[1].list_id for raw in stream]
                for stream in streams] == [[0, 0], [1, 1, 1]]
        assert [[seq_of(raw) for raw in stream]
                for stream in streams] == [[0, 1], [0, 1, 2]]

    def test_pipeline_output_feeds_real_translator(self):
        """End to end: reporter bytes drive the translator into the
        collector's Key-Write store."""
        col = Collector()
        col.serve_keywrite(slots=1024, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr)
        rep = Reporter("sw", 42, transmit=tr.handle_report)
        rep.key_write(b"pipelined", b"\xAA\xBB\xCC\xDD", redundancy=2)
        assert col.query_value(b"pipelined", redundancy=2).value == \
            b"\xAA\xBB\xCC\xDD"

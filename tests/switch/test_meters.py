"""Congestion signals: the wire message and the reporter's shedding.

The translator's ingress meter is gone (no entry point configured
one); what remains of Section 3.3's flow control is the signal itself
and the reporter that honours it.  The test names come from the meter
model that used to live in ``repro.switch.meters``.
"""

import struct

import pytest

from repro import obs
from repro.core import packets
from repro.core.batch import ReportBatch
from repro.core.packets import CongestionSignal
from repro.core.reporter import Reporter
from repro.core.transport import CtrlFrame


def make_reporter(level: int = 0):
    sent = []
    rep = Reporter("r", 1, transmit=sent.append)
    if level:
        rep.handle_congestion(CongestionSignal(level=level))
    return rep, sent


def _signal(level: int) -> bytes:
    return packets.make_report(CongestionSignal(level=level), reporter_id=1)


class TestConfig:
    def test_peak_below_committed_rejected(self):
        with pytest.raises(struct.error):
            _signal(256)

    def test_time_going_backwards_rejected(self):
        # A milder signal never lowers the level: only relax() does.
        rep, _sent = make_reporter(level=2)
        rep.handle_congestion(CongestionSignal(level=1))
        assert rep.congestion_level == 2

    def test_negative_rates_and_bursts_rejected(self):
        with pytest.raises(struct.error):
            _signal(-1)

    def test_zero_rate_config_is_legal(self):
        assert packets.decode_report(_signal(0))[1] == CongestionSignal(0)
        rep, sent = make_reporter(level=0)
        assert rep.key_write(b"k", b"\x01\x00\x00\x00") and sent


class TestColouring:
    def test_below_committed_is_green(self):
        rep, sent = make_reporter()
        assert all(rep.key_write(bytes([i]), b"\x00" * 4)
                   for i in range(50))
        assert len(sent) == 50 and rep.stats.shed_by_congestion == 0

    def test_between_rates_goes_yellow(self):
        rep, sent = make_reporter(level=1)
        assert not rep.key_write(b"low", b"\x00" * 4)
        assert rep.key_write(b"high", b"\x00" * 4, essential=True)
        assert len(sent) == 1

    def test_above_peak_goes_red(self):
        rep, sent = make_reporter(level=2)
        assert not rep.append(0, b"\x00" * 4)
        assert sent == [] and rep.stats.shed_by_congestion == 1

    def test_burst_tolerated(self):
        # Batches are homogeneous: a plain one is shed whole, an
        # essential one goes whole.
        rep, sent = make_reporter(level=1)
        keys, datas = [b"a", b"b", b"c"], [b"\x00" * 4] * 3
        assert rep.send_batch(ReportBatch.key_writes(keys, datas)) == 0
        assert rep.send_batch(ReportBatch.key_writes(
            keys, datas, essential=True)) == 3
        assert len(sent) == 3 and len(rep.backup) == 3

    def test_counters_track_marks(self):
        rep, sent = make_reporter(level=1)
        for i in range(100):
            rep.key_write(bytes([i]), b"\x00" * 4, essential=i % 4 == 0)
        assert rep.stats.shed_by_congestion + len(sent) == 100
        assert rep.stats.essential_sent == len(sent) == 25

    def test_idle_refills_buckets(self):
        rep, sent = make_reporter(level=2)
        assert not rep.key_write(b"k", b"\x00" * 4)
        rep.relax()
        assert rep.congestion_level == 0
        assert rep.key_write(b"k", b"\x00" * 4) and len(sent) == 1


class TestEdgeCases:
    def test_zero_rate_meter_drains_burst_then_goes_red(self):
        """Once signalled, a reporter sheds until it is relaxed, however
        long it keeps sending."""
        rep, sent = make_reporter(level=3)
        assert not any(rep.key_write(i.to_bytes(2, "big"), b"\x00" * 4)
                       for i in range(1000))
        assert sent == [] and rep.stats.shed_by_congestion == 1000

    def test_burst_exactly_at_capacity_is_green(self):
        """The widest level the one-byte field holds round-trips."""
        assert packets.decode_report(_signal(255))[1].level == 255

    def test_oversized_packet_red_even_on_full_buckets(self):
        """An essential report is never shed, at any level."""
        rep, sent = make_reporter(level=255)
        assert rep.key_write(b"k", b"\x00" * 4, essential=True)
        assert len(sent) == 1 and rep.backup.get(0) == sent[0]

    def test_stats_and_legacy_marked_view_agree(self):
        """A signal delivered as a control frame raises the level once
        (one ``congestion_raised`` event), and the registry counter
        agrees with the stats view."""
        rep, _sent = make_reporter()
        for _ in range(2):
            rep.receive(CtrlFrame(src="translator", raw=_signal(2)))
        for i in range(5):
            rep.key_write(bytes([i]), b"\x00" * 4)
        reg = obs.get_registry()
        assert rep.congestion_level == 2
        assert [e.event for e in reg.events] == ["congestion_raised"]
        assert reg.snapshot().value("reporter.shed_by_congestion",
                                    node="r") == 5
        assert rep.stats.shed_by_congestion == 5

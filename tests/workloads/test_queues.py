"""Bursty queue process: shape, determinism, detector integration."""

import pytest

from repro.core import packets
from repro.core.reporter import Reporter
from tests.table2.events import MicroburstDetector
from tests.table2.queues import BurstyQueueProcess


class TestQueueProcess:
    def test_deterministic(self):
        a = list(BurstyQueueProcess(seed=4).samples(500))
        b = list(BurstyQueueProcess(seed=4).samples(500))
        assert a == b

    def test_mostly_idle(self):
        """Microburst regime: queues are near-empty most of the time."""
        process = BurstyQueueProcess(seed=5)
        fraction = process.burst_fraction(20_000, threshold=100)
        assert 0.0 < fraction < 0.4

    def test_bursts_actually_spike(self):
        process = BurstyQueueProcess(seed=6)
        peak = max(s.depth for s in process.samples(20_000))
        assert peak > 500

    def test_depth_never_negative(self):
        process = BurstyQueueProcess(seed=7)
        assert all(s.depth >= 0 for s in process.samples(5000))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BurstyQueueProcess(burst_arrival_per_us=5.0,
                               service_per_us=10.0)
        with pytest.raises(ValueError):
            BurstyQueueProcess(idle_arrival_per_us=20.0,
                               service_per_us=10.0)

    def test_timestamps_sequential(self):
        samples = list(BurstyQueueProcess(seed=8).samples(100))
        assert [s.time_us for s in samples] == list(range(100))


class TestDetectorIntegration:
    def test_detector_finds_bursts_in_generated_series(self):
        sent = []
        reporter = Reporter("sw", 1,
                            transmit=lambda raw: sent.append(
                                packets.decode_report(raw)))
        detector = MicroburstDetector(reporter, threshold=200)
        process = BurstyQueueProcess(seed=9)
        for sample in process.samples(20_000):
            detector.sample(0, sample.depth, sample.time_us)
        detector.flush(20_000)
        assert detector.bursts_reported > 3
        # Each burst produced exactly one Append report.
        assert len(sent) == detector.bursts_reported

    def test_calm_process_triggers_nothing(self):
        reporter = Reporter("sw", 1, transmit=lambda raw: None)
        detector = MicroburstDetector(reporter, threshold=10_000)
        process = BurstyQueueProcess(seed=10, burst_arrival_per_us=12.0)
        for sample in process.samples(5000):
            detector.sample(0, sample.depth, sample.time_us)
        assert detector.bursts_reported == 0

"""Trajectory Sampling over Postcarding."""

import pytest

from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from tests.table2.trajectory import (
    TrajectorySwitch,
    consistent_sample,
    trajectory_of,
)


class TestConsistentSampling:
    def test_decision_is_deterministic(self):
        digest = b"packet-digest"
        assert consistent_sample(digest, 4) == \
            consistent_sample(digest, 4)

    def test_rate_roughly_2_to_minus_bits(self):
        sampled = sum(consistent_sample(bytes([i & 0xFF, i >> 8]), 3)
                      for i in range(4000))
        assert 0.09 < sampled / 4000 < 0.16

    def test_zero_bits_samples_everything(self):
        assert all(consistent_sample(bytes([i]), 0) for i in range(16))

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            consistent_sample(b"x", 30)


class TestTrajectoryCollection:
    def deploy(self, hops=5):
        col = Collector()
        col.serve_postcarding(chunks=1 << 12,
                              value_set=range(1000), hops=hops,
                              cache_slots=1 << 10)
        tr = Translator()
        col.connect_translator(tr)
        rep = Reporter("sw", 1, transmit=tr.handle_report)
        return col, rep

    def test_every_hop_sampled_or_none(self):
        """The whole point: a packet is sampled at all hops or nowhere,
        so trajectories are never partial for sampling reasons."""
        col, rep = self.deploy()
        switches = [TrajectorySwitch(rep, hop=h, label=100 + h,
                                     sample_bits=2) for h in range(5)]
        decisions = {}
        for i in range(200):
            digest = f"pkt-{i}".encode()
            results = {s.process(digest, path_length=5)
                       for s in switches}
            assert len(results) == 1  # unanimous
            decisions[digest] = results.pop()
        assert any(decisions.values()) and not all(decisions.values())

    def test_sampled_trajectory_recoverable(self):
        col, rep = self.deploy()
        switches = [TrajectorySwitch(rep, hop=h, label=500 + h,
                                     sample_bits=2) for h in range(5)]
        recovered = 0
        sampled = 0
        for i in range(300):
            digest = f"flow-{i}".encode()
            if switches[0].process(digest, path_length=5):
                for s in switches[1:]:
                    s.process(digest, path_length=5)
                sampled += 1
                if trajectory_of(col, digest) == [500, 501, 502, 503,
                                                  504]:
                    recovered += 1
        assert sampled > 0
        assert recovered >= sampled * 0.95

    def test_unsampled_packet_not_in_store(self):
        col, rep = self.deploy()
        switch = TrajectorySwitch(rep, hop=0, label=7, sample_bits=8)
        unsampled = next(
            f"p{i}".encode() for i in range(1000)
            if not consistent_sample(f"p{i}".encode(), 8))
        switch.process(unsampled, path_length=1)
        assert trajectory_of(col, unsampled) is None

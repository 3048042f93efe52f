"""PINT sampling: rate, derived redundancy, determinism."""

import pytest

from repro.core import packets
from repro.core.reporter import Reporter
from tests.table2.pint import PintSampler


@pytest.fixture
def capture():
    sent = []
    reporter = Reporter("sw", 5,
                        transmit=lambda raw: sent.append(
                            packets.decode_report(raw)))
    return reporter, sent


class TestSampling:
    def test_sampling_rate_roughly_2_to_minus_bits(self, capture):
        reporter, sent = capture
        sampler = PintSampler(reporter, sample_bits=3)  # rate 1/8
        for pid in range(4000):
            sampler.process(b"K" * 13, pid, value=pid & 0xFF)
        rate = sampler.sampled / 4000
        assert 0.09 <= rate <= 0.16

    def test_sample_bits_zero_reports_everything(self, capture):
        reporter, sent = capture
        sampler = PintSampler(reporter, sample_bits=0)
        for pid in range(50):
            sampler.process(b"K" * 13, pid, value=1)
        assert sampler.sampled == 50

    def test_decision_deterministic(self, capture):
        reporter, _ = capture
        sampler = PintSampler(reporter, sample_bits=4)
        a = [sampler.process(b"K" * 13, pid, 0) for pid in range(100)]
        sampler2 = PintSampler(reporter, sample_bits=4)
        b = [sampler2.process(b"K" * 13, pid, 0) for pid in range(100)]
        assert a == b

    def test_redundancy_derived_from_packet_id(self, capture):
        reporter, sent = capture
        sampler = PintSampler(reporter, sample_bits=0, max_redundancy=4)
        for pid in range(32):
            sampler.process(b"K" * 13, pid, value=1)
        redundancies = {op.redundancy for _, op in sent}
        assert redundancies <= {1, 2, 3, 4}
        assert len(redundancies) > 1  # actually varies
        # And it is recomputable: the collector can derive it too.
        assert sampler.derived_redundancy(5) == \
            PintSampler(reporter).derived_redundancy(5)

    def test_one_byte_reports(self, capture):
        reporter, sent = capture
        sampler = PintSampler(reporter, sample_bits=0)
        sampler.process(b"K" * 13, 0, value=300)  # masked to 1 byte
        (_, op), = sent
        assert len(op.data) == 1
        assert op.data[0] == 300 & 0xFF

    def test_parameter_validation(self, capture):
        reporter, _ = capture
        with pytest.raises(ValueError):
            PintSampler(reporter, sample_bits=20)
        with pytest.raises(ValueError):
            PintSampler(reporter, max_redundancy=0)

"""NIC model: dispatch, cost accounting, QP-count degradation."""

import math

import pytest

from repro import calibration
from repro.calibration import NicModel
from repro.rdma import roce
from repro.rdma.nic import Nic, modelled_collection_rate
from repro.rdma.qp import QpState
from repro.rdma.verbs import Opcode, WorkRequest


def connect_pair(nic):
    """Server QP on `nic` plus a requester QP on a scratch NIC."""
    client_nic = Nic("client")
    server = nic.create_qp()
    client = client_nic.create_qp()
    nic.connect_qp(server, client.qpn)
    client_nic.connect_qp(client, server.qpn)
    return client, server


class TestDispatch:
    def test_write_executes_against_memory(self):
        nic = Nic()
        region = nic.register_memory(64)
        client, _server = connect_pair(nic)
        raw = client.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=region.addr,
            rkey=region.rkey, data=b"42"))
        ack = nic.receive(raw)
        assert roce.decode(ack).syndrome == 0
        assert region.local_read(0, 2) == b"42"

    def test_unknown_qp_dropped(self):
        nic = Nic()
        raw = roce.encode_request(Opcode.WRITE, dest_qp=0xBEEF, psn=0,
                                  remote_addr=0, rkey=0, payload=b"")
        assert nic.receive(raw) is None
        assert nic.stats.drops == 1

    def test_garbage_dropped(self):
        nic = Nic()
        assert nic.receive(b"\x01") is None
        assert nic.stats.drops == 1

    def test_active_qps_counts_connected_only(self):
        nic = Nic()
        nic.create_qp()  # stays in RESET
        _client, server = connect_pair(nic)
        assert server.state == QpState.RTS
        assert nic.active_qps == 1


class TestCostModel:
    def test_small_write_rate_near_105M(self):
        model = NicModel()
        rate = model.message_rate(0)
        assert rate == pytest.approx(1e9 / calibration.NIC_T_MSG_NS)
        assert 100e6 < rate < 110e6

    def test_rate_decreases_with_payload(self):
        model = NicModel()
        assert model.message_rate(4) > model.message_rate(64) \
            > model.message_rate(1024)

    def test_atomic_penalty_applied(self):
        model = NicModel()
        assert model.message_rate(8, atomic=True) == pytest.approx(
            model.message_rate(8) / calibration.NIC_FETCH_ADD_PENALTY)

    def test_qp_degradation_identity_within_cache(self):
        model = NicModel()
        assert model.qp_degradation(1) == 1.0
        assert model.qp_degradation(calibration.NIC_QP_CACHE_SIZE) == 1.0

    def test_qp_degradation_saturates_at_5x(self):
        model = NicModel()
        assert model.qp_degradation(
            calibration.NIC_QP_DEGRADATION_SCALE) == pytest.approx(
            calibration.NIC_QP_MAX_DEGRADATION)
        assert model.qp_degradation(10_000) == pytest.approx(
            calibration.NIC_QP_MAX_DEGRADATION)

    def test_qp_degradation_monotone(self):
        model = NicModel()
        values = [model.qp_degradation(n) for n in (1, 32, 64, 128, 256, 512)]
        assert values == sorted(values)

    def test_stats_accumulate_busy_time(self):
        nic = Nic()
        region = nic.register_memory(64)
        client, _server = connect_pair(nic)
        for _ in range(10):
            raw = client.post_send(WorkRequest(
                opcode=Opcode.WRITE, remote_addr=region.addr,
                rkey=region.rkey, data=b"\x00" * 8))
            nic.receive(raw)
        assert nic.stats.messages == 10
        assert nic.stats.payload_bytes == 80
        expected_ns = 10 * (calibration.NIC_T_MSG_NS
                            + 8 * calibration.NIC_T_BYTE_NS)
        assert nic.stats.busy_ns == pytest.approx(expected_ns)
        assert nic.stats.message_rate() == pytest.approx(
            10e9 / expected_ns)

    @pytest.mark.parametrize("payload,atomic,active_qps",
                             [(0, False, 1), (20, False, 40), (0, True, 40)])
    def test_charge_of_count_equals_count_charges_of_one(
            self, payload, atomic, active_qps):
        one_by_one, at_once = Nic(), Nic()
        degradation = at_once.model.qp_degradation(active_qps)
        assert (degradation > 1.0) == (active_qps > 1)
        for count in (1, 7, 100_000):
            for _ in range(count):
                one_by_one.charge(1, payload, atomic=atomic,
                                  degradation=degradation)
            at_once.charge(count, payload, atomic=atomic,
                           degradation=degradation)
            assert at_once.stats == one_by_one.stats

    def test_charge_cost_does_not_grow_with_count(self):
        nic = Nic()
        nic.charge(10 ** 15, 8)             # a per-message loop never ends
        assert nic.stats.messages == 10 ** 15
        assert nic.stats.busy_fs == 10 ** 15 * 10_224_000
        assert nic.stats.message_rate() == pytest.approx(1e9 / 10.224)

    def test_goodput_matches_payload(self):
        nic = Nic()
        nic.stats.payload_bytes = 1000
        nic.stats.busy_ns = 100.0
        assert nic.stats.goodput_gbps() == pytest.approx(80.0)


class TestCollectionRateHelper:
    def test_keywrite_headline(self):
        """KW N=1 with 4B INT reports lands at ~100M reports/s (Fig. 8)."""
        rate = modelled_collection_rate(8, 1, writes_per_report=1)
        assert 90e6 < rate < 110e6

    def test_redundancy_divides_rate(self):
        n1 = modelled_collection_rate(8, 1, writes_per_report=1)
        n4 = modelled_collection_rate(8, 1, writes_per_report=4)
        assert n4 == pytest.approx(n1 / 4)

    def test_batching_multiplies_rate(self):
        """Append batch-16 crosses 1B reports/s (Fig. 11 headline)."""
        rate = modelled_collection_rate(16 * 4, 16)
        assert rate > 1e9

    def test_many_qps_slower_than_one(self):
        one = modelled_collection_rate(8, 1, active_qps=1)
        many = modelled_collection_rate(8, 1, active_qps=512)
        assert one / many == pytest.approx(
            calibration.NIC_QP_MAX_DEGRADATION)

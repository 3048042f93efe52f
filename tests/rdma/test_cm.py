"""RDMA_CM: service adverts, the collector handshake, rejection."""

import pytest

from repro.core.collector import Collector
from repro.core.packets import DtaPrimitive, KeyWrite, make_report
from repro.core.translator import Translator
from repro.rdma.cm import CmListener, ServiceAdvert
from repro.rdma.nic import Nic
from repro.rdma.qp import QpState


@pytest.fixture
def listener():
    return CmListener(Nic("collector"))


def advert(primitive="key_write"):
    return ServiceAdvert(primitive=primitive, addr=0x1000, rkey=0xAA,
                         length=4096, params={"slots": 64})


class TestListen:
    def test_listen_registers_port(self, listener):
        listener.listen(9910, advert())
        assert 9910 in listener.ports()

    def test_double_bind_rejected(self, listener):
        listener.listen(9910, advert())
        with pytest.raises(ValueError):
            listener.listen(9910, advert("append"))

    def test_ports_returns_copy(self, listener):
        listener.listen(9910, advert())
        ports = listener.ports()
        ports.clear()
        assert 9910 in listener.ports()


class TestConnect:
    """The handshake the system runs: ``Collector.connect_translator``
    wires one collector QP per translator and hands it every advert."""

    @staticmethod
    def connect(col=None, fabric=True):
        if col is None:
            col = Collector()
            col.serve_keywrite(slots=64, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr, fabric=fabric)
        return col, tr, col.nic.qps[tr.client.qp.dest_qpn], tr.client.qp

    def test_handshake_brings_both_qps_to_rts(self):
        _col, _tr, server_qp, client_qp = self.connect()
        assert client_qp.state == server_qp.state == QpState.RTS

    def test_qps_point_at_each_other(self):
        _col, _tr, server_qp, client_qp = self.connect()
        assert client_qp.dest_qpn == server_qp.qpn
        assert server_qp.dest_qpn == client_qp.qpn

    def test_psns_are_complementary(self):
        _col, _tr, server_qp, client_qp = self.connect(fabric=False)
        assert client_qp.send_psn == server_qp.expected_psn
        assert server_qp.send_psn == client_qp.expected_psn

    def test_advert_returned_to_client(self):
        col, tr, _server_qp, _client_qp = self.connect()
        advert, = col.cm.ports().values()
        assert advert.params == {"slots": 64, "data_bytes": 4}
        assert tr.check(DtaPrimitive.KEY_WRITE, ([b"k"], [b"\x00" * 4]),
                        1) is None

    def test_unknown_port_refused(self):
        # A service the collector does not advertise is not installed.
        col = Collector()
        _col, tr, _server_qp, _client_qp = self.connect(col)
        with pytest.raises(RuntimeError, match="not configured"):
            tr.handle_report(make_report(KeyWrite(key=b"k",
                                                  data=b"\x00" * 4)))

    def test_connections_tracked(self):
        col, _tr, first, _client_qp = self.connect()
        _col, _tr, second, _client_qp = self.connect(col)
        assert first is not second
        assert set(col.nic.qps) == {first.qpn, second.qpn}

"""Collector: provisioning, adverts, query surface."""

import pytest

from repro.core.collector import Collector
from repro.core.packets import DtaPrimitive
from repro.core.translator import Translator


class TestProvisioning:
    def test_each_service_gets_distinct_port(self):
        col = Collector()
        col.serve_keywrite(slots=64, data_bytes=4)
        col.serve_append(lists=1, capacity=8, data_bytes=4)
        assert len(col.cm.ports()) == 2

    def test_advert_carries_layout_params(self):
        col = Collector()
        advert = col.serve_keywrite(slots=128, data_bytes=20)
        assert advert.params == {"slots": 128, "data_bytes": 20}
        assert advert.length == 128 * 24

    def test_region_registered_on_nic(self):
        col = Collector()
        advert = col.serve_append(lists=2, capacity=8, data_bytes=4)
        region = col.nic.pd.lookup(advert.rkey)
        assert region.length == advert.length

    def test_unprovisioned_queries_raise(self):
        col = Collector()
        with pytest.raises(RuntimeError):
            col.query_value(b"k")
        with pytest.raises(RuntimeError):
            col.query_path(b"k")
        with pytest.raises(RuntimeError):
            col.query_counter(b"k")
        with pytest.raises(RuntimeError):
            col.list_poller(0)

    def test_duplicate_port_rejected(self):
        col = Collector()
        col.serve_keywrite(slots=64, data_bytes=4)
        with pytest.raises(ValueError):
            col.serve_keywrite(slots=64, data_bytes=4, port=9910)

    def test_same_primitive_twice_on_distinct_ports(self):
        col = Collector()
        col.serve_append(lists=1, capacity=8, data_bytes=4, port=9001)
        col.serve_append(lists=1, capacity=8, data_bytes=18, port=9002)
        assert len(col.cm.ports()) == 2


class TestConnection:
    def test_connect_configures_all_services(self):
        col = Collector()
        col.serve_keywrite(slots=64, data_bytes=4)
        col.serve_append(lists=1, capacity=8, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr)
        assert DtaPrimitive.KEY_WRITE in tr._lanes
        assert DtaPrimitive.APPEND in tr._lanes

    def test_single_qp_for_all_services(self):
        """Section 3.1(2): the translator is one RDMA writer."""
        col = Collector()
        col.serve_keywrite(slots=64, data_bytes=4)
        col.serve_append(lists=1, capacity=8, data_bytes=4)
        col.serve_keyincrement(slots_per_row=64, rows=2)
        tr = Translator()
        col.connect_translator(tr)
        assert col.nic.active_qps == 1

    def test_translator_layout_matches_collector(self):
        col = Collector()
        col.serve_keywrite(slots=512, data_bytes=4)
        tr = Translator()
        col.connect_translator(tr)
        assert tr._lanes[DtaPrimitive.KEY_WRITE].layout.slots == col.keywrite.layout.slots
        assert tr._lanes[DtaPrimitive.KEY_WRITE].layout.base_addr == col.keywrite.layout.base_addr

    def test_unknown_advert_primitive_rejected(self):
        from repro.rdma.cm import ServiceAdvert

        tr = Translator()
        with pytest.raises(ValueError):
            tr.configure(ServiceAdvert(primitive="nonsense", addr=0,
                                       rkey=0, length=0))

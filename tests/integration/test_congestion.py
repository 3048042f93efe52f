"""Congestion control end to end: signal over the fabric -> shedding.

The translator keeps no ingress meter; a congestion signal is a
control frame on the reporter's link, and these tests hold what the
reporter does with it in a fabric-mode star.
"""

import struct

from repro.core import packets
from repro.core.collector import Collector
from repro.core.packets import CongestionSignal
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.core.transport import CtrlFrame
from repro.fabric.topology import Topology


def congested_star():
    collector = Collector()
    collector.serve_keywrite(slots=8192, data_bytes=4)
    translator = Translator()
    reporter = Reporter("r0", 0, translator="translator")
    topo = Topology.dta_star([reporter], translator, collector)
    collector.connect_translator(translator, fabric=True)
    return topo, collector, translator, reporter


def signal(topo, translator, reporter, level: int = 2) -> None:
    """The translator's node sends ``reporter`` a congestion signal."""
    raw = packets.make_report(CongestionSignal(level=level),
                              reporter_id=reporter.reporter_id)
    translator.send(reporter.name, CtrlFrame(src=translator.name, raw=raw),
                    len(raw) + 42)
    topo.sim.run()


def _send(reporter, keys) -> None:
    for i in keys:
        reporter.key_write(struct.pack(">I", i), b"\x00\x00\x00\x01",
                           redundancy=1)


class TestCongestionSignalling:
    def test_overload_triggers_signal_and_shedding(self):
        topo, collector, translator, reporter = congested_star()
        _send(reporter, range(100))
        topo.sim.run()
        signal(topo, translator, reporter)
        _send(reporter, range(100, 200))
        topo.sim.run()
        assert reporter.congestion_level == 2
        assert reporter.stats.shed_by_congestion == 100
        assert translator.stats.reports_in == 100
        assert collector.query_value(struct.pack(">I", 99),
                                     redundancy=1).found

    def test_essential_survives_congestion(self):
        topo, collector, translator, reporter = congested_star()
        signal(topo, translator, reporter)
        assert reporter.key_write(b"critical", b"\x00\x00\x00\x07",
                                  redundancy=1, essential=True)
        topo.sim.run()
        assert collector.query_value(b"critical", redundancy=1).found

    def test_relax_restores_flow(self):
        topo, collector, translator, reporter = congested_star()
        signal(topo, translator, reporter)
        assert reporter.congestion_level > 0
        reporter.relax()
        assert reporter.key_write(b"after-relax", b"\x00\x00\x00\x01",
                                  redundancy=1)
        topo.sim.run()
        assert collector.query_value(b"after-relax", redundancy=1).found

    def test_no_signals_under_modest_load(self):
        topo, collector, translator, reporter = congested_star()
        _send(reporter, range(100))
        topo.sim.run()
        assert reporter.congestion_level == 0
        assert reporter.stats.shed_by_congestion == 0
        assert translator.stats.reports_in == 100

"""FaultInjector: resolution, scheduling, and per-kind dispatch."""

import pytest

from repro.core.collector import Collector
from repro.core.translator import Translator
from repro.fabric.link import Link
from repro.fabric.simulator import Simulator
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.rdma.nic import Nic
from repro.rdma.qp import QpState


def make_link(sim, loss=0.0, seed=1, name="a->b"):
    return Link(sim, deliver=lambda pkt: None, loss=loss, seed=seed,
                name=name)


class TestResolution:
    def test_unknown_target_fails_eagerly_with_inventory(self):
        sim = Simulator()
        plan = FaultPlan([FaultEvent(at=0.0, kind="link_loss",
                                     target="no-such-link")])
        injector = FaultInjector(plan, sim=sim,
                                 links={"a->b": make_link(sim)})
        with pytest.raises(KeyError, match="a->b"):
            injector.arm()

    def test_arm_without_sim_rejected(self):
        plan = FaultPlan([])
        with pytest.raises(RuntimeError):
            FaultInjector(plan).arm()

    def test_arm_schedules_inject_and_recover(self):
        sim = Simulator()
        plan = FaultPlan([
            FaultEvent(at=1e-3, kind="link_loss", target="a->b",
                       duration=1e-3),                  # inject + recover
            FaultEvent(at=2e-3, kind="translator_crash", target="t"),
        ])
        injector = FaultInjector(plan, sim=sim,
                                 links={"a->b": make_link(sim)},
                                 translators={"t": Translator("t")})
        assert injector.arm() == 3


class TestDispatch:
    def test_link_loss_window(self):
        sim = Simulator()
        link = make_link(sim)
        ev = FaultEvent(at=0.0, kind="link_loss", target="a->b",
                        duration=1.0, severity=0.25)
        injector = FaultInjector(FaultPlan([ev]), links={"a->b": link})
        injector.inject(ev)
        assert link._fault_loss == 0.25
        injector.recover(ev)
        assert link._fault_loss is None
        assert injector.stats.injected == 1
        assert injector.stats.recovered == 1

    def test_translator_crash_and_restart(self):
        tr = Translator("t")
        ev = FaultEvent(at=0.0, kind="translator_crash", target="t",
                        duration=1.0)
        injector = FaultInjector(FaultPlan([ev]), translators={"t": tr})
        injector.inject(ev)
        assert tr.crashed
        injector.recover(ev)
        assert not tr.crashed

    def test_nic_stall_and_resume(self):
        nic = Nic("n")
        ev = FaultEvent(at=0.0, kind="nic_stall", target="n", duration=1.0)
        injector = FaultInjector(FaultPlan([ev]), nics={"n": nic})
        injector.inject(ev)
        assert nic.stalled
        injector.recover(ev)
        assert not nic.stalled

    def test_mr_invalidate_round_trips_access(self):
        col = Collector()
        col.serve_keywrite(slots=128, data_bytes=4)
        region = col.keywrite.region
        before = region.access
        ev = FaultEvent(at=0.0, kind="mr_invalidate", target="kw",
                        duration=1.0)
        injector = FaultInjector(FaultPlan([ev]), regions={"kw": region})
        injector.inject(ev)
        assert region.access != before
        injector.recover(ev)
        assert region.access == before

    def test_poison_write_errors_the_qp(self):
        col = Collector()
        col.serve_keywrite(slots=128, data_bytes=4)
        tr = Translator("t")
        col.connect_translator(tr)
        ev = FaultEvent(at=0.0, kind="poison_write", target="t")
        injector = FaultInjector(FaultPlan([ev]), translators={"t": tr})
        injector.inject(ev)
        assert tr.client.qp.state == QpState.ERROR
        # The poison was captured for (budgeted) replay, like any
        # other fatally-NAKed request.
        assert len(tr.client.qp.failed_wrs) == 1

    def test_poison_write_needs_a_connection(self):
        ev = FaultEvent(at=0.0, kind="poison_write", target="t")
        injector = FaultInjector(FaultPlan([ev]),
                                 translators={"t": Translator("t")})
        with pytest.raises(RuntimeError, match="no RDMA connection"):
            injector.inject(ev)


class TestForStar:
    def test_star_wiring_resolves_all_names(self):
        from repro.core.reporter import Reporter
        from repro.faults import default_plan, ha_star

        collector = Collector()
        collector.serve_keywrite(slots=128, data_bytes=4)
        primary = Translator("translator")
        standby = Translator("standby")
        reporters = [Reporter(f"r{i}", i, translator="translator")
                     for i in range(2)]
        topo = ha_star(reporters, primary, standby, collector)
        collector.connect_translator(primary, fabric=True)
        injector = FaultInjector.for_star(default_plan(), topo, collector,
                                          [primary, standby])
        assert injector.arm() > 0
        assert "r0->translator" in injector.links
        assert "key_write" in injector.regions

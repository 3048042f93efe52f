"""End-to-end metric conservation under injected link loss.

Every counter in the hot path publishes through :mod:`repro.obs`, so
the whole pipeline can be audited like a ledger: nothing is created or
destroyed, only moved between named counters.  These tests drive
essential Key-Write/Append traffic over 0%/1%/10%-lossy reporter links
and assert the books balance *exactly* — any double-count or missed
count anywhere in reporter, link, loss detector, backup, translator,
or NIC breaks one of these balances.
"""

import struct

import pytest

from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.fabric.topology import Topology

LOSSES = (0.0, 0.01, 0.10)

R_T = {"link": "r0->translator"}      # reporter -> translator
T_R = {"link": "translator->r0"}      # NACK return path
T_C = {"link": "translator->collector"}


def star(loss, seed=0):
    """One reporter, lossy both ways; lossless translator-collector."""
    collector = Collector()
    collector.serve_append(lists=2, capacity=8192, data_bytes=4,
                           batch_size=1)
    translator = Translator()
    reporter = Reporter("r0", 0, translator="translator")
    topo = Topology.dta_star([reporter], translator, collector,
                             reporter_loss=loss, seed=seed)
    collector.connect_translator(translator, fabric=True)
    return topo, collector, translator, reporter


def drive(topo, reporter, total=400):
    """Essential appends with the fabric draining along the way."""
    for i in range(total):
        reporter.append(0, struct.pack(">I", i), essential=True)
        if i % 25 == 24:
            topo.sim.run()
    topo.sim.run()


class TestLinkConservation:
    @pytest.mark.parametrize("loss", LOSSES)
    def test_every_link_accounts_for_every_packet(self, obs_probe, loss):
        with obs_probe as p:
            topo, _, _, reporter = star(loss, seed=12)
            drive(topo, reporter)
        for link in ("r0->translator", "translator->r0",
                     "translator->collector", "collector->translator"):
            labels = {"link": link}
            p.assert_balance(("link.sent", labels),
                             ("link.delivered", labels),
                             ("link.random_drops", labels),
                             ("link.queue_drops", labels),
                             msg=f"link {link} leaked packets")


class TestReporterTranslatorLedger:
    @pytest.mark.parametrize("loss", LOSSES)
    def test_injected_equals_sent_plus_retransmitted(self, obs_probe,
                                                     loss):
        """Everything on the wire left through exactly one counter."""
        with obs_probe as p:
            topo, _, _, reporter = star(loss, seed=12)
            drive(topo, reporter)
        p.assert_balance(("link.sent", R_T),
                         "reporter.reports_sent",
                         "reporter.retransmitted")

    @pytest.mark.parametrize("loss", LOSSES)
    def test_translator_counts_exactly_what_arrives(self, obs_probe,
                                                    loss):
        with obs_probe as p:
            topo, _, _, reporter = star(loss, seed=3)
            drive(topo, reporter)
        p.assert_balance("translator.reports_in",
                         ("link.delivered", R_T))
        # All-essential workload: every arrival is sequence-checked.
        p.assert_balance("loss_detector.reports_checked",
                         "translator.reports_in")


class TestNackLoopLedger:
    @pytest.mark.parametrize("loss", LOSSES)
    def test_nacks_balance_across_the_return_path(self, obs_probe, loss):
        with obs_probe as p:
            topo, _, _, reporter = star(loss, seed=7)
            drive(topo, reporter)
        # Detector and translator agree; the return link carries only
        # NACKs in this workload (no congestion at these rates).
        p.assert_balance("translator.nacks_sent",
                         "loss_detector.nacks_sent")
        p.assert_balance(("link.sent", T_R), "translator.nacks_sent")
        # Sent NACKs either arrived or the (lossy) return link ate them.
        p.assert_balance("loss_detector.nacks_sent",
                         "reporter.nacks_received",
                         ("link.random_drops", T_R),
                         ("link.queue_drops", T_R))

    @pytest.mark.parametrize("loss", LOSSES)
    def test_retransmission_ledger(self, obs_probe, loss):
        """NACK coverage splits exactly into re-sent vs lost forever."""
        with obs_probe as p:
            topo, _, _, reporter = star(loss, seed=7)
            drive(topo, reporter)
        p.assert_balance("reporter.retransmitted", "backup.retransmitted")
        p.assert_balance("reporter.lost_forever", "backup.unavailable")
        # The detector never accepts more recoveries than were re-sent.
        accepted = (p["loss_detector.retransmits_accepted"]
                    + p["loss_detector.duplicate_retransmits"])
        assert accepted <= p["reporter.retransmitted"]


class TestCollectorSideLedger:
    @pytest.mark.parametrize("loss", LOSSES)
    def test_store_matches_translator_appends(self, obs_probe, loss):
        """The lossless last hop: every append lands in the store."""
        with obs_probe as p:
            topo, collector, translator, reporter = star(loss, seed=5)
            drive(topo, reporter)
            translator.flush_appends()
            topo.sim.run()
            entries = len(collector.list_poller(0).poll())
        assert entries == p["translator.appends"]
        # batch_size=1: one RDMA batch per append.
        p.assert_balance("translator.append_batches",
                         "translator.appends")
        # Collector NIC saw exactly the translator's RDMA traffic.
        p.assert_balance("nic.messages",
                         "translator.rdma_writes",
                         "translator.rdma_atomics")

    def test_lossless_run_is_silent_and_complete(self, obs_probe):
        with obs_probe as p:
            topo, collector, translator, reporter = star(0.0)
            drive(topo, reporter)
            translator.flush_appends()
            topo.sim.run()
            entries = len(collector.list_poller(0).poll())
        for name in ("link.random_drops", "link.queue_drops",
                     "loss_detector.losses_detected",
                     "loss_detector.nacks_sent",
                     "reporter.retransmitted", "reporter.lost_forever",
                     "reporter.duplicate_nacks",
                     "loss_detector.duplicate_retransmits"):
            assert p.delta(name) == 0, name
        p.assert_balance("reporter.essential_sent", entries)

"""Confluo-like baseline: log + filters, Fig. 2 breakdown, rates."""

import struct

import pytest

from repro import calibration
from repro.baselines.confluo import ConfluoCollector


def report(key: int, value: int) -> bytes:
    return struct.pack(">II", key, value)


class TestIngestion:
    def test_records_queryable_by_key(self):
        col = ConfluoCollector()
        col.ingest(report(1, 100))
        col.ingest(report(1, 200))
        col.ingest(report(2, 300))
        assert [col.log[i][1] for i in col.index[struct.pack(">I", 1)]] \
            == [struct.pack(">I", 100), struct.pack(">I", 200)]

    def test_latest_returns_most_recent(self):
        col = ConfluoCollector()
        col.ingest(report(5, 1))
        col.ingest(report(5, 2))
        assert col.latest(struct.pack(">I", 5)) == struct.pack(">I", 2)
        assert col.latest(b"\x00\x00\x00\x63") is None

    def test_log_preserves_arrival_order(self):
        col = ConfluoCollector()
        for value in (9, 8, 7):
            col.ingest(report(1, value))
        values = [struct.unpack(">I", v)[0] for _, v, _ in col.log]
        assert values == [9, 8, 7]

    def test_records_partitioned_across_filters(self):
        col = ConfluoCollector(filters=4)
        for key in range(16):
            col.ingest(report(key, 0))
        filter_ids = {fid for _, _, fid in col.log}
        assert filter_ids == {0, 1, 2, 3}

    def test_short_report_rejected(self):
        with pytest.raises(ValueError):
            ConfluoCollector().ingest(b"\x00" * 7)


class TestPerformanceModel:
    def test_calibrated_rate(self):
        col = ConfluoCollector()
        assert col.modelled_rate() == pytest.approx(
            calibration.CONFLUO_RATE_PER_16_CORES)

    def test_more_filters_slower(self):
        fast = ConfluoCollector(filters=64)
        slow = ConfluoCollector(filters=1024)
        assert slow.modelled_rate() < fast.modelled_rate()

    def test_fig2_breakdown_dominated_by_wrangle_and_store(self):
        """Fig. 2: wrangling+storing ~86%, ~11x the I/O cost."""
        col = ConfluoCollector()
        for i in range(100):
            col.ingest(report(i, i))
        b = col.modelled_breakdown()
        assert b["wrangling"] + b["storing"] == pytest.approx(0.86)
        assert (b["wrangling"] + b["storing"]) / b["io"] == pytest.approx(
            10.75, abs=0.1)

    def test_dta_headline_ratios_hold(self):
        """DTA KW 100M/s >= 13x Confluo; Append 1B/s ~ 133-143x."""
        from repro.rdma.nic import modelled_collection_rate

        confluo = ConfluoCollector().modelled_rate()
        kw = modelled_collection_rate(8, 1)
        append = modelled_collection_rate(64, 16)
        assert kw / confluo >= 13
        assert append / confluo >= 130

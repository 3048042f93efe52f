"""BTrDB-like baseline: streams, windowed aggregates, rates."""

import struct

from repro import calibration
from repro.baselines.btrdb import BtrdbCollector


def report(key: int, value: int) -> bytes:
    return struct.pack(">II", key, value)


class TestStreams:
    def test_series_in_arrival_order(self):
        col = BtrdbCollector()
        for value in (3, 1, 2):
            col.ingest(report(7, value))
        assert col.series(struct.pack(">I", 7)) == [3.0, 1.0, 2.0]

    def test_streams_independent(self):
        col = BtrdbCollector()
        col.ingest(report(1, 10))
        col.ingest(report(2, 20))
        assert col.series(struct.pack(">I", 1)) == [10.0]
        assert col.series(struct.pack(">I", 2)) == [20.0]


class TestAggregates:
    def test_leaf_window_statistics(self):
        col = BtrdbCollector(window=4)
        for value in (5, 1, 9, 3):
            col.ingest(report(1, value))
        agg = col.aggregates[struct.pack(">I", 1)][0][0]
        assert agg.count == 4
        assert agg.minimum == 1.0
        assert agg.maximum == 9.0
        assert agg.total == 18.0

    def test_windows_split_correctly(self):
        col = BtrdbCollector(window=2)
        for value in (1, 2, 3, 4):
            col.ingest(report(1, value))
        key = struct.pack(">I", 1)
        assert col.aggregates[key][0][0].total == 3.0
        assert col.aggregates[key][0][1].total == 7.0

    def test_higher_levels_aggregate_doubled_spans(self):
        col = BtrdbCollector(window=2, levels=2)
        for value in (1, 2, 3, 4):
            col.ingest(report(1, value))
        key = struct.pack(">I", 1)
        # Level 1 window covers 4 points.
        assert col.aggregates[key][1][0].count == 4
        assert col.aggregates[key][1][0].total == 10.0


class TestRates:
    def test_between_intcollector_and_confluo(self):
        from repro.baselines.confluo import ConfluoCollector
        from repro.baselines.intcollector import IntCollectorInflux

        btrdb = BtrdbCollector().modelled_rate()
        assert IntCollectorInflux().modelled_rate() < btrdb
        assert btrdb < ConfluoCollector().modelled_rate()

    def test_calibrated_rate(self):
        assert BtrdbCollector().modelled_rate() == \
            calibration.BTRDB_RATE_PER_16_CORES

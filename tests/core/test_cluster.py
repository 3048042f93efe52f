"""Multi-collector scale-out (Section 6): routing, queries, capacity."""

import struct

import pytest

from repro.core.cluster import ClusterMap, ClusterReporter, CollectorCluster


@pytest.fixture
def cluster():
    c = CollectorCluster(size=3)
    c.serve_on_all("serve_keywrite", slots=2048, data_bytes=4)
    c.serve_on_all("serve_append", lists=6, capacity=64, data_bytes=4,
                   batch_size=2)
    c.serve_on_all("serve_keyincrement", slots_per_row=256, rows=4)
    c.serve_on_all("serve_sketch", width=8, depth=2,
                   expected_reporters=1, batch_columns=4)
    c.connect()
    return c


class TestClusterMap:
    def test_key_routing_stable(self):
        m = ClusterMap(collectors=4)
        assert m.for_key(b"flow") == m.for_key(b"flow")

    def test_key_routing_spreads(self):
        m = ClusterMap(collectors=4)
        targets = {m.for_key(f"flow{i}".encode()) for i in range(100)}
        assert targets == {0, 1, 2, 3}

    def test_recomputable_by_independent_instances(self):
        """Queries must find data without coordination."""
        assert ClusterMap(3).for_key(b"x") == ClusterMap(3).for_key(b"x")

    def test_list_routing(self):
        m = ClusterMap(collectors=3)
        assert m.for_list(0) == 0
        assert m.for_list(4) == 1
        with pytest.raises(ValueError):
            m.for_list(-1)

    def test_sketch_home_fixed(self):
        m = ClusterMap(collectors=3, sketch_home=2)
        assert all(m.for_sketch(s) == 2 for s in range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterMap(collectors=0)
        with pytest.raises(ValueError):
            ClusterMap(collectors=2, sketch_home=5)


class TestClusterDataPath:
    def test_keywrites_land_and_route_back(self, cluster):
        reporter = cluster.reporter("tor", 1)
        keys = [f"flow-{i}".encode() for i in range(60)]
        for i, key in enumerate(keys):
            reporter.key_write(key, struct.pack(">I", i), redundancy=2)
        for i, key in enumerate(keys):
            result = cluster.query_value(key, redundancy=2)
            assert result.value == struct.pack(">I", i)

    def test_traffic_actually_spreads(self, cluster):
        reporter = cluster.reporter("tor", 1)
        for i in range(90):
            reporter.key_write(f"k{i}".encode(), b"\x00\x00\x00\x01",
                               redundancy=1)
        per_collector = [t.stats.keywrites for t in cluster.translators]
        assert all(count > 0 for count in per_collector)
        assert sum(per_collector) == 90

    def test_wrong_collector_does_not_hold_the_key(self, cluster):
        reporter = cluster.reporter("tor", 1)
        key = b"routed-key"
        reporter.key_write(key, b"\x00\x00\x00\x09", redundancy=2)
        home = cluster.map.for_key(key)
        other = (home + 1) % len(cluster)
        assert cluster.collectors[home].query_value(
            key, redundancy=2).found
        assert not cluster.collectors[other].query_value(
            key, redundancy=2).found

    def test_append_lists_stay_whole(self, cluster):
        reporter = cluster.reporter("tor", 1)
        for i in range(12):
            reporter.append(4, struct.pack(">I", i))
        cluster.flush_appends()
        entries = cluster.list_poller(4).poll()
        assert [struct.unpack(">I", e)[0] for e in entries] == \
            list(range(12))
        # Only the owning collector saw the traffic.
        owner = cluster.map.for_list(4)
        assert cluster.translators[owner].stats.appends == 12
        assert all(t.stats.appends == 0
                   for i, t in enumerate(cluster.translators)
                   if i != owner)

    def test_counters_aggregate_at_home_collector(self, cluster):
        reporter = cluster.reporter("tor", 1)
        for _ in range(5):
            reporter.key_increment(b"ctr", 2, redundancy=4)
        assert cluster.query_counter(b"ctr") == 10

    def test_sketch_traffic_converges(self, cluster):
        reporter = cluster.reporter("tor", 1)
        for column in range(8):
            reporter.sketch_column(0, column, (column, column))
        home = cluster.map.sketch_home
        assert cluster.translators[home].stats.sketch_columns == 8
        assert cluster.collectors[home].sketch.column(3) == (3, 3)

    def test_per_translator_sequence_streams(self, cluster):
        """Essential counters are per destination translator."""
        reporter = cluster.reporter("tor", 1)
        for i in range(30):
            reporter.key_write(f"e{i}".encode(), b"\x00\x00\x00\x01",
                               redundancy=1, essential=True)
        # Each sub-reporter numbered its own stream from 0; no NACKs.
        assert all(t.stats.nacks_sent == 0 for t in cluster.translators)
        seqs = [r._seq for r in reporter.reporters]
        assert sum(seqs) == 30

    def test_stats_aggregate(self, cluster):
        reporter = cluster.reporter("tor", 1)
        for i in range(9):
            reporter.key_write(f"s{i}".encode(), b"\x00\x00\x00\x01")
        assert reporter.stats.reports_sent == 9


class TestClusterScaling:
    def test_capacity_adds_linearly(self, cluster):
        single = CollectorCluster(size=1)
        assert cluster.aggregate_capacity(8) == pytest.approx(
            3 * single.aggregate_capacity(8))

    def test_reporter_requires_connection(self):
        c = CollectorCluster(size=2)
        with pytest.raises(RuntimeError):
            c.reporter("tor", 1)

    def test_reporter_transmit_arity_checked(self):
        with pytest.raises(ValueError):
            ClusterReporter("tor", 1, cluster_map=ClusterMap(2),
                            transmits=[lambda raw: None])
        with pytest.raises(ValueError):
            ClusterReporter("tor", 1, cluster_map=ClusterMap(2))

"""Parallel scale-out is a deterministic re-cut of the serial run.

Section 6 scales DTA out by adding collectors behind a stateless
routing rule (:class:`~repro.core.cluster.ClusterMap`).  These tests
pinned that contract on ``kernels.parallel.run_cluster`` until the
socket lane (:mod:`repro.transport.serve`) became the one fork-based
multi-collector driver; they now pin it there, test for test, which is
why the module keeps its place and its test ids:

* *serial* is the in-process reference — every shard's collector in
  one process, scalar translate (``run_reference``);
* *parallel* is N collector daemons and T translator daemons in
  processes of their own (``SocketLane``).

Per-shard store digests must be identical between the two, with 1, 2
and 4 collectors alike, vectorized or not, whatever the number of
translator processes.  The Sketch-Merge lane additionally pins the
all-to-one routing: the ``sketch_home`` store is byte-identical
regardless of cluster size.
"""

from __future__ import annotations

import functools

import pytest

pytest.importorskip("numpy")

from repro.core.cluster import ClusterMap
from repro.core.translator import Translator
from repro.runtime.engine import store_digest
from repro.transport.assembler import ReportAssembler
from repro.transport.serve import (ServeSpec, SocketLane, route_report,
                                   run_reference)
from repro.workloads import reports

REPORTS = 192
SEED = 9
SIZES = (1, 2, 4)


def spec_for(primitive: str, collectors: int, **overrides) -> ServeSpec:
    return ServeSpec(primitive=primitive, reports=REPORTS, seed=SEED,
                     batch_size=64, collectors=collectors, **overrides)


def _wire(primitive: str) -> list:
    return reports.wire(primitive, REPORTS, SEED)


@functools.lru_cache(maxsize=None)
def serial(primitive: str, collectors: int) -> tuple:
    """Per-shard store digests of the one-process run."""
    return tuple(run_reference(spec_for(primitive, collectors),
                               _wire(primitive)))


@functools.lru_cache(maxsize=None)
def parallel(primitive: str, collectors: int, **overrides) -> tuple:
    """Per-shard store digests and report counts of the daemon run."""
    spec = spec_for(primitive, collectors, **overrides)
    cmap = ClusterMap(collectors=collectors)
    raws = _wire(primitive)
    with SocketLane(spec) as lane:
        lane.send(raws, [route_report(cmap, raw) for raw in raws])
        lane.reporter.end_stream()
        stats = lane.drain()
        digests = lane.digests()
    assert stats["reports"] == REPORTS and stats["malformed"] == 0
    return tuple(digests)


class _Sink:
    """Stands in for one shard's translator; keeps what reaches it."""

    def __init__(self) -> None:
        self.batches: list = []

    def process_batch(self, batch, **_kw) -> None:
        self.batches.append(batch)

    def flush_appends(self) -> None:
        pass

    check = plan_columns = staticmethod(lambda *args: None)


def _shard(cluster_map: ClusterMap, primitive: str, reports_: int):
    """Feed the stream through the assembler into per-shard sinks."""
    sinks = [_Sink() for _ in range(cluster_map.collectors)]
    assembler = ReportAssembler(sinks, cluster_map, batch_size=64)
    for raw in reports.wire(primitive, reports_, SEED):
        assembler.feed(raw)
    assembler.finish()
    return sinks


class TestDeterminism:
    @pytest.mark.parametrize("primitive",
                             ["key_write", "key_increment",
                              "sketch_merge"])
    @pytest.mark.parametrize("collectors", SIZES)
    def test_serial_equals_parallel(self, primitive, collectors):
        assert len(serial(primitive, collectors)) == collectors
        assert serial(primitive, collectors) == parallel(primitive,
                                                         collectors)

    @pytest.mark.parametrize("collectors", SIZES)
    def test_vectorized_equals_scalar(self, collectors):
        scalar = parallel("key_increment", collectors, vectorized=False)
        vector = parallel("key_increment", collectors)
        assert scalar == vector == serial("key_increment", collectors)

    def test_worker_cap_does_not_change_results(self):
        wide = parallel("key_write", 4, translators=4)
        narrow = parallel("key_write", 4)       # one translator daemon
        assert wide == narrow


class TestSketchHomeLane:
    def test_home_store_invariant_across_cluster_sizes(self):
        empty = store_digest(reports.provision_collector(
            "empty", sketch_width=REPORTS))
        homes = set()
        for collectors in SIZES:
            home, *others = serial("sketch_merge", collectors)
            homes.add(home)
            # Every other shard received nothing.
            assert all(digest == empty for digest in others)
        assert len(homes) == 1 and homes != {empty}

    def test_nonzero_sketch_home(self):
        cluster_map = ClusterMap(collectors=4, sketch_home=2)
        collectors = [reports.provision_collector(
            f"collector-{shard}", sketch_width=REPORTS)
            for shard in range(4)]
        translators = [Translator(f"translator-{shard}")
                       for shard in range(4)]
        for collector, translator in zip(collectors, translators):
            collector.connect_translator(translator)
        assembler = ReportAssembler(translators, cluster_map,
                                    batch_size=64)
        for raw in _wire("sketch_merge"):
            assembler.feed(raw)
        assembler.finish()
        assert translators[2].stats.reports_in == REPORTS
        assert all(translators[i].stats.reports_in == 0
                   for i in (0, 1, 3))
        assert (store_digest(collectors[2])
                == serial("sketch_merge", 4)[0])


class TestShardWorkload:
    @pytest.mark.parametrize("primitive", ["key_write", "key_increment"])
    def test_shards_partition_the_workload(self, primitive):
        cluster_map = ClusterMap(collectors=3)
        work = reports.columns(primitive, REPORTS, SEED)
        shards = [[key for batch in sink.batches for key in batch.keys]
                  for sink in _shard(cluster_map, primitive, REPORTS)]
        assert sum(len(keys) for keys in shards) == REPORTS
        # Re-interleaving by routing reconstructs the original order.
        cursors = [0] * 3
        for key in work["keys"]:
            owner = cluster_map.for_key(key)
            assert shards[owner][cursors[owner]] == key
            cursors[owner] += 1

    def test_scalars_pass_through(self):
        cluster_map = ClusterMap(collectors=2, sketch_home=1)
        work = reports.columns("sketch_merge", 16, SEED)
        other, home = _shard(cluster_map, "sketch_merge", 16)
        assert other.batches == []
        assert {batch.sketch_id for batch in home.batches} == {0}
        assert [column for batch in home.batches
                for column in batch.columns] == work["columns"]

    def test_shard_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ClusterMap(collectors=2, sketch_home=2)
        with pytest.raises(ValueError):
            ReportAssembler([_Sink()], ClusterMap(collectors=2))


class TestRunShard:
    def test_shard_is_pure(self):
        spec = spec_for("key_increment", 2)
        raws = _wire("key_increment")
        assert run_reference(spec, raws) == run_reference(spec, raws)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError):
            ServeSpec(primitive="cuckoo")

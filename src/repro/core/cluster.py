"""Multi-collector deployments: stateless scale-out (Section 6).

"Large-scale telemetry environments cannot rely on a single server ...
DTA is therefore designed to easily scale horizontally by deploying
additional collectors, and relies on reporter-based load balancing."

The load balancing must be *stateless and centrally recomputable* so
that queries can find the right collector without coordination:

* Key-Write / Postcarding / Key-Increment — a hash of the telemetry
  key picks the collector (a distributed key-value store).
* Append — the list ID indexes a pre-loaded lookup table, keeping each
  per-category list whole on one collector.
* Sketch-Merge — everything goes to one collector, because merging
  needs all columns in one place.

:class:`ClusterMap` is that shared routing knowledge;
:class:`CollectorCluster` owns the collectors and the query-side
routing; :class:`ClusterReporter` is the switch side, holding one
plain :class:`~repro.core.reporter.Reporter` per destination translator
(per-translator essential-sequence counters, as Section 3.3 requires).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.core.collector import Collector
from repro.core.reporter import Reporter, ReporterStats
from repro.core.translator import Translator
from repro.obs import Registry


@dataclass(frozen=True)
class ClusterMap:
    """Stateless routing of telemetry to collectors.

    Attributes:
        collectors: Cluster size.
        sketch_home: Index hosting all Sketch-Merge traffic.
    """

    collectors: int
    sketch_home: int = 0

    def __post_init__(self) -> None:
        if self.collectors <= 0:
            raise ValueError("cluster needs at least one collector")
        if not 0 <= self.sketch_home < self.collectors:
            raise ValueError("sketch_home outside the cluster")

    def for_key(self, key: bytes) -> int:
        """Keyed primitives: hash of the telemetry key."""
        return zlib.crc32(b"\x43\x4C" + key) % self.collectors

    def for_list(self, list_id: int) -> int:
        """Append: per-list placement (list stays whole)."""
        if list_id < 0:
            raise ValueError("list_id must be non-negative")
        return list_id % self.collectors

    def for_sketch(self, sketch_id: int) -> int:
        """Sketch-Merge: a single aggregation point."""
        return self.sketch_home


class ClusterReporter:
    """A reporter switch addressing a collector cluster.

    Wraps one per-translator :class:`Reporter` so each destination gets
    its own essential-report sequence stream and backup buffer.

    Args:
        name: Switch name.
        reporter_id: 16-bit identity (same toward every translator).
        transmits: One ``callable(raw)`` per collector, ordered by
            cluster index (direct mode), or None with ``reporters``
            provided explicitly for fabric mode.
        cluster_map: The shared routing.
    """

    def __init__(self, name: str, reporter_id: int, *,
                 cluster_map: ClusterMap, transmits=None,
                 reporters: list | None = None) -> None:
        self.name = name
        self.cluster_map = cluster_map
        if reporters is not None:
            if len(reporters) != cluster_map.collectors:
                raise ValueError("one reporter per collector required")
            self.reporters = list(reporters)
        elif transmits is not None:
            if len(transmits) != cluster_map.collectors:
                raise ValueError("one transmit per collector required")
            self.reporters = [
                Reporter(f"{name}/c{i}", reporter_id, transmit=tx)
                for i, tx in enumerate(transmits)]
        else:
            raise ValueError("provide transmits or reporters")

    # -- primitive emission, routed --------------------------------------

    def key_write(self, key: bytes, data: bytes, **kwargs) -> bool:
        return self.reporters[self.cluster_map.for_key(key)].key_write(
            key, data, **kwargs)

    def key_increment(self, key: bytes, value: int, **kwargs) -> bool:
        index = self.cluster_map.for_key(key)
        return self.reporters[index].key_increment(key, value, **kwargs)

    def postcard(self, key: bytes, hop: int, value: int,
                 **kwargs) -> bool:
        index = self.cluster_map.for_key(key)
        return self.reporters[index].postcard(key, hop, value, **kwargs)

    def append(self, list_id: int, data: bytes, **kwargs) -> bool:
        index = self.cluster_map.for_list(list_id)
        return self.reporters[index].append(list_id, data, **kwargs)

    def sketch_column(self, sketch_id: int, column: int, counters,
                      **kwargs) -> bool:
        index = self.cluster_map.for_sketch(sketch_id)
        return self.reporters[index].sketch_column(
            sketch_id, column, counters, **kwargs)

    @property
    def stats(self) -> ReporterStats:
        """Emission statistics summed across all destinations (a view
        in a registry of its own: totals are derived data)."""
        return ReporterStats(registry=Registry(), **{
            name: sum(getattr(r.stats, name) for r in self.reporters)
            for name in ReporterStats.fields()})


class CollectorCluster:
    """A set of collectors + their translators, with routed queries.

    Provision services on every member identically (so layouts agree),
    then query through the cluster; reads route with the same
    :class:`ClusterMap` the reporters used.
    """

    def __init__(self, size: int, *, sketch_home: int = 0) -> None:
        self.map = ClusterMap(collectors=size, sketch_home=sketch_home)
        self.collectors = [Collector(f"collector-{i}")
                           for i in range(size)]
        self.translators = [Translator(f"translator-{i}")
                            for i in range(size)]
        self._connected = False

    def __len__(self) -> int:
        return len(self.collectors)

    # -- provisioning ------------------------------------------------------

    def serve_on_all(self, method_name: str, **kwargs) -> None:
        """Call ``serve_<x>`` with identical parameters on every member."""
        for collector in self.collectors:
            getattr(collector, method_name)(**kwargs)

    def connect(self) -> None:
        """Handshake every translator with its collector (direct mode)."""
        for collector, translator in zip(self.collectors,
                                         self.translators):
            collector.connect_translator(translator)
        self._connected = True

    def reporter(self, name: str, reporter_id: int) -> ClusterReporter:
        """A reporter wired to every translator in the cluster."""
        if not self._connected:
            raise RuntimeError("connect() the cluster first")
        transmits = [t.handle_report for t in self.translators]
        return ClusterReporter(name, reporter_id,
                               cluster_map=self.map, transmits=transmits)

    # -- routed queries ------------------------------------------------------

    def query_value(self, key: bytes, **kwargs):
        return self.collectors[self.map.for_key(key)].query_value(
            key, **kwargs)

    def query_path(self, key: bytes, **kwargs):
        return self.collectors[self.map.for_key(key)].query_path(
            key, **kwargs)

    def query_counter(self, key: bytes, **kwargs) -> int:
        return self.collectors[self.map.for_key(key)].query_counter(
            key, **kwargs)

    def list_poller(self, list_id: int):
        return self.collectors[self.map.for_list(list_id)].list_poller(
            list_id)

    def sketch_store(self):
        return self.collectors[self.map.sketch_home].sketch

    def flush_appends(self) -> None:
        for translator in self.translators:
            translator.flush_appends()

    def aggregate_capacity(self, payload_bytes: int,
                           reports_per_message: int = 1,
                           writes_per_report: int = 1) -> float:
        """Modelled cluster-wide ingest rate: capacity adds linearly
        because every collector NIC keeps a single-QP connection."""
        from repro.rdma.nic import modelled_collection_rate

        per_collector = modelled_collection_rate(
            payload_bytes, reports_per_message,
            writes_per_report=writes_per_report)
        return per_collector * len(self)

"""The DTA collector: RDMA-written memory plus CPU-side query engines.

Section 4.3: the collector "has support for per-primitive memory
structures and querying the reported telemetry data.  The collector can
host several primitives in parallel using unique RDMA_CM ports, and
advertise primitive-specific metadata to the translator."

The collector CPU never touches incoming reports — they land in
registered memory via the translator's RDMA writes.  What the CPU does
is (a) provision services, and (b) answer queries against the stores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import calibration
from repro.core import primitives
from repro.core.stores.append import ListPoller
from repro.obs.views import InstrumentedStats, counter_field
from repro.core.transport import RoceFrame, make_direct_client
from repro.fabric.topology import Node
from repro.rdma.cm import CmListener, ServiceAdvert
from repro.rdma.nic import Nic

# Default CM ports per primitive (one service per port, Section 4.3).
PORT_KEY_WRITE = 9910
PORT_POSTCARDING = 9911
PORT_APPEND = 9912
PORT_SKETCH_MERGE = 9913
PORT_KEY_INCREMENT = 9914


@dataclass(frozen=True)
class Notification:
    """A push notification raised by an immediate-flagged report.

    Section 6: "DTA packets can include an *immediate flag*, which can
    be used by the translator to inform the CPU that new data has
    arrived through RDMA immediate interrupts (e.g., a flow is
    experiencing problems)."  The 32-bit immediate encodes which
    primitive's data landed and which reporter sent it.
    """

    primitive: int
    reporter_id: int

    @classmethod
    def from_imm(cls, imm: int) -> "Notification":
        return cls(primitive=imm >> 16, reporter_id=imm & 0xFFFF)


class CollectorStats(InstrumentedStats):
    """CPU-side activity: queries answered, interrupts drained.

    The data plane deliberately has nothing to count here — reports
    land via RDMA without collector CPU involvement, which is the
    paper's headline claim; these counters prove the CPU only ever
    works when *asked* something.
    """

    component = "collector"

    queries_value = counter_field()
    queries_path = counter_field()
    queries_counter = counter_field()
    notifications_drained = counter_field()


class Collector(Node):
    """A collector host: one RDMA NIC, several primitive services."""

    def __init__(self, name: str = "collector",
                 nic: Nic | None = None) -> None:
        super().__init__(name)
        self.stats = CollectorStats(labels={"node": name})
        self.nic = nic or Nic(f"{name}-nic")
        self.cm = CmListener(self.nic)
        # One store attribute per primitive, None until served.
        for primitive in primitives.REGISTRY:
            setattr(self, primitive.store, None)
        self.cuckoo = None  # CuckooStore, provisioned on demand
        self._server_qps: list = []

    # ------------------------------------------------------------------
    # Service provisioning
    # ------------------------------------------------------------------

    def _serve(self, primitive, params: dict, port: int,
               *store_args) -> ServiceAdvert:
        """Provision one primitive's service from its store module:
        size the layout ``params`` describe, register its region, build
        the store, advertise and listen.  The advert carries the
        layout's whole geometry, then the rest of ``params``."""
        probe = primitive.layout(0, params)
        region = self.nic.register_memory(probe.region_bytes)
        layout = primitive.layout(region.addr, params)
        setattr(self, primitive.store,
                primitive.home.STORE(region, layout, *store_args))
        advert = ServiceAdvert(
            primitive=primitive.service, addr=region.addr, rkey=region.rkey,
            length=region.length,
            params={**primitives.geometry(layout), **params})
        self.cm.listen(port, advert)
        return advert

    def serve_keywrite(self, *, slots: int, data_bytes: int,
                       port: int = PORT_KEY_WRITE) -> ServiceAdvert:
        """Provision a Key-Write store of ``slots`` x ``data_bytes``."""
        return self._serve(primitives.KEY_WRITE, {
            "slots": slots, "data_bytes": data_bytes}, port)

    def serve_postcarding(self, *, chunks: int, value_set,
                          hops: int = calibration.POSTCARDING_MAX_HOPS,
                          slot_bits: int = 32,
                          cache_slots: int =
                          calibration.POSTCARDING_CACHE_SLOTS,
                          port: int = PORT_POSTCARDING) -> ServiceAdvert:
        """Provision a Postcarding store of ``chunks`` B-hop chunks."""
        return self._serve(primitives.POSTCARDING, {
            "chunks": chunks, "hops": hops, "slot_bits": slot_bits,
            "cache_slots": cache_slots}, port, value_set)

    def serve_append(self, *, lists: int, capacity: int, data_bytes: int,
                     batch_size: int = calibration.DEFAULT_BATCH_SIZE,
                     port: int = PORT_APPEND) -> ServiceAdvert:
        """Provision ``lists`` ring buffers of ``capacity`` entries."""
        return self._serve(primitives.APPEND, {
            "lists": lists, "capacity": capacity, "data_bytes": data_bytes,
            "batch_size": batch_size}, port)

    def serve_keyincrement(self, *, slots_per_row: int, rows: int = 4,
                           port: int = PORT_KEY_INCREMENT) -> ServiceAdvert:
        """Provision a Key-Increment CMS of rows x slots counters."""
        return self._serve(primitives.KEY_INCREMENT, {
            "slots_per_row": slots_per_row, "rows": rows}, port)

    def serve_sketch(self, *, width: int, depth: int,
                     expected_reporters: int, batch_columns: int = 8,
                     merge: str = "sum", sketch_id: int = 0,
                     port: int = PORT_SKETCH_MERGE) -> ServiceAdvert:
        """Provision a merged-sketch region of width x depth counters.

        One service aggregates one ``sketch_id``; deploy additional
        services (distinct ports/collectors) for additional sketches —
        Section 6 routes each sketch to a single aggregation point.
        """
        return self._serve(primitives.SKETCH_MERGE, {
            "width": width, "depth": depth,
            "expected_reporters": expected_reporters,
            "batch_columns": batch_columns, "merge": merge,
            "sketch_id": sketch_id}, port)

    def serve_cuckoo(self, *, buckets: int, key_bytes: int,
                     value_bytes: int) -> ServiceAdvert:
        """Provision a translator-managed cuckoo table (Section 6).

        Unlike the write-only primitives, this store is mutated through
        RDMA READ+WRITE sequences issued by a single
        :class:`~repro.core.stores.cuckoo.CuckooManager` at the
        translator — the "enhanced data aggregation" future-work design.
        No translator lane serves it, so it is not listened on: the
        returned advert (layout geometry and rkey) is what a manager is
        built from.
        """
        from repro.core.stores.cuckoo import CuckooLayout, CuckooStore

        probe = CuckooLayout(0, buckets, key_bytes, value_bytes)
        region = self.nic.register_memory(probe.region_bytes)
        self.cuckoo = CuckooStore(region,
                                  replace(probe, base_addr=region.addr))
        return ServiceAdvert(
            primitive="cuckoo", addr=region.addr, rkey=region.rkey,
            length=region.length, params=primitives.geometry(probe))

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------

    def connect_translator(self, translator, *, fabric: bool = False,
                           translator_nic: Nic | None = None) -> None:
        """Handshake every advertised service with a translator.

        Direct mode wires a synchronous RDMA transport; fabric mode
        leaves packet movement to the topology links (the translator
        sends RoceFrames and this node forwards NIC responses back).
        """
        # One QP serves every primitive: the whole point of the
        # translator architecture is a minimal connection count at the
        # collector NIC (Section 3.1(2)).
        server_qp = self.nic.create_qp()
        self._server_qps.append(server_qp)
        if fabric:
            client_nic = translator_nic or Nic("translator-rdma")
            client_qp = client_nic.create_qp()
            self.nic.connect_qp(server_qp, client_qp.qpn)
            client_nic.connect_qp(client_qp, server_qp.qpn)
            from repro.core.transport import RdmaClient

            def send_fn(raw, _t=translator):
                _t.send(self.name, RoceFrame(src=_t.name, raw=raw),
                        len(raw) + 42)

            client = RdmaClient(client_qp, send_fn)
        else:
            client = make_direct_client(self.nic, server_qp)
        translator.attach_rdma(client)
        for _port, advert in sorted(self.cm.ports().items()):
            translator.configure(advert)

    # ------------------------------------------------------------------
    # Fabric-mode entry point
    # ------------------------------------------------------------------

    def receive(self, packet) -> None:
        if not isinstance(packet, RoceFrame):
            raise TypeError(f"collector got unexpected {packet!r}")
        response = self.nic.receive(packet.raw)
        if response is not None:
            self.send(packet.src, RoceFrame(src=self.name, raw=response),
                      len(response) + 42)

    # ------------------------------------------------------------------
    # Query API (the CPU side)
    # ------------------------------------------------------------------

    def query_path(self, key: bytes, *, redundancy: int = 1):
        """Postcarding query: the traced path for a flow key."""
        if self.postcarding is None:
            raise RuntimeError("postcarding service not provisioned")
        self.stats.queries_path += 1
        return self.postcarding.query(key, redundancy=redundancy)

    def query_value(self, key: bytes, *, redundancy: int | None = None,
                    consensus: int = 1):
        """Key-Write query: the latest value reported for a key."""
        if self.keywrite is None:
            raise RuntimeError("key-write service not provisioned")
        self.stats.queries_value += 1
        return self.keywrite.query(key, redundancy=redundancy,
                                   consensus=consensus)

    def query_counter(self, key: bytes, *,
                      redundancy: int | None = None) -> int:
        """Key-Increment query: CMS point estimate for a key."""
        if self.keyincrement is None:
            raise RuntimeError("key-increment service not provisioned")
        self.stats.queries_counter += 1
        return self.keyincrement.query(key, redundancy=redundancy)

    def list_poller(self, list_id: int) -> ListPoller:
        """A sequential poller over one Append list."""
        if self.append is None:
            raise RuntimeError("append service not provisioned")
        return self.append.poller(list_id)

    def snapshot(self, *, batch_seq: int | None = None):
        """Freeze every provisioned store for isolated querying.

        Returns a :class:`~repro.queries.snapshot.CollectorSnapshot`
        exposing the same query API over copied store memory, so a
        reader can keep querying a stable view while reports continue
        to land in the live regions.  When the collector is being fed
        by a :class:`~repro.runtime.engine.StreamEngine`, prefer
        ``engine.snapshot()``, which additionally synchronizes with the
        execute stage so the copy lands on a batch boundary.
        """
        from repro.queries.snapshot import snapshot_of

        return snapshot_of(self, batch_seq=batch_seq)

    def drain_notifications(self) -> list:
        """Collect pending RDMA-immediate interrupts (Section 6).

        WRITE_WITH_IMM completions queue on the receiving QP; this
        drains them into :class:`Notification` records so reactive
        analysis can trigger without polling the data structures.
        """
        out = []
        for qp in self._server_qps:
            while qp.completions:
                wc = qp.completions.popleft()
                if wc.imm is not None:
                    out.append(Notification.from_imm(wc.imm))
        self.stats.notifications_drained += len(out)
        return out

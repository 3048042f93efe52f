"""The primitive registry: one table, and everything that must agree
with it.

The codec properties a registry row implies are held by the suites
that draw from ``tests/registry_cases.py``; this file holds what is
about the table itself — its load-bearing order, the lane every row
has, the names other modules bind to it, the generated documentation,
and the locality rule that keeps primitives out of every other module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import subprocess
import sys
import zlib

import numpy as np

from repro.core import primitives
from repro.core.collector import Collector
from repro.core.primitives import BY_CODE, BY_SERVICE, REGISTRY, STORES
from repro.core.translator import Translator, TranslatorStats
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.kernels import wire
from repro.rdma.verbs import Opcode, WorkRequest
from repro.queries.snapshot import snapshot_of
from repro.retention.checkpoint import (read_manifest, restore_checkpoint,
                                        write_checkpoint)
from repro.retention.epochs import EpochManager
from repro.runtime.engine import store_digest
from repro.transport.daemons import segment_plan
from repro.workloads import reports

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_store_order_is_the_digest_order():
    # Recorded store digests, checkpoints and the socket lane's shared
    # segments all depend on this exact sequence.
    assert STORES == ("keywrite", "keyincrement", "postcarding", "append",
                      "sketch")
    assert [name for name, _ in segment_plan(8)] == list(STORES)
    assert [name for name, _ in segment_plan()] == list(STORES[:-1])
    assert reports.PRIMITIVES == tuple(BY_SERVICE)


def test_store_digest_walks_the_registry_order():
    collector = reports.provision_collector("order", sketch_width=8)
    digest = hashlib.sha256()
    for attr in STORES:
        digest.update(attr.encode())
        digest.update(bytes(getattr(collector, attr).region.buf))
    assert store_digest(collector) == "sha256:" + digest.hexdigest()


def test_fault_regions_are_named_by_service():
    collector = reports.provision_collector("faults", sketch_width=8)
    injector = FaultInjector.for_star(
        FaultPlan(events=[]), type("Topo", (), {"sim": None, "links": []}),
        collector, [])
    assert set(injector.regions) == set(BY_SERVICE)
    for primitive in REGISTRY:
        assert injector.regions[primitive.service] is getattr(
            collector, primitive.store).region


def test_every_primitive_has_exactly_one_lane():
    for primitive in REGISTRY:
        lane = primitive.home.LANE
        assert lane.primitive is primitive
        assert BY_CODE[primitive.code] is primitive
        # One check, one scalar lane, one plan — and a plan from wire
        # columns exactly where the table names its value column.
        for name in ("check", "scalar", "plan", "stride"):
            assert hasattr(lane, name), (primitive.service, name)
        assert (lane.plan_columns is not None) == (primitive.value is not None)
        assert primitive.stat in TranslatorStats.fields()
        assert hasattr(Collector, f"serve_{primitive.store}")
        assert set(primitive.fields) | {primitive.extra} - {None} <= {
            f.name for f in primitive.wire.fields} | set(
            primitive.wire.tail_of)


def test_configure_builds_lanes_from_adverts():
    collector = reports.provision_collector("lanes", sketch_width=8)
    translator = Translator()
    collector.connect_translator(translator)
    assert set(translator._lanes) == set(BY_CODE)
    for primitive in REGISTRY:
        lane = translator._lanes[primitive.code]
        assert type(lane) is primitive.home.LANE
        store = getattr(collector, primitive.store)
        assert type(store) is primitive.home.STORE
        assert lane.layout == store.layout
    # Sketch storage and the postcard value codes stay lazy: configure
    # allocates nothing a report has not asked for.
    assert translator._lanes[primitives.SKETCH_MERGE.code].columns is None
    assert translator._lanes[primitives.POSTCARDING.code].codes is None


def test_pinned_decoder_names_are_the_one_decoder():
    for name, primitive in zip(
            ("decode_keywrite", "decode_keyincrement", "decode_postcard",
             "decode_append", "decode_sketch"), REGISTRY):
        bound = getattr(wire, name)
        assert bound.func is wire.decode and bound.args == (primitive,)


def test_architecture_table_is_generated_from_the_registry():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import primitive_table
    finally:
        sys.path.pop(0)
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    table = text.split(primitive_table.BEGIN)[1].split(primitive_table.END)[0]
    assert table.strip() == primitive_table.render(), \
        "stale: run PYTHONPATH=src python tools/primitive_table.py --write"


def test_no_module_outside_a_primitives_own_names_one():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_primitive_locality.py")],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


# A toy sixth primitive's collector side, declared here the way a store
# module declares it; the test module is the toy's store module.


@dataclasses.dataclass(frozen=True)
class ToyLayout:
    base_addr: int
    cells: int
    width: int = 4

    @property
    def region_bytes(self) -> int:
        return self.cells * self.width


class ToyStore(primitives.Store):
    def reset_stats(self) -> None:
        self.reads = 0


TOY = dataclasses.replace(primitives.KEY_WRITE, code=0x7F, service="toy",
                          store="toy", module=__name__)


class ToyLane(primitives.Lane):
    """The toy's translator side: a report writes its data, zero-padded,
    into the cell its key hashes to — the last writer wins."""

    __slots__ = ()
    primitive = TOY

    @property
    def stride(self) -> int:
        return self.layout.width

    def check(self, cols, extra):
        if max(map(len, cols[1])) > self.layout.width:
            return ValueError("data wider than a toy cell")
        return None

    def _cells(self, keys) -> list:
        return [zlib.crc32(key) % self.layout.cells for key in keys]

    def scalar(self, cols, extra, reporter_id, control) -> list:
        keys, datas = cols
        width, base = self.layout.width, self.layout.base_addr
        return [WorkRequest(opcode=Opcode.WRITE,
                            remote_addr=base + cell * width, rkey=self.rkey,
                            data=data.ljust(width, b"\0"))
                for cell, data in zip(self._cells(keys), datas)]

    def plan(self, cols, extra, reporter_id, target):
        if self.check(cols, extra) is not None:
            return None
        keys, datas = cols
        width = self.layout.width
        rows = np.frombuffer(b"".join(d.ljust(width, b"\0") for d in datas),
                             dtype=np.uint8).reshape(len(datas), width)
        return np.array(self._cells(keys), dtype=np.int64), rows


LANE, LAYOUT, STORE = ToyLane, ToyLayout, ToyStore
TRACKER = primitives.Tracker("slots", cells="cells", cell_bytes="width")


def install_toy(monkeypatch) -> None:
    """Register the toy as a sixth registry row for one test."""
    registry = (*REGISTRY, TOY)
    monkeypatch.setattr(primitives, "REGISTRY", registry)
    monkeypatch.setattr(primitives, "BY_SERVICE",
                        {p.service: p for p in registry})
    monkeypatch.setattr(primitives, "BY_CODE", {p.code: p for p in registry})
    monkeypatch.setattr(primitives, "STORES",
                        tuple(p.store for p in registry))


def test_a_sixth_primitive_is_a_store_module_and_a_registry_row(
        monkeypatch, tmp_path):
    install_toy(monkeypatch)
    collector = Collector()
    assert collector.toy is None
    advert = collector._serve(TOY, {"cells": 16, "colour": "red"}, 9990)
    assert (advert.primitive, advert.params) == (
        "toy", {"cells": 16, "width": 4, "colour": "red"})
    toy = collector.toy
    assert type(toy) is ToyStore and toy.layout.base_addr == advert.addr
    toy.reads = 3
    toy.region.local_write(8, b"\x01\x02\x03\x04")       # cell 2
    digest = store_digest(collector)
    assert digest == "sha256:" + hashlib.sha256(
        b"toy" + bytes(toy.region.buf)).hexdigest()

    view = snapshot_of(collector)
    assert view.toy.reads == 0 and view.toy.region is not toy.region
    assert view.store_digest() == digest

    manager = EpochManager(collector)
    assert manager.rotate().changed == {"toy": 1}
    path = str(tmp_path / "ckpt")
    write_checkpoint(collector, path, manager=manager)
    assert read_manifest(path)["regions"][0]["params"] == {"cells": 16,
                                                           "width": 4}

    twin = Collector()
    twin._serve(TOY, {"cells": 16}, 9990)
    twin_manager = EpochManager(twin)
    assert restore_checkpoint(twin, path,
                              manager=twin_manager).store_digest == digest
    twin.toy.region.local_write(0, b"\xff")               # cell 0
    report = twin_manager.rotate()
    assert (report.epoch, report.changed, report.live) == (
        2, {"toy": 1}, {"toy": 2})
    assert np.array_equal(twin_manager.trackers["toy"].gens[:3], [2, 0, 1])

"""The differential gate: every shipped plan agrees with the serial lane.

ROADMAP item 1's acceptance test, in suite form: stream the mixed
workload at several worker counts, evaluate the full query catalog over
each drained store set, and require bit-equality — on the result rows
of every plan, and on the store digests underneath them — with the
``workers=0`` serial reference.  A torn write, a reordered burst, or an
order-sensitive operator would all surface here.
"""

from __future__ import annotations

import pytest

from repro.queries import catalog, snapshot_of

REPORTS = 240
SEED = 5


@pytest.fixture(scope="module")
def reference():
    """The serial lane: workloads, catalog rows, and store digest."""
    works = catalog.demo_workloads(REPORTS, SEED)
    _registry, collector, _engine, zero_loss = catalog.stream_mixed(
        works, workers=0, batch_size=32)
    assert zero_loss
    results, _cost = catalog.run_catalog(collector, works)
    return works, results, catalog.lane_digest(collector)


@pytest.mark.parametrize("workers", [2])
def test_catalog_matches_serial_reference(reference, workers):
    works, serial_results, serial_digest = reference
    _registry, collector, _engine, zero_loss = catalog.stream_mixed(
        works, workers=workers, batch_size=32)
    assert zero_loss
    results, cost = catalog.run_catalog(collector, works)
    assert catalog.lane_digest(collector) == serial_digest
    assert set(results) == set(serial_results)
    for name in sorted(serial_results):
        assert results[name] == serial_results[name], name
    # Deterministic cost components agree too: same stores, same scans.
    assert all(entry["rows_scanned"] > 0
               for entry in cost["queries"].values())


def test_catalog_over_snapshot_equals_live(reference):
    """Plans over a frozen snapshot return the same rows as plans over
    the quiesced live collector it was taken from."""
    works, _serial_results, _digest = reference
    _registry, collector, _engine, zero_loss = catalog.stream_mixed(
        works, workers=2, batch_size=32)
    assert zero_loss
    live_results, _cost = catalog.run_catalog(collector, works)
    snap_results, _cost = catalog.run_catalog(snapshot_of(collector),
                                              works)
    assert snap_results == live_results


def test_catalog_covers_every_store_and_operator():
    """The 'every shipped plan' phrasing only means something if the
    catalog actually spans the algebra; pin that down."""
    works = catalog.demo_workloads(64, SEED)
    plans = catalog.shipped_plans(works)
    described = " ".join(plan.describe() for plan in plans.values())
    for op in ("filter", "map", "reduce", "distinct", "topk", "join",
               "union"):
        assert op in described, f"catalog exercises no {op}"
    for source in ("keywrite", "counters", "sketch", "postcards",
                   "append"):
        assert source in described, f"catalog reads no {source}"

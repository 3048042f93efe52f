"""The conformance matrix: every registry row through every lane.

A case is one row on one lane, deployed at the rig's small
``GEOMETRY`` (a batch hits a slot more than once).  It feeds the row's
seeded stream — batch 1 / 7 / 64; clean, or the survivors of the
seeded loss shim; on an engine lane with and without
``RetentionPolicy(window=2, rotate_every=5)`` — through the lane and
holds each run to the ``workers=0, vectorized=False`` engine on the
same stream, computed once per key: store bytes, and the lane's
digest (a socket lane: each shard's store against the reference over
that shard's reports, and its daemons' obs roll-up against
``run_reference`` on the same bytes).  A scalar lane calls no burst
kernel; a vector lane on a clean stream at batch 64 does.
``conformance.run`` also requires the deployment freed by reference
count once closed (a socket lane: what the parent holds — the lane,
its reporter, the parent registry).

A row enrols by being declared: the cases are generated from
``primitives.REGISTRY``, plus the toy sixth row on the lanes that take
batches (its code does not fit the wire's four-bit primitive field).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

pytest.importorskip("numpy")

from repro.core import primitives
from repro.transport import reporter as reporter_mod
from repro.transport.loss import LossSpec
from tests import conformance
from tests.conformance import BATCHES, LANES, ROTATION, TRAFFIC

#: The heavy-reorder case: a shim inside the socket lane holding ~30 %
#: of reports for up to five sends, and a transmit slice that cuts the
#: stream into three.
HEAVY = LossSpec(seed=conformance.SEED, drop_rate=0.05, reorder_rate=0.3,
                 reorder_span=5)
SLICE = 32

CASES = [pytest.param(row, lane, id=f"{row}-{lane}")
         for row in conformance.rows()
         for lane, spec in LANES.items()
         if lane != "reference" and not (row == "toy" and spec.wire)]

_REFERENCES: dict = {}


def _reference(stream, key) -> dict:
    if key not in _REFERENCES:
        _REFERENCES[key] = conformance.run("reference", stream)
        assert _REFERENCES[key]["kernels"] == 0, "the reference planned"
    return _REFERENCES[key]


def _check(row, lane, batch, traffic, rotating) -> None:
    spec = LANES[lane]
    stream = conformance.stream(row, traffic=traffic, batch=batch,
                                policy=ROTATION if rotating else None)
    got = conformance.run(lane, stream)
    key = (row, batch, traffic, rotating)
    if spec.shards:
        shards = [(stream, key)] if spec.shards == 1 else [
            (stream.shard(spec.shards, i), key + (i,))
            for i in range(spec.shards)]
        assert got["stores"] == [_reference(*shard)["store"]
                                 for shard in shards]
        assert got["obs"] == conformance.serve_reference(
            stream, spec.shards)["obs"], "obs digest differs"
        return
    want = _reference(stream, key)
    assert got["store"] == want["store"], "store bytes differ"
    assert got[spec.digest] == want[spec.digest], "obs digest differs"
    if not spec.vector:
        assert got["kernels"] == 0, "a scalar lane planned"
    elif batch == 64 and traffic == "clean":
        assert got["kernels"] > 0, "the vector path never ran"


@pytest.mark.parametrize("row, lane", CASES)
def test_lane_matches_the_reference(row, lane, monkeypatch):
    """One row through one lane, case by case: batch 1 / 7 / 64, clean
    and lossy, and on an engine lane with and without rotation."""
    from tests.core.test_primitives import install_toy

    install_toy(monkeypatch)
    for batch in BATCHES:
        for traffic in TRAFFIC:
            for rotating in (False, True)[:1 + LANES[lane].engine]:
                case = f"b{batch}-{traffic}" + "-rotate" * rotating
                try:
                    _check(row, lane, batch, traffic, rotating)
                except AssertionError as failure:
                    raise AssertionError(f"{case}: {failure}") from None


def test_the_matrix_covers_every_row_on_every_lane():
    """Every registry service, and the toy on every lane that takes
    batches."""
    ids = {case.id for case in CASES}
    services = [p.service for p in primitives.REGISTRY]
    assert list(conformance.rows()) == services + ["toy"]
    for lane, spec in LANES.items():
        for row in services + ["toy"] * (not spec.wire):
            assert (f"{row}-{lane}" in ids) == (lane != "reference"), (
                row, lane)


def test_a_batch_revisits_slots_at_the_rig_geometry():
    """The matrix holds vector plans to last-writer-wins and
    add-accumulate only if its 64-report batches hit a slot twice."""
    with conformance.deploy() as (_registry, collector, _t, _reporter):
        slot = collector.keywrite.layout.slot_index
        cell = collector.keyincrement.layout.counter_index
        for row, index in (("key_write", slot), ("key_increment", cell)):
            keys = conformance.stream(row).work["keys"][:64]
            hits = [index(n, key) for key in keys for n in range(2)]
            assert len(hits) - len(set(hits)) >= 10, row


def test_heavy_reorder_holds_cross_the_reporters_slices(monkeypatch):
    """The socket lane with :data:`HEAVY` inside it, its reporter
    reading :data:`SLICE` reports at a time: a report the shim holds at
    a slice's end leaves from the carry in a later slice, and the lane
    still leaves what ``run_reference`` leaves behind the same shim."""
    stream = conformance.stream("key_write")
    assert len(stream) >= 3 * SLICE
    spec = conformance.serve_spec
    monkeypatch.setattr(conformance, "serve_spec",
                        lambda *args: replace(spec(*args), loss=HEAVY))
    monkeypatch.setattr(reporter_mod, "_TRANSMIT_SLICE", SLICE)
    carried = []
    emit = reporter_mod.SocketReporter._emit

    def spy(self, ordinals, first, *args):
        carried.append(int((ordinals < first).sum()))
        return emit(self, ordinals, first, *args)

    monkeypatch.setattr(reporter_mod.SocketReporter, "_emit", spy)
    got = conformance.run("socket2", stream)
    assert len(carried) >= 3 and sum(carried) > 0, (
        f"no hold crossed a slice boundary: {carried}")
    assert got == conformance.serve_reference(stream, 2)

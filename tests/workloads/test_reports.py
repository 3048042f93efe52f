"""The seeded report workload: one stream, pinned.

Every recorded digest in the repo — the ``perf/`` differential reps,
the gating commands, the differential tests — depends on the exact RNG
draws of ``reports.columns`` and on the store geometry.  The golden
hashes below were computed from the private generator in
``repro.bench``, ``serve.encode_workload`` and
``daemons.provision_collector`` at the commit before they were folded
into ``repro.workloads.reports``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.reporter import Reporter
from repro.transport.daemons import provision_collector, segment_plan
from repro.workloads import reports

GOLDEN_COLUMNS = {
    "key_write":
        "4d18803c7331ff8222f19501c9882f92681d9f298fd514e85e57096919cf550b",
    "key_increment":
        "999f9975fa1d116910f24b18f9e29e5d62a5e03f2c722463277a1f7a90c6bf40",
    "postcarding":
        "da546b3c5788c17f4af2abd5c5f5cc6b21197283810b11c1aac7aace5a040921",
    "append":
        "f24f3e3ace9b3f81220fd8aa3b5cac9a447e648b925cd88207e4aedb0e39e8a7",
    "sketch_merge":
        "a7797475c94ff81deea1e03b71234d74b4ec382e63728a8153675dea9e2ded34",
}
GOLDEN_WIRE = \
    "996b081bab3394b4c45d5982fd2bd90b4150244ac2297032297509fd34525ebc"


@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_columns_are_the_recorded_draws(primitive):
    work = reports.columns(primitive, 2000, 1)
    digest = hashlib.sha256(repr(sorted(work.items())).encode())
    assert digest.hexdigest() == GOLDEN_COLUMNS[primitive]
    assert reports.size(work) == 2000


def test_wire_is_the_recorded_byte_stream():
    digest = hashlib.sha256()
    for primitive in reports.PRIMITIVES:
        for raw in reports.wire(primitive, 2000, 1):
            digest.update(raw)
    assert digest.hexdigest() == GOLDEN_WIRE


@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_three_views_of_one_stream(primitive):
    """batch slices, the per-report emit and the wire bytes all carry
    the same reports, in order."""
    work = reports.columns(primitive, 40, 3)
    sliced = []
    for s in range(0, 40, 16):
        batch = reports.batch(primitive, work, s, s + 16)
        batch.reporter_id = 1
        sliced += list(batch.iter_raw())
    assert sliced == reports.wire(primitive, 40, 3)

    sent = []
    reports.emit(Reporter("r", 1, transmit=sent.append), primitive, work)
    assert sent == sliced


def test_unknown_primitive_is_rejected_everywhere():
    for call in (lambda: reports.columns("nope", 4, 1),
                 lambda: reports.batch("nope", {}, 0, 4),
                 lambda: reports.emit(None, "nope", {})):
        with pytest.raises(ValueError):
            call()


def test_provisioned_geometry_is_the_recorded_one():
    """Region sizes per store: what the shared-memory segments are cut
    to, and what every recorded store digest was hashed over."""
    collector = provision_collector("geometry", sketch_width=100)
    regions = [(attr, len(getattr(collector, attr).region.buf))
               for attr in ("keywrite", "keyincrement", "postcarding",
                            "append", "sketch")]
    assert regions == segment_plan(100)
    assert regions == [("keywrite", 1310720), ("keyincrement", 131072),
                       ("postcarding", 524288), ("append", 2228224),
                       ("sketch", 1600)]
    assert provision_collector is reports.provision_collector
    assert provision_collector("plain").sketch is None

"""A closed deployment is reclaimed by reference count alone.

North-star "never leak": after ``close()`` and the last name going
away, nothing of a deployment — collector, store regions (4.5 MB of
them at benchmark geometry), obs registry, engine — may wait for the
cycle collector.  The read kernels made that wait long: a catalog tick
no longer allocates tens of thousands of containers, so generation-2
collections became rare and dead deployments piled up in
``peak_rss_mb``.  The check itself lives in the conformance rig
(``tests.conformance.run``), which makes it for every matrix case.
"""

from __future__ import annotations

import pytest

from repro import bench
from repro.runtime import StreamEngine
from repro.workloads import reports
from tests import conformance

REPORTS = 3000
BATCH = 64


@pytest.mark.parametrize("lane", ["batched", "inline", "thread", "process2"],
                         ids=["no-engine", "inline", "thread", "process"])
def test_closed_deployment_is_freed_without_gc(lane):
    """``conformance.run`` holds every lane to it — registry,
    collector, a region and the engine dead by reference count once
    the lane has closed, with the cycle collector off."""
    conformance.run(lane, conformance.Stream(
        "key_write", reports.columns("key_write", REPORTS, 1),
        batch=BATCH, sketch_width=64))


def test_submit_after_close_is_refused():
    """``close()`` drops the stage table; a late submit must say so,
    not fail inside a stage lookup."""
    with bench.deployment() as (_registry, collector, translator, reporter):
        engine = StreamEngine(collector, translator, reporter, workers=0)
        engine.start()
        engine.close()
        work = reports.columns("key_write", BATCH, 1)
        with pytest.raises(RuntimeError, match="already closed"):
            engine.submit(reports.batch("key_write", work, 0, BATCH))

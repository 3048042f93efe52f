"""A closed deployment is reclaimed by reference count alone.

North-star "never leak": after ``close()`` and the last name going
away, nothing of a deployment — collector, store regions (4.5 MB of
them at benchmark geometry), obs registry, engine — may wait for the
cycle collector.  The read kernels made that wait long: a catalog tick
no longer allocates tens of thousands of containers, so generation-2
collections became rare and dead deployments piled up in
``peak_rss_mb``.  Every test here runs with the collector disabled.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import bench
from repro.runtime import StreamEngine
from repro.workloads import reports

REPORTS = 3000
BATCH = 64


@pytest.fixture
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _run_and_drop(engine_kw) -> dict:
    """Build, stream, drain, close; return weakrefs once every name of
    the deployment has gone out of scope."""
    with bench.deployment(sketch_width=64) as (
            registry, collector, translator, reporter):
        refs = {"registry": weakref.ref(registry),
                "collector": weakref.ref(collector),
                "region": weakref.ref(collector.keywrite.region)}
        if engine_kw is not None:
            engine = StreamEngine(collector, translator, reporter,
                                  vectorized=True, **engine_kw)
            refs["engine"] = weakref.ref(engine)
            engine.start()
            work = reports.columns("key_write", REPORTS, 1)
            for s in range(0, REPORTS, BATCH):
                engine.submit(reports.batch("key_write", work, s,
                                            min(s + BATCH, REPORTS)))
            engine.drain()
            engine.close()
    return refs


@pytest.mark.parametrize("engine_kw", [
    None,
    {"workers": 0},
    {"workers": 2},
    {"workers": 2, "executor": "process"},
], ids=["no-engine", "inline", "thread", "process"])
def test_closed_deployment_is_freed_without_gc(no_cycle_collector,
                                               engine_kw):
    refs = _run_and_drop(engine_kw)
    alive = sorted(name for name, ref in refs.items()
                   if ref() is not None)
    assert alive == []


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

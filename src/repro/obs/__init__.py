"""repro.obs — the unified observability layer.

One registry for every counter in the reproduction, structured trace
events for the rare control-plane transitions, snapshot/diff for
per-epoch accounting, and a probe that turns conservation invariants
("every report is written, shed, lost, or backlogged") into one-line
test assertions.

Quick tour::

    from repro import obs

    reg = obs.get_registry()
    reg.counter("demo.widgets").inc()
    print(obs.render_table(reg.snapshot()))

    probe = obs.ObsProbe()
    with probe:
        run_simulation()
    probe.assert_balance("reporter.reports_sent",
                         "translator.reports_in", "link.random_drops")

Component integration: the legacy ``*Stats`` classes across the
codebase subclass :class:`~repro.obs.views.InstrumentedStats`, so every
pre-existing ``stats.field`` read/write transparently flows through
registry counters named ``<component>.<field>``.
"""

from repro.obs.export import (
    iter_samples,
    render_events,
    render_table,
    to_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSample,
    freeze_labels,
)
from repro.obs.probe import ObsProbe
from repro.obs.registry import (
    Registry,
    Snapshot,
    TraceEvent,
    emit,
    get_registry,
    merge,
    set_registry,
)
from repro.obs.views import InstrumentedStats, counter_field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSample",
    "InstrumentedStats",
    "ObsProbe",
    "Registry",
    "Snapshot",
    "TraceEvent",
    "counter_field",
    "emit",
    "freeze_labels",
    "get_registry",
    "iter_samples",
    "merge",
    "render_events",
    "render_table",
    "set_registry",
    "to_jsonl",
]

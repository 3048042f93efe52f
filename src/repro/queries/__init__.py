"""Query serving tier: an operator algebra over snapshot-isolated stores.

The package grows the original helper module into the serving tier of
ROADMAP item 1, in layers:

* :mod:`repro.queries.algebra` — compositional plans: sources over the
  five primitive stores, combined with ``filter / map / reduce /
  distinct / topk / join / union``.
* :mod:`repro.queries.snapshot` — epoch-consistent store snapshots
  (cheap region copies at a batch-seq boundary).
* :mod:`repro.queries.engine` — plan execution with per-query cost
  accounting through ``repro.obs``.
* :mod:`repro.queries.serving` — registered queries re-evaluated each
  epoch against one coherent view.
* :mod:`repro.queries.library` — the operator workflows (path tracing,
  loss ledger, heavy hitters, flow health), re-expressed as plans.
* :mod:`repro.queries.catalog` — the shipped plan set the differential
  gate and the ``repro query`` CLI run.

The original module-level API (``PathTracer`` and friends) is
re-exported unchanged.
"""

from repro.queries.algebra import (
    Plan,
    append_entries,
    canon,
    counter_estimates,
    keywrite_values,
    literal_rows,
    postcard_paths,
    run_plan,
    sketch_estimates,
)
from repro.queries.engine import (
    CostLedger,
    QueryCost,
    QueryEngine,
    QueryResult,
)
from repro.queries.library import (
    FlowHealthReport,
    HeavyHitterScan,
    LossLedger,
    LossSummary,
    PathTracer,
    TraceResult,
)
from repro.queries.serving import EpochResults, QueryServer
from repro.queries.snapshot import CollectorSnapshot, snapshot_of

__all__ = [
    # algebra
    "Plan",
    "canon",
    "run_plan",
    "literal_rows",
    "keywrite_values",
    "counter_estimates",
    "sketch_estimates",
    "postcard_paths",
    "append_entries",
    # execution
    "QueryEngine",
    "QueryResult",
    "QueryCost",
    "CostLedger",
    # snapshots
    "CollectorSnapshot",
    "snapshot_of",
    # serving
    "QueryServer",
    "EpochResults",
    # operator library (original module API)
    "PathTracer",
    "TraceResult",
    "LossLedger",
    "LossSummary",
    "HeavyHitterScan",
    "FlowHealthReport",
]

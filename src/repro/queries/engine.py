"""Plan execution with per-query cost accounting through ``repro.obs``.

The serving tier's contract: a query runs against a well-defined view
(a snapshot at a batch boundary, or a quiesced live collector), and
every execution is charged to the observability registry —

* ``queries.executed`` — executions, labelled by query name;
* ``queries.rows_scanned`` — store entries probed (slots, counters,
  chunks, ring entries, sketch cells);
* ``queries.bytes_touched`` — region bytes those probes read;
* ``queries.rows_out`` — result rows returned to the caller;
* ``queries.wall_ns`` — wall-clock histogram per query name.

``queries.wall_ns`` is the one wall-clock-dependent series; it is
excluded from :func:`repro.runtime.engine.pipeline_digest` alongside
the ``runtime.*`` scheduling series, so cost accounting never perturbs
the determinism gates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.queries.algebra import ExecContext, Plan, run_plan
from repro.queries.snapshot import CollectorSnapshot, snapshot_of


@dataclass(frozen=True)
class QueryCost:
    """What one execution touched (deterministic) and took (wall)."""

    rows_scanned: int
    bytes_touched: int
    rows_out: int
    wall_ns: int


@dataclass(frozen=True)
class QueryResult:
    """Rows plus provenance: which view, at which batch boundary."""

    name: str
    rows: list
    cost: QueryCost
    batch_seq: int | None = None
    plan: str = ""

    def __len__(self) -> int:
        return len(self.rows)


class QueryEngine:
    """Executes plans against a collector, stream engine, or snapshot.

    Args:
        target: What to read —

            * a :class:`~repro.queries.snapshot.CollectorSnapshot`:
              plans run against it directly (many engines can share
              one frozen snapshot);
            * a live :class:`~repro.core.collector.Collector`: plans
              run directly over the live stores (the caller owns
              quiescence — the serial deployments' mode), or against a
              per-execution snapshot with ``isolate=True``;
            * a running :class:`~repro.runtime.engine.StreamEngine`:
              every execution reads a batch-boundary snapshot taken
              under the engine's store lock — always isolated.  The
              engine keeps that one snapshot and refreshes it in place
              each time, so a view it hands out (``QueryServer.tick``'s,
              or a result's provenance) is valid until its next
              execution or tick; :meth:`snapshot` is the copy to keep.
              One reader thread per engine, for the same reason:
              concurrent readers each build their own.
        isolate: Force a fresh snapshot per execution even for a plain
            collector target.
    """

    def __init__(self, target, *, isolate: bool = False) -> None:
        self.target = target
        self.isolate = isolate
        #: The snapshot of a stream-engine target this engine owns and
        #: refreshes; never handed to :meth:`snapshot` callers.
        self._kept: CollectorSnapshot | None = None

    # -- views -----------------------------------------------------------

    @property
    def stores(self):
        """The object whose store attributes reflect provisioning.

        For a stream-engine target this is its live collector — cheap
        to inspect without taking a snapshot.
        """
        target = self.target
        if hasattr(target, "store_lock"):          # StreamEngine
            return target.collector
        return target

    def snapshot(self) -> CollectorSnapshot:
        """A frozen view of the target, consistent per its mode."""
        target = self.target
        if isinstance(target, CollectorSnapshot):
            return target
        if hasattr(target, "store_lock"):          # StreamEngine
            return target.snapshot()
        return snapshot_of(target)

    def _view(self):
        target = self.target
        if isinstance(target, CollectorSnapshot):
            return target
        if hasattr(target, "store_lock"):          # StreamEngine
            self._kept = target.snapshot(into=self._kept)
            return self._kept
        if self.isolate:
            return self.snapshot()
        return target                               # quiesced collector

    # -- execution -------------------------------------------------------

    def execute(self, plan: Plan, *, name: str = "adhoc",
                snapshot=None) -> QueryResult:
        """Run ``plan``; returns rows + cost, charging ``queries.*``."""
        view = snapshot if snapshot is not None else self._view()
        ctx = ExecContext(view)
        start = time.perf_counter_ns()
        rows = run_plan(plan, view, ctx)
        wall_ns = time.perf_counter_ns() - start
        cost = QueryCost(rows_scanned=ctx.rows_scanned,
                         bytes_touched=ctx.bytes_touched,
                         rows_out=len(rows), wall_ns=wall_ns)
        self._account(name, cost)
        return QueryResult(name=name, rows=rows, cost=cost,
                           batch_seq=getattr(view, "batch_seq", None),
                           plan=plan.describe())

    @staticmethod
    def _account(name: str, cost: QueryCost) -> None:
        registry = obs.get_registry()
        registry.counter("queries.executed", query=name).inc()
        registry.counter("queries.rows_scanned", query=name).inc(
            cost.rows_scanned)
        registry.counter("queries.bytes_touched", query=name).inc(
            cost.bytes_touched)
        registry.counter("queries.rows_out", query=name).inc(cost.rows_out)
        registry.histogram("queries.wall_ns", query=name).observe(
            cost.wall_ns)


@dataclass
class CostLedger:
    """Cumulative per-query cost totals, for reports and artifacts."""

    totals: dict = field(default_factory=dict)

    def add(self, result: QueryResult) -> None:
        entry = self.totals.setdefault(result.name, {
            "executions": 0, "rows_scanned": 0, "bytes_touched": 0,
            "rows_out": 0, "wall_ns": 0, "plan": result.plan})
        entry["executions"] += 1
        entry["rows_scanned"] += result.cost.rows_scanned
        entry["bytes_touched"] += result.cost.bytes_touched
        entry["rows_out"] += result.cost.rows_out
        entry["wall_ns"] += result.cost.wall_ns

    def report(self) -> dict:
        """JSON-ready per-query totals, sorted by query name."""
        return {name: dict(self.totals[name])
                for name in sorted(self.totals)}

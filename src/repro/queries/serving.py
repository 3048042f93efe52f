"""The long-running serving loop: registered queries, per-epoch ticks.

A :class:`QueryServer` holds a set of named plans and re-evaluates all
of them against **one** snapshot per :meth:`tick` — so every query in
an epoch answers from the same batch boundary, the way a dashboard
wants its panels coherent.  Costs accumulate in a
:class:`~repro.queries.engine.CostLedger` (and, per execution, in the
``queries.*`` obs series), which is what the ``repro query`` CLI dumps
as the cost-accounting artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.queries.algebra import Plan
from repro.queries.engine import CostLedger, QueryEngine, QueryResult


@dataclass(frozen=True)
class EpochResults:
    """One tick's worth of evaluations, all from the same view."""

    epoch: int
    batch_seq: int | None
    results: dict            # name -> QueryResult

    def __getitem__(self, name: str) -> QueryResult:
        return self.results[name]


class QueryServer:
    """Evaluates registered plans each epoch over consistent snapshots.

    Args:
        target: What the engine reads — a collector, a running
            :class:`~repro.runtime.engine.StreamEngine` (snapshot per
            tick, at a batch boundary), or a frozen snapshot.

    Attributes:
        view: What the last :meth:`tick` read.  Over a stream engine it
            is the server's own snapshot, refreshed in place by the
            next tick: a reader that keeps it must compare its
            ``batch_seq`` with the one the tick reported, and take
            ``engine.snapshot()`` for a copy that stays put.
    """

    def __init__(self, target) -> None:
        self.engine = QueryEngine(target)
        self.ledger = CostLedger()
        self.epoch = 0
        self._plans: dict = {}
        self.last: EpochResults | None = None
        self.view = None

    # -- registration ----------------------------------------------------

    def register(self, name: str, plan: Plan) -> None:
        if not isinstance(plan, Plan):
            raise TypeError(f"register() wants a Plan, got {plan!r}")
        self._plans[name] = plan

    def unregister(self, name: str) -> None:
        self._plans.pop(name, None)

    @property
    def queries(self) -> list:
        return sorted(self._plans)

    # -- evaluation ------------------------------------------------------

    def tick(self) -> EpochResults:
        """Evaluate every registered plan against one fresh view."""
        view = self.view = self.engine._view()
        self.epoch += 1
        results = {}
        for name in sorted(self._plans):
            result = self.engine.execute(self._plans[name], name=name,
                                         snapshot=view)
            self.ledger.add(result)
            results[name] = result
        obs.get_registry().counter("queries.epochs").inc()
        self.last = EpochResults(epoch=self.epoch,
                                 batch_seq=getattr(view, "batch_seq",
                                                   None),
                                 results=results)
        return self.last

    # -- reporting -------------------------------------------------------

    def cost_report(self) -> dict:
        """JSON-ready cost accounting for every registered query."""
        return {
            "schema": "repro-query-costs/1",
            "epochs": self.epoch,
            "queries": self.ledger.report(),
        }

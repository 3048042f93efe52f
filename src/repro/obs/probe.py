"""ObsProbe: snapshot the registry around a block, assert on the diff.

The test-harness half of the observability layer.  A probe wraps any
code block; afterwards every metric's delta is queryable by name, and
conservation invariants ("reports sent == writes + shed + lost") are a
single :meth:`ObsProbe.assert_balance` call that prints the full ledger
when it fails.
"""

from __future__ import annotations

from repro.obs.metrics import HistogramSample
from repro.obs.registry import Registry, Snapshot, get_registry


class ObsProbe:
    """Delta-measuring window over a registry.

    Use as a context manager (re-enterable; each ``with`` starts a new
    window)::

        with obs_probe as p:
            drive_traffic()
        assert p["translator.keywrites"] == 100
        p.assert_balance("reporter.reports_sent",
                         "translator.reports_in", "link.random_drops")
    """

    def __init__(self, registry: Registry | None = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._start: Snapshot | None = None
        self._delta: Snapshot | None = None
        self._events_seq_at_start = 0

    # -- window control ------------------------------------------------

    def start(self) -> "ObsProbe":
        self._start = self.registry.snapshot()
        self._delta = None
        self._events_seq_at_start = self.registry._event_seq
        return self

    def stop(self) -> Snapshot:
        if self._start is None:
            raise RuntimeError("probe window never started")
        self._delta = self.registry.snapshot().diff(self._start)
        return self._delta

    def __enter__(self) -> "ObsProbe":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- reading deltas ------------------------------------------------

    @property
    def deltas(self) -> Snapshot:
        """The measured window (live against the registry while open)."""
        if self._delta is not None:
            return self._delta
        if self._start is None:
            raise RuntimeError("probe window never started")
        return self.registry.snapshot().diff(self._start)

    def delta(self, name: str, /, **labels):
        """Delta of one metric; without labels, summed across series."""
        if labels:
            return self.deltas.value(name, **labels)
        return self.deltas.total(name)

    __getitem__ = delta

    def events(self) -> list:
        """Trace events emitted inside the window so far."""
        if self._start is None:
            raise RuntimeError("probe window never started")
        # Events carry monotone seq numbers; replay the ring tail.
        return [e for e in self.registry.events
                if e.seq >= self._events_seq_at_start]

    # -- conservation assertions ---------------------------------------

    def assert_balance(self, lhs, *rhs, msg: str | None = None) -> None:
        """Assert ``delta(lhs) == sum(delta(r) for r in rhs)``.

        Each side term is a metric name, a constant number, or a
        ``(name, labels_dict)`` pair selecting one labelled series.
        On failure the error lists every term's delta so the broken
        conservation law reads like a ledger.
        """
        lhs_total, lhs_parts = self._side([lhs])
        rhs_total, rhs_parts = self._side(rhs)
        if lhs_total == rhs_total:
            return
        ledger = "\n".join(
            [f"  {label:<44} {value}" for label, value in
             lhs_parts + [("== (expected)", rhs_total)] + rhs_parts])
        raise AssertionError(
            (msg or "metric conservation violated")
            + f": {lhs_total} != {rhs_total}\n{ledger}")

    def _side(self, terms):
        total = 0
        parts = []
        for term in terms:
            if isinstance(term, (int, float)):
                value = term
                label = repr(term)
            elif isinstance(term, tuple):
                name, labels = term
                value = self.delta(name, **labels)
                label = f"{name}{labels}"
            else:
                value = self.delta(term)
                label = term
            if isinstance(value, HistogramSample):
                value = value.count
            total += value
            parts.append((label, value))
        return total, parts

"""The metrics registry: one namespace for every counter in the system.

The registry is the unification layer the ad-hoc ``*Stats`` dataclasses
never had: every component publishes its counters here under a dotted
``component.field`` name plus identifying labels, so exporters, the
``repro stats`` CLI, and the ``obs_probe`` test fixture all see one
coherent counter plane.

Lifecycle semantics — **last registration wins**: simulations build and
tear down components freely (every test constructs fresh reporters and
translators), so declaring a metric that already exists *replaces* the
registry's binding while the old owner keeps its detached instance.
Snapshots therefore always reflect the most recently constructed
component for any (name, labels) identity.

Epochs: the registry carries a monotonically increasing epoch number,
stamped onto snapshots and trace events.  :meth:`Registry.advance_epoch`
marks simulation-epoch boundaries (sketch rotation, measurement
windows) so per-epoch diffs line up with the paper's per-epoch
reporting model (Section 3.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSample,
    freeze_labels,
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured control-plane event (NACK, congestion, epoch...).

    Events are for the *rare* transitions worth narrating — loss
    detected, congestion signalled, epoch rotated — not per-report
    traffic; the bounded ring keeps memory flat on long runs.
    """

    seq: int
    epoch: int
    component: str
    event: str
    fields: tuple = ()      # sorted (key, value) pairs

    def as_dict(self) -> dict:
        return {"seq": self.seq, "epoch": self.epoch,
                "component": self.component, "event": self.event,
                **dict(self.fields)}

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.fields)
        return (f"#{self.seq} epoch={self.epoch} "
                f"{self.component}.{self.event} {detail}".rstrip())


@dataclass(frozen=True)
class Snapshot:
    """A point-in-time reading of every registered metric.

    ``samples`` maps ``(name, frozen_labels)`` to the metric's sampled
    value — a number for counters/gauges, a
    :class:`~repro.obs.metrics.HistogramSample` for histograms.
    """

    epoch: int
    samples: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)

    def value(self, name: str, /, **labels):
        """One labelled series (0 / empty histogram if absent)."""
        key = (name, freeze_labels(labels))
        return self.samples.get(key, 0)

    def total(self, name: str):
        """Sum of a metric across every label set."""
        out = None
        for (sample_name, _labels), value in self.samples.items():
            if sample_name == name:
                out = value if out is None else out + value
        return 0 if out is None else out

    def names(self) -> list:
        return sorted({name for name, _ in self.samples})

    def diff(self, older: "Snapshot") -> "Snapshot":
        """Per-metric deltas since ``older``.

        Metrics absent from ``older`` diff against zero; counters that
        went *backwards* (a component was rebuilt and re-registered)
        restart from their new absolute value rather than reporting a
        negative delta.
        """
        deltas: dict = {}
        for key, value in self.samples.items():
            base = older.samples.get(key)
            kind = self.kinds.get(key)
            if base is None:
                delta = value
            elif isinstance(value, HistogramSample):
                delta = value - base
                if delta.count < 0:
                    delta = value
            else:
                delta = value - base
                if kind == "counter" and delta < 0:
                    delta = value
            deltas[key] = delta
        return Snapshot(epoch=self.epoch, samples=deltas,
                        kinds=dict(self.kinds))


def merge(parts) -> Snapshot:
    """Many snapshots as one: ``parts`` holds ``(labels, snapshot)``.

    Each series gains its part's ``labels``; series that then share a
    name and labels add up, whatever their kind.  Labelled per process,
    this is the view of a run that spans processes; with empty labels,
    the roll-up across them."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to merge")
    samples: dict = {}
    kinds: dict = {}
    for labels, snapshot in parts:
        for (name, own), value in snapshot.samples.items():
            key = (name, freeze_labels({**dict(own), **labels}))
            samples[key] = samples[key] + value if key in samples else value
            kinds[key] = snapshot.kinds.get((name, own), "counter")
    return Snapshot(max(snapshot.epoch for _l, snapshot in parts),
                    samples, kinds)


class Registry:
    """Holds every metric plus the trace-event ring.

    Args:
        max_events: Trace ring capacity (oldest events fall off).
    """

    def __init__(self, max_events: int = 16384) -> None:
        self._metrics: dict = {}        # (name, labels) -> Metric
        self.events: deque = deque(maxlen=max_events)
        self.epoch = 0
        self._event_seq = 0

    # ------------------------------------------------------------------
    # Metric creation
    # ------------------------------------------------------------------

    def counter(self, name: str, /, **labels) -> Counter:
        """Get-or-create a counter (shared across callers)."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, /, fn=None, **labels) -> Gauge:
        """Get-or-create a gauge; ``fn`` makes it callback-sampled."""
        gauge = self._get_or_create(Gauge, name, labels)
        if fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str, /, **labels) -> Histogram:
        """Get-or-create a fixed-log2-bucket histogram."""
        return self._get_or_create(Histogram, name, labels)

    def declare_counter(self, name: str, /, **labels) -> Counter:
        """A *fresh* counter bound to (name, labels), replacing any
        previous binding — the constructor path for per-instance
        ``*Stats`` views (see module docstring on lifecycle)."""
        metric = Counter(name, labels)
        self._metrics[metric.key] = metric
        return metric

    def declare_gauge(self, name: str, /, fn=None, **labels) -> Gauge:
        """A fresh gauge bound to (name, labels), replacing any
        previous binding (e.g. per-queue depth gauges that must not be
        shared across engine instances)."""
        metric = Gauge(name, labels)
        if fn is not None:
            metric.fn = fn
        self._metrics[metric.key] = metric
        return metric

    def declare_histogram(self, name: str, /, **labels) -> Histogram:
        """A fresh histogram bound to (name, labels), replacing any
        previous binding."""
        metric = Histogram(name, labels)
        self._metrics[metric.key] = metric
        return metric

    def _get_or_create(self, cls, name: str, labels: dict):
        key = (name, freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name} already registered as {metric.kind}")
        return metric

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> list:
        """Every registered metric, sorted by (name, labels)."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str, /, **labels):
        return self._metrics.get((name, freeze_labels(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Epochs, snapshots, events
    # ------------------------------------------------------------------

    def advance_epoch(self) -> int:
        """Mark an epoch boundary; returns the new epoch number."""
        self.epoch += 1
        self.emit("obs", "epoch_advance", epoch=self.epoch)
        return self.epoch

    def snapshot(self) -> Snapshot:
        samples = {}
        kinds = {}
        for key, metric in self._metrics.items():
            samples[key] = metric.sample()
            kinds[key] = metric.kind
        return Snapshot(epoch=self.epoch, samples=samples, kinds=kinds)

    def emit(self, component: str, event: str, /, **fields) -> TraceEvent:
        """Record one structured trace event."""
        trace = TraceEvent(seq=self._event_seq, epoch=self.epoch,
                           component=component, event=event,
                           fields=tuple(sorted(fields.items())))
        self._event_seq += 1
        self.events.append(trace)
        return trace

    def reset(self) -> None:
        """Drop every metric and event (fresh-run isolation)."""
        self._metrics.clear()
        self.events.clear()
        self.epoch = 0
        self._event_seq = 0


# ----------------------------------------------------------------------
# The process-default registry
# ----------------------------------------------------------------------

_default = Registry()


def get_registry() -> Registry:
    """The registry components bind to unless given one explicitly."""
    return _default


def set_registry(registry: Registry) -> Registry:
    """Swap the process-default registry; returns the previous one."""
    global _default
    previous = _default
    _default = registry
    return previous


def emit(component: str, event: str, /, **fields) -> TraceEvent:
    """Emit a trace event on the default registry."""
    return _default.emit(component, event, **fields)

"""Metric primitives: counters, gauges, and log2-bucketed histograms.

Every metric is identified by a ``name`` (dotted: ``component.field``)
plus a frozen set of labels (``node="r0"``, ``link="r0->translator"``).
Instances are plain mutable objects — the :class:`~repro.obs.registry.
Registry` owns the name->instance mapping and snapshotting; the hot
path only ever touches ``inc``/``set``/``observe``.
"""

from __future__ import annotations

LabelItems = tuple  # tuple[tuple[str, str], ...], sorted by key


def freeze_labels(labels: dict | None) -> LabelItems:
    """Canonical hashable form of a label dict."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common identity for all metric kinds."""

    kind = "metric"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = freeze_labels(labels)

    @property
    def key(self) -> tuple:
        return (self.name, self.labels)

    @property
    def component(self) -> str:
        """Leading dotted segment of the name."""
        return self.name.split(".", 1)[0]

    def __repr__(self) -> str:
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        suffix = f"{{{labels}}}" if labels else ""
        return f"<{type(self).__name__} {self.name}{suffix} {self.sample()}>"

    def sample(self):
        raise NotImplementedError


class Counter(Metric):
    """A monotonically *intended* counter.

    ``set`` exists because the legacy ``*Stats`` facades assign through
    it (``stats.x += 1`` reads then writes) and because components reset
    their stats wholesale; the registry's diff treats negative deltas as
    a rebind and clamps at the new absolute value.
    """

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: dict | None = None,
                 value: float = 0) -> None:
        super().__init__(name, labels)
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value

    def sample(self):
        return self.value


class Gauge(Metric):
    """A point-in-time level (queue depth, cache occupancy).

    ``fn`` turns the gauge into a callback metric: the registry samples
    the callable at snapshot time, so components can expose derived or
    externally-held state without per-event bookkeeping.
    """

    kind = "gauge"
    __slots__ = ("value", "fn")

    def __init__(self, name: str, labels: dict | None = None,
                 value: float = 0, fn=None) -> None:
        super().__init__(name, labels)
        self.value = value
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def sample(self):
        if self.fn is not None:
            return self.fn()
        return self.value


class Histogram(Metric):
    """Fixed log2-bucket histogram for non-negative sizes/counts.

    Bucket ``i`` counts observations ``v`` with ``bit_length(int(v)) ==
    i`` — i.e. bucket 0 holds zeros, bucket i holds ``2**(i-1) <= v <
    2**i`` — and the final bucket absorbs everything larger.  Fixed
    buckets keep snapshots diffable (same shape forever) and match how
    switch ASICs bin packet/batch sizes.
    """

    kind = "histogram"
    __slots__ = ("buckets", "count", "total")

    NUM_BUCKETS = 32

    def __init__(self, name: str, labels: dict | None = None) -> None:
        super().__init__(name, labels)
        self.buckets = [0] * self.NUM_BUCKETS
        self.count = 0
        self.total = 0

    def observe(self, value) -> None:
        v = int(value)
        if v < 0:
            raise ValueError("histogram observations must be >= 0")
        index = min(v.bit_length(), self.NUM_BUCKETS - 1)
        self.buckets[index] += 1
        self.count += 1
        self.total += value

    def observe_many(self, values) -> None:
        """Observe a burst of values with one pass of bookkeeping.

        Identical end state to calling :meth:`observe` per value (the
        batched hot path relies on that equivalence); the per-value
        work is reduced to the bucket update itself.
        """
        buckets = self.buckets
        last = self.NUM_BUCKETS - 1
        count = 0
        total = self.total
        for value in values:
            v = int(value)
            if v < 0:
                raise ValueError("histogram observations must be >= 0")
            buckets[min(v.bit_length(), last)] += 1
            count += 1
            total += value
        self.count += count
        self.total = total

    def observe_repeated(self, value, times: int) -> None:
        """Observe the same value ``times`` times in O(1).

        Identical end state to ``observe(value)`` in a loop — the
        vectorized lanes emit bursts of uniform payload sizes, for
        which per-value bucketing is pure overhead.
        """
        if times <= 0:
            return
        v = int(value)
        if v < 0:
            raise ValueError("histogram observations must be >= 0")
        self.buckets[min(v.bit_length(), self.NUM_BUCKETS - 1)] += times
        self.count += times
        self.total += value * times

    def sample(self):
        return HistogramSample(count=self.count, total=self.total,
                               buckets=tuple(self.buckets))


class HistogramSample:
    """Immutable histogram reading; supports diffing."""

    __slots__ = ("count", "total", "buckets")

    def __init__(self, count: int, total, buckets: tuple) -> None:
        self.count = count
        self.total = total
        self.buckets = buckets

    def __add__(self, other: "HistogramSample") -> "HistogramSample":
        return HistogramSample(
            self.count + other.count, self.total + other.total,
            tuple(map(sum, zip(self.buckets, other.buckets))))

    def __sub__(self, older: "HistogramSample") -> "HistogramSample":
        return HistogramSample(
            count=self.count - older.count,
            total=self.total - older.total,
            buckets=tuple(a - b for a, b in zip(self.buckets,
                                                older.buckets)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HistogramSample):
            return NotImplemented
        return (self.count == other.count and self.total == other.total
                and self.buckets == other.buckets)

    def __repr__(self) -> str:
        nonzero = " ".join(f"{i}:{n}" for i, n in enumerate(self.buckets)
                           if n)
        return f"<hist n={self.count} sum={self.total} [{nonzero}]>"

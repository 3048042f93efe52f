"""The compositional query algebra over DTA collector stores.

Sonata (SIGCOMM'18) expresses telemetry questions as chains of dataflow
operators; :mod:`repro.telemetry.sonata_dataflow` already runs that
model on the *switch* side.  This module is the collector-side half:
a :class:`Plan` is a source over one of the five primitive stores
(Key-Write slots, Key-Increment counters, Postcarding chunks, Append
lists, the merged sketch) composed with ``filter / map / reduce /
distinct / topk / join / union`` operators, evaluated lazily against a
:class:`~repro.queries.snapshot.CollectorSnapshot` (or a quiesced live
collector — the two expose the same store attributes).

Rows are plain dicts — that is what every operator callable sees and
what :func:`run_plan` returns.  The one exception lives between
operators: :class:`AppendRows`, the published entries of Append lists
kept as byte columns until something iterates them, which ``union``
and ``reduce(key="list_id", how="count")`` pass along and fold without
materialising a dict (see "Read kernels" in ``docs/ARCHITECTURE.md``).
Every operator that changes cardinality
(``reduce``, ``distinct``, ``topk``) emits its rows in a *canonical
order*, which is what makes the algebra's determinism claims checkable:

* evaluating a plan twice over the same snapshot is bit-equal;
* ``reduce`` with a commutative ``how`` (sum/min/max/count) and
  ``distinct`` are insensitive to source row order;
* ``filter(p).filter(q) == filter(q).filter(p)``;
* ``topk(k=None)`` is a total ordering — ``topk(k)`` is its prefix.

:func:`canon` is the one definition of that order (and of key equality
in ``reduce``, ``distinct`` and ``join``).  The operators do not call
it per row: they key on plain values, derived one column at a time by
:func:`_column_keys` — a column of one exact type among bytes, int and
str (or of tuples of one) is its own keys, since ``canon`` compares
such values as themselves; any other column is keyed by ``canon``.
Whole dict rows with the same fields are keyed by those columns in
``str(field)`` order, which is what ``canon(row)`` compares.

Cost accounting flows through the :class:`ExecContext` the sources
receive: every store probe records rows scanned and bytes touched, so
:class:`repro.queries.engine.QueryEngine` can charge each query to the
``queries.*`` obs series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter

import numpy as np

from repro import calibration
from repro.core.stores.append import entry_data
from repro.core.stores.keyincrement import COUNTER_BYTES
from repro.kernels.crc import pack_keys

# ----------------------------------------------------------------------
# Canonical ordering — mixed-type, total, deterministic
# ----------------------------------------------------------------------


def canon(value):
    """A sort key imposing one total order across row value types.

    Rows mix bytes keys, int counters, str labels, and list paths; a
    plain ``sorted`` would raise on the first cross-type comparison.
    """
    kind = type(value)
    if kind is bytes:           # what most row values are, by exact type
        return (3, value)
    if kind is int:
        return (2, value)
    # The containers first: they recurse, so every check ahead of them
    # is paid once per nested value.  The classes are disjoint but for
    # bool < int, which keeps its order.
    if isinstance(value, (tuple, list)):
        return (5, tuple(map(canon, value)))
    if isinstance(value, dict):
        return (6, tuple(sorted([(str(k), canon(v))
                                 for k, v in value.items()])))
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, (bytes, bytearray)):
        return (3, bytes(value))
    if isinstance(value, str):
        return (4, value)
    if isinstance(value, np.generic):   # a numpy scalar: what it holds
        return canon(value.item())
    return (7, repr(value))


_PLAIN = frozenset((bytes, int, str))
_SEQUENCES = frozenset((tuple, list))


def _column_keys(values: list) -> list:
    """Keys for one column of values: ordered, and equal, exactly as
    :func:`canon` orders them.

    Values of one exact type among bytes, int and str are their own
    keys — ``canon`` tags them alike and compares the values.  So are
    tuples (lists, made tuples) whose items share one such type: ``canon``
    compares those item by item.  Any other column is keyed by ``canon``.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1 and kinds <= _PLAIN:
        return values
    if kinds and kinds <= _SEQUENCES:
        items = set(map(type, chain.from_iterable(values)))
        if len(items) <= 1 and items <= _PLAIN:
            return values if list not in kinds else list(map(tuple, values))
    return list(map(canon, values))


def _row_keys(rows: list) -> list:
    """Keys for whole rows, ordered and equal as ``canon(row)``.

    Dict rows with the same str-named fields are keyed by the tuple of
    their fields' column keys in name order — the pairs ``canon(row)``
    compares, with the names equal at every position.  Other rows are
    keyed by ``canon``.
    """
    if rows and set(map(type, rows)) == {dict}:
        names = list(rows[0])
        if (set(map(type, names)) == {str}
                and set(map(len, rows)) == {len(names)}):
            try:
                columns = [list(map(itemgetter(name), rows))
                           for name in sorted(names)]
            except KeyError:            # as many fields, not the same
                pass
            else:
                return list(zip(*map(_column_keys, columns)))
    return list(map(canon, rows))


def _getter(spec):
    """Field access: a string names a row column, a callable is used
    as-is (the escape hatch for computed keys)."""
    if callable(spec):
        return spec
    return itemgetter(spec)


# ----------------------------------------------------------------------
# Execution context — where cost accounting accumulates
# ----------------------------------------------------------------------


@dataclass
class ExecContext:
    """Per-execution scratch: the snapshot plus cost accumulators."""

    snapshot: object
    rows_scanned: int = 0
    bytes_touched: int = 0

    def scanned(self, rows: int, bytes_touched: int) -> None:
        self.rows_scanned += rows
        self.bytes_touched += bytes_touched

    def store(self, attr: str):
        store = getattr(self.snapshot, attr, None)
        if store is None:
            raise RuntimeError(
                f"query needs the '{attr}' service, which the snapshot "
                "does not carry")
        return store


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------


class Source:
    """Produces the root rows of a plan from a snapshot: a list of
    dicts, or anything that iterates as one (:class:`AppendRows`)."""

    def rows(self, ctx: ExecContext) -> list:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class LiteralRows(Source):
    """A fixed row list — joins against operator watchlists, tests."""

    items: tuple

    def rows(self, ctx: ExecContext) -> list:
        return [dict(row) for row in self.items]

    def describe(self) -> str:
        return f"literal[{len(self.items)}]"


class KeyedSource(Source):
    """A source probing one store for a fixed candidate key set.

    The probe is the store's batched one (``query_many`` /
    ``point_query_many``): the keys are packed into a byte matrix once
    per source — plans are immutable and re-run every tick — and each
    execution is one hash pass and one gather, whatever the key count.
    The accounted cost stays the modelled per-key scan.
    """

    keys: tuple

    @cached_property
    def packed(self) -> tuple:
        """``kernels.crc.pack_keys(keys)``, built on first use."""
        return pack_keys(self.keys)


@dataclass(frozen=True)
class KeyWriteValues(KeyedSource):
    """Key-Write lookups for a candidate key set.

    Rows: ``{"key", "value", "found", "matched_slots"}`` — ``value`` is
    ``None`` on an empty return, exactly the store's query semantics.
    """

    keys: tuple
    redundancy: int | None = None
    consensus: int = 1

    def rows(self, ctx: ExecContext) -> list:
        store = ctx.store("keywrite")
        found, values, matched = store.query_many(
            self.keys, redundancy=self.redundancy,
            consensus=self.consensus, packed=self.packed)
        reads = len(self.keys) * (self.redundancy
                                  or calibration.DEFAULT_REDUNDANCY)
        ctx.scanned(reads, reads * store.layout.slot_bytes)
        return [{"key": key, "value": value if hit else None,
                 "found": hit, "matched_slots": slots}
                for key, value, hit, slots in zip(
                    self.keys, values.tolist(), found.tolist(),
                    matched.tolist())]

    def describe(self) -> str:
        return f"keywrite[{len(self.keys)}]"


@dataclass(frozen=True)
class CounterEstimates(KeyedSource):
    """Key-Increment CMS point estimates for a candidate key set.

    Rows: ``{"key", "count"}``.
    """

    keys: tuple
    redundancy: int | None = None

    def rows(self, ctx: ExecContext) -> list:
        store = ctx.store("keyincrement")
        counts = store.query_many(self.keys, redundancy=self.redundancy,
                                  packed=self.packed)
        reads = len(self.keys) * min(self.redundancy or store.layout.rows,
                                     store.layout.rows)
        ctx.scanned(reads, reads * COUNTER_BYTES)
        return [{"key": key, "count": count}
                for key, count in zip(self.keys, counts)]

    def describe(self) -> str:
        return f"counters[{len(self.keys)}]"


@dataclass(frozen=True)
class SketchEstimates(KeyedSource):
    """Merged-sketch CMS estimates for a candidate key set.

    Rows: ``{"key", "estimate"}``, from one
    :meth:`SketchStore.point_query_many
    <repro.core.stores.sketchstore.SketchStore.point_query_many>` —
    each key's ``depth`` cells read through an array view of the
    region; nothing is unpacked.  The *accounted* cost is still one
    full region scan (``width * depth`` cells): the modelled collector
    reads the sketch it was sent, and the digest-covered ``queries.*``
    series keep that meaning.
    """

    keys: tuple
    depth: int | None = None

    def rows(self, ctx: ExecContext) -> list:
        store = ctx.store("sketch")
        layout = store.layout
        ctx.scanned(layout.width * layout.depth, layout.region_bytes)
        estimates = store.point_query_many(self.keys, rows=self.depth,
                                           packed=self.packed)
        return [{"key": key, "estimate": estimate}
                for key, estimate in zip(self.keys, estimates)]

    def describe(self) -> str:
        return f"sketch[{len(self.keys)}]"


@dataclass(frozen=True)
class PostcardPaths(KeyedSource):
    """Postcarding path lookups for a candidate key set.

    Rows: ``{"key", "path", "found"}`` — ``path`` is ``None`` when the
    chunks are empty or inconsistent (Appendix A.7 semantics).
    """

    keys: tuple
    redundancy: int = 1

    def rows(self, ctx: ExecContext) -> list:
        store = ctx.store("postcarding")
        paths = store.query_many(self.keys, redundancy=self.redundancy,
                                 packed=self.packed)
        reads = len(self.keys) * self.redundancy
        ctx.scanned(reads, reads * store.layout.chunk_payload_bytes)
        return [{"key": key, "path": path, "found": path is not None}
                for key, path in zip(self.keys, paths)]

    def describe(self) -> str:
        return f"postcards[{len(self.keys)}]"


class AppendRows:
    """Published Append entries as columns; dicts only on iteration.

    ``parts`` is a tuple of ``(list_id, start, entries)``: ``entries``
    the ``(n, entry_bytes)`` array :meth:`AppendStore.published
    <repro.core.stores.append.AppendStore.published>` returned for the
    run starting at absolute position ``start``.  Iterating yields the
    ``{"list_id", "index", "data"}`` rows an operator expects, fresh
    dicts each time; :class:`Union` and a ``list_id`` count in
    :class:`Reduce` read ``parts`` instead and never build them.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple) -> None:
        self.parts = parts

    def __len__(self) -> int:
        return sum(len(entries) for _list_id, _start, entries in self.parts)

    def __iter__(self):
        for list_id, start, entries in self.parts:
            for index, data in enumerate(entry_data(entries), start):
                yield {"list_id": list_id, "index": index, "data": data}


@dataclass(frozen=True)
class AppendEntries(Source):
    """Published entries of one Append list, in landing order.

    Rows: ``{"list_id", "index", "data"}``; ``index`` is the absolute
    position (head count) of the entry.  Scanning starts at ``start``
    and ends at the first unpublished slot (lap-tag mismatch) or after
    ``limit`` rows — the poller protocol, which
    :meth:`AppendStore.published` runs as one compare.  Returns
    :class:`AppendRows`; with ``decode`` set the rows are materialised
    here (``decode`` may raise, so it must run whether or not a later
    operator looks at ``data``) and come back as a plain list.

    The charge is the scalar walk's: one entry read per row plus the
    mismatching one that ended the run, or exactly ``limit``.
    """

    list_id: int
    start: int = 0
    limit: int | None = None
    decode: object = None     # optional callable: raw bytes -> value

    def rows(self, ctx: ExecContext):
        store = ctx.store("append")
        entries = store.published(self.list_id, self.start, self.limit)
        count = len(entries)
        capped = self.limit is not None and count >= self.limit
        reads = count if capped else count + 1
        ctx.scanned(reads, reads * store.layout.entry_bytes)
        rows = AppendRows(((self.list_id, self.start, entries),))
        if self.decode is None:
            return rows
        out = list(rows)
        for row in out:
            row["data"] = self.decode(row["data"])
        return out

    def describe(self) -> str:
        return f"append[list={self.list_id}, start={self.start}]"


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------


class Operator:
    def apply(self, rows: list, ctx: ExecContext) -> list:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Filter(Operator):
    predicate: object

    def apply(self, rows, ctx):
        predicate = self.predicate
        return [row for row in rows if predicate(row)]

    def describe(self) -> str:
        return "filter"


@dataclass(frozen=True)
class Map(Operator):
    """1:1 row transform (project, decode, annotate)."""

    fn: object

    def apply(self, rows, ctx):
        fn = self.fn
        return [fn(row) for row in rows]

    def describe(self) -> str:
        return "map"


@dataclass(frozen=True)
class Distinct(Operator):
    """Set semantics: one row per distinct key, canonically ordered.

    The canonical output order is what makes ``distinct`` insensitive
    to source row order — the first-seen row of each key is kept, but
    emission order never depends on arrival order.
    """

    key: object = None

    def apply(self, rows, ctx):
        rows = list(rows)
        keys = (_row_keys(rows) if self.key is None
                else _column_keys(list(map(_getter(self.key), rows))))
        # Filled back to front, each key ends on its first-seen row.
        seen = dict(zip(reversed(keys), reversed(rows)))
        return list(map(seen.__getitem__, sorted(seen)))

    def describe(self) -> str:
        return "distinct"


_REDUCERS = {
    "sum": lambda acc, value: acc + value,
    "min": min,
    "max": max,
    "count": lambda acc, value: acc + 1,
}
_REDUCE_INIT = {"sum": 0, "count": 0}


@dataclass(frozen=True)
class Reduce(Operator):
    """Group-by + commutative aggregate.

    Emits ``{"key": group, "value": aggregate}`` rows sorted by the
    canonical group order.  ``how`` must be commutative/associative
    (sum, min, max, count) — that is the operator's order-insensitivity
    contract, and the property suite holds it to that.  Counting
    :class:`AppendRows` by ``"list_id"`` folds part lengths instead of
    rows; every other key, value or ``how`` iterates.
    """

    key: object
    value: object = None
    how: str = "sum"

    def __post_init__(self) -> None:
        if self.how not in _REDUCERS:
            raise ValueError(
                f"unknown reduce how={self.how!r} "
                f"(choose from {', '.join(sorted(_REDUCERS))})")

    def apply(self, rows, ctx):
        fold = _REDUCERS[self.how]
        init = _REDUCE_INIT.get(self.how)
        if (isinstance(rows, AppendRows) and self.how == "count"
                and self.key == "list_id" and self.value is None):
            # ``list_id`` is constant per part: fold lengths, not rows.
            pairs = [(list_id, len(entries))
                     for list_id, _start, entries in rows.parts
                     if len(entries)]
            fold = _REDUCERS["sum"]
        else:
            key_fn = _getter(self.key)
            value_fn = (_getter(self.value) if self.value is not None
                        else lambda row: 1)
            pairs = [(key_fn(row), value_fn(row)) for row in rows]
        groups: dict = {}
        slots = _column_keys([group for group, _value in pairs])
        for slot, (group, value) in zip(slots, pairs):
            held = groups.get(slot)
            if held is None:
                groups[slot] = (group,
                                fold(init, value) if init is not None
                                else value)
            else:
                groups[slot] = (group, fold(held[1], value))
        return [{"key": group, "value": value}
                for group, value in map(groups.__getitem__, sorted(groups))]

    def describe(self) -> str:
        return f"reduce[{self.how}]"


@dataclass(frozen=True)
class TopK(Operator):
    """The ``k`` largest rows by a metric, ties broken canonically.

    ``k=None`` keeps every row — a deterministic total ordering, so
    ``topk(k)`` is always a prefix of ``topk(None)``.
    """

    k: int | None
    by: object
    reverse: bool = True

    def apply(self, rows, ctx):
        rows = list(rows)
        metric = _column_keys(list(map(_getter(self.by), rows))).__getitem__
        order = sorted(range(len(rows)), key=metric, reverse=self.reverse)
        # The whole-row key only breaks ties, so it is derived only
        # inside groups tied on the metric.
        ordered = []
        for _metric, tied in groupby(order, key=metric):
            if self.k is not None and len(ordered) >= self.k:
                break
            group = list(map(rows.__getitem__, tied))
            if len(group) > 1:
                keys = _row_keys(group).__getitem__
                group = list(map(group.__getitem__, sorted(
                    range(len(group)), key=keys, reverse=self.reverse)))
            ordered += group
        if self.k is None:
            return ordered
        return ordered[:self.k]

    def describe(self) -> str:
        return f"topk[{self.k if self.k is not None else 'all'}]"


@dataclass(frozen=True)
class Join(Operator):
    """Hash join against another plan, evaluated on the same snapshot.

    ``on`` names the join key in both row sets (or is a callable
    applied to both); right-side fields merge into the left row, the
    left value winning on column clashes.  ``how="inner"`` drops
    unmatched left rows, ``how="left"`` keeps them unmerged.
    """

    other: object            # Plan
    on: object
    how: str = "inner"

    def __post_init__(self) -> None:
        if self.how not in ("inner", "left"):
            raise ValueError(f"unknown join how={self.how!r}")

    def apply(self, rows, ctx):
        on_fn = _getter(self.on)
        right_rows = list(_run(self.other, ctx))
        rows = list(rows)
        # Both sides' join values are one column, so their keys compare.
        keys = _column_keys(list(map(on_fn, right_rows))
                            + list(map(on_fn, rows)))
        right: dict = {}
        for key, row in zip(keys, right_rows):
            right.setdefault(key, []).append(row)
        out = []
        for key, row in zip(keys[len(right_rows):], rows):
            matches = right.get(key)
            if matches is None:
                if self.how == "left":
                    out.append(dict(row))
                continue
            for match in matches:
                out.append({**match, **row})
        return out

    def describe(self) -> str:
        return f"join[{self.how}]({self.other.describe()})"


@dataclass(frozen=True)
class Union(Operator):
    """Concatenate another plan's rows (bag union, left rows first).

    Two :class:`AppendRows` concatenate their parts and stay columns.
    """

    other: object            # Plan

    def apply(self, rows, ctx):
        other = _run(self.other, ctx)
        if isinstance(rows, AppendRows) and isinstance(other, AppendRows):
            return AppendRows(rows.parts + other.parts)
        return [*rows, *other]

    def describe(self) -> str:
        return f"union({self.other.describe()})"


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """A source plus a chain of operators; immutable and composable.

    Combinators return new plans, so partial plans can be shared::

        candidates = counter_estimates(keys)
        heavy = candidates.filter(lambda r: r["count"] >= 100)
        top = heavy.topk(10, by="count")
    """

    source: Source
    ops: tuple = field(default_factory=tuple)

    def _with(self, op: Operator) -> "Plan":
        return Plan(self.source, self.ops + (op,))

    def filter(self, predicate) -> "Plan":
        return self._with(Filter(predicate))

    def map(self, fn) -> "Plan":
        return self._with(Map(fn))

    def distinct(self, key=None) -> "Plan":
        return self._with(Distinct(key))

    def reduce(self, key, value=None, how: str = "sum") -> "Plan":
        return self._with(Reduce(key, value, how))

    def topk(self, k: int | None, by, *, reverse: bool = True) -> "Plan":
        return self._with(TopK(k, by, reverse))

    def join(self, other: "Plan", on, how: str = "inner") -> "Plan":
        return self._with(Join(other, on, how))

    def union(self, other: "Plan") -> "Plan":
        return self._with(Union(other))

    def describe(self) -> str:
        chain = " | ".join([self.source.describe()]
                           + [op.describe() for op in self.ops])
        return chain


def _run(plan: Plan, ctx: ExecContext):
    """Rows of ``plan``: a list, or :class:`AppendRows` still columnar."""
    rows = plan.source.rows(ctx)
    for op in plan.ops:
        rows = op.apply(rows, ctx)
    return rows


def run_plan(plan: Plan, snapshot, ctx: ExecContext | None = None) -> list:
    """Evaluate ``plan`` against ``snapshot``; returns the row list.

    ``snapshot`` is anything exposing the served-store attributes — a
    :class:`~repro.queries.snapshot.CollectorSnapshot` for isolated
    reads, or a quiesced live :class:`~repro.core.collector.Collector`.
    Pass an :class:`ExecContext` to accumulate cost across plans.
    """
    if ctx is None:
        ctx = ExecContext(snapshot)
    rows = _run(plan, ctx)
    return rows if isinstance(rows, list) else list(rows)


# ----------------------------------------------------------------------
# Plan builders — the public spelling of the sources
# ----------------------------------------------------------------------


def literal_rows(rows) -> Plan:
    return Plan(LiteralRows(tuple(dict(row) for row in rows)))


def keywrite_values(keys, *, redundancy: int | None = None,
                    consensus: int = 1) -> Plan:
    return Plan(KeyWriteValues(tuple(keys), redundancy, consensus))


def counter_estimates(keys, *, redundancy: int | None = None) -> Plan:
    return Plan(CounterEstimates(tuple(keys), redundancy))


def sketch_estimates(keys, *, depth: int | None = None) -> Plan:
    return Plan(SketchEstimates(tuple(keys), depth))


def postcard_paths(keys, *, redundancy: int = 1) -> Plan:
    return Plan(PostcardPaths(tuple(keys), redundancy))


def append_entries(list_id: int, *, start: int = 0,
                   limit: int | None = None, decode=None) -> Plan:
    return Plan(AppendEntries(list_id, start, limit, decode))

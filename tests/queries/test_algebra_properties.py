"""Property suite: the algebra's determinism and identity claims.

These are the claims the module docstring of
:mod:`repro.queries.algebra` makes checkable; hypothesis drives them
over generated row bags and permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.queries import algebra
from repro.queries.algebra import canon, run_plan

keys = st.sampled_from(["a", "b", "c", "d"])
rows = st.lists(
    st.fixed_dictionaries({"k": keys, "v": st.integers(-50, 50)}),
    max_size=24)
row_bag = st.tuples(rows, st.randoms(use_true_random=False))


def _shuffled(items, rng):
    out = list(items)
    rng.shuffle(out)
    return out


@given(rows)
def test_evaluation_is_deterministic(items):
    plan = (algebra.literal_rows(items)
            .filter(lambda r: r["v"] % 2 == 0)
            .reduce(key="k", value="v")
            .topk(None, by="value"))
    assert run_plan(plan, None) == run_plan(plan, None)


@given(rows)
def test_filters_commute(items):
    p = lambda r: r["v"] >= 0          # noqa: E731
    q = lambda r: r["k"] != "c"        # noqa: E731
    lit = algebra.literal_rows(items)
    assert run_plan(lit.filter(p).filter(q), None) \
        == run_plan(lit.filter(q).filter(p), None)


@given(rows)
def test_distinct_is_idempotent(items):
    once = run_plan(algebra.literal_rows(items).distinct(), None)
    twice = run_plan(algebra.literal_rows(once).distinct(), None)
    assert once == twice


@given(row_bag)
def test_distinct_whole_row_is_order_insensitive(bag):
    items, rng = bag
    assert run_plan(algebra.literal_rows(items).distinct(), None) \
        == run_plan(algebra.literal_rows(_shuffled(items, rng))
                    .distinct(), None)


@given(row_bag)
def test_reduce_sum_is_order_insensitive(bag):
    items, rng = bag
    plan = algebra.literal_rows(items).reduce(key="k", value="v")
    shuffled = algebra.literal_rows(_shuffled(items, rng)) \
        .reduce(key="k", value="v")
    assert run_plan(plan, None) == run_plan(shuffled, None)


@given(row_bag)
def test_reduce_min_max_count_are_order_insensitive(bag):
    items, rng = bag
    for how in ("min", "max", "count"):
        plan = algebra.literal_rows(items) \
            .reduce(key="k", value="v", how=how)
        shuffled = algebra.literal_rows(_shuffled(items, rng)) \
            .reduce(key="k", value="v", how=how)
        assert run_plan(plan, None) == run_plan(shuffled, None)


@given(row_bag)
def test_topk_none_is_an_order_insensitive_total_order(bag):
    items, rng = bag
    total = run_plan(algebra.literal_rows(items).topk(None, by="v"),
                     None)
    again = run_plan(algebra.literal_rows(_shuffled(items, rng))
                     .topk(None, by="v"), None)
    assert total == again
    values = [r["v"] for r in total]
    assert values == sorted(values, reverse=True)


@given(rows, st.integers(0, 30))
def test_topk_k_is_a_prefix_of_the_total_order(items, k):
    lit = algebra.literal_rows(items)
    total = run_plan(lit.topk(None, by="v"), None)
    assert run_plan(lit.topk(k, by="v"), None) == total[:k]


@given(rows)
def test_reduce_sum_equals_python_sum(items):
    reduced = run_plan(algebra.literal_rows(items)
                       .reduce(key="k", value="v"), None)
    expected = {}
    for row in items:
        expected[row["k"]] = expected.get(row["k"], 0) + row["v"]
    assert {r["key"]: r["value"] for r in reduced} == expected


@given(rows)
def test_reduce_count_equals_distinct_key_multiplicity(items):
    counted = run_plan(algebra.literal_rows(items)
                       .reduce(key="k", how="count"), None)
    assert sum(r["value"] for r in counted) == len(items)
    distinct = run_plan(algebra.literal_rows(items).distinct(key="k"),
                        None)
    assert len(counted) == len(distinct)


@given(rows)
def test_union_cardinality_is_additive(items):
    lit = algebra.literal_rows(items)
    doubled = run_plan(lit.union(lit), None)
    assert len(doubled) == 2 * len(items)


@settings(max_examples=20)
@given(st.lists(st.binary(min_size=4, max_size=13), min_size=1,
                max_size=8, unique=True),
       st.integers(0, 2 ** 16))
def test_store_plans_are_deterministic_per_snapshot(keys, salt):
    """The determinism claim on real stores: same snapshot, same rows,
    same cost — twice."""
    from repro.core.collector import Collector
    from repro.core.reporter import Reporter
    from repro.core.translator import Translator
    from repro.queries.algebra import ExecContext

    col = Collector()
    col.serve_keywrite(slots=512, data_bytes=8)
    tr = Translator()
    col.connect_translator(tr)
    rep = Reporter("sw", 1, transmit=tr.handle_report)
    for index, key in enumerate(keys):
        rep.key_write(key, (salt + index).to_bytes(8, "big"),
                      redundancy=2)
    snapshot = col.snapshot()
    plan = (algebra.keywrite_values(keys, redundancy=2)
            .filter(lambda r: r["found"])
            .topk(None, by="value"))
    first_ctx, second_ctx = ExecContext(snapshot), ExecContext(snapshot)
    first = run_plan(plan, snapshot, first_ctx)
    second = run_plan(plan, snapshot, second_ctx)
    assert first == second
    assert (first_ctx.rows_scanned, first_ctx.bytes_touched) \
        == (second_ctx.rows_scanned, second_ctx.bytes_touched)


# ----------------------------------------------------------------------
# Column rows are rows: AppendRows behind every operator
# ----------------------------------------------------------------------


def _append_view(heads, capacity=8):
    """A snapshot stand-in serving one Append store with ``heads[i]``
    entries landed on list ``i`` (wrapping when past ``capacity``)."""
    from types import SimpleNamespace

    from repro.core.stores.append import AppendLayout, AppendStore
    from repro.rdma.memory import ProtectionDomain

    lists = len(heads)
    size = AppendLayout(0, lists, capacity, 4).region_bytes
    region = ProtectionDomain().register(size)
    store = AppendStore(region, AppendLayout(region.addr, lists,
                                             capacity, 4))
    for list_id, head in enumerate(heads):
        for position in range(max(0, head - capacity), head):
            store.region.local_write(
                store.layout.entry_addr(list_id, position % capacity)
                - region.addr,
                store.layout.encode_batch(
                    [(position * 7 % 5).to_bytes(4, "big")], position))
    return SimpleNamespace(append=store)


_WATCH = algebra.literal_rows(
    [{"list_id": 0, "index": 2, "data": b"lit!", "owner": "x"},
     {"list_id": 9, "index": 3, "data": b"lit?", "owner": "y"}])

#: Every operator chained after Append sources ``a`` and ``b``.
CHAINS = {
    "source": lambda a, b: a,
    "filter": lambda a, b: a.filter(lambda r: r["index"] % 2 == 0),
    "map": lambda a, b: a.map(lambda r: {"i": r["index"],
                                         "d": r["data"][::-1]}),
    "distinct-column": lambda a, b: a.union(b).distinct(key="list_id"),
    "distinct-data": lambda a, b: a.union(b).distinct(key="data"),
    "distinct-row": lambda a, b: a.union(a).distinct(),
    "count": lambda a, b: a.union(b).reduce(key="list_id", how="count"),
    "count-one-list": lambda a, b: a.reduce(key="list_id", how="count"),
    "count-same-list-twice": lambda a, b: a.union(b).union(a).reduce(
        key="list_id", how="count"),
    "count-by-data": lambda a, b: a.union(b).reduce(key="data",
                                                    how="count"),
    "count-callable-key": lambda a, b: a.union(b).reduce(
        key=lambda r: r["list_id"], how="count"),
    "count-with-value": lambda a, b: a.union(b).reduce(
        key="list_id", value="index", how="count"),
    "sum": lambda a, b: a.union(b).reduce(key="list_id", value="index"),
    "min": lambda a, b: a.union(b).reduce(key="list_id", value="index",
                                          how="min"),
    "max": lambda a, b: a.union(b).reduce(key="list_id", value="data",
                                          how="max"),
    "topk": lambda a, b: a.union(b).topk(3, by="data"),
    "topk-all": lambda a, b: a.union(b).topk(None, by="data",
                                             reverse=False),
    "join-left-side": lambda a, b: a.join(b, on="index", how="left"),
    "join-right-side": lambda a, b: _WATCH.join(a, on="index"),
    "union-literal": lambda a, b: a.union(_WATCH).reduce(
        key="list_id", how="count"),
    "literal-union": lambda a, b: _WATCH.union(a).union(b),
    "union-of-unions": lambda a, b: a.union(b).union(b.union(a)),
    "union-of-unions-count": lambda a, b: a.union(b).union(
        b.union(a)).reduce(key="list_id", how="count"),
}

_window = st.tuples(st.integers(0, 12),
                    st.one_of(st.none(), st.integers(0, 10)))


@dataclass(frozen=True)
class _Materialised(algebra.Source):
    """The same source, its rows forced into a plain list of dicts
    before any operator sees them (the charge is the source's own)."""

    inner: algebra.Source

    def rows(self, ctx):
        return list(self.inner.rows(ctx))


def _as_dicts(plan):
    return algebra.Plan(_Materialised(plan.source))


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 12), st.integers(0, 12)), _window,
       _window, st.sampled_from([None, bytes.hex]))
def test_append_rows_behave_as_the_dict_rows_they_stand_for(
        heads, window_a, window_b, decode):
    """Whatever follows ``append_entries`` returns the rows — and
    charges the context — it would over a list of the same dicts."""
    from repro.queries.algebra import ExecContext

    view = _append_view(heads)
    sources = [algebra.append_entries(list_id, start=start, limit=limit,
                                      decode=decode)
               for list_id, (start, limit) in enumerate((window_a,
                                                         window_b))]
    for name, chain in CHAINS.items():
        columns, dicts = ExecContext(view), ExecContext(view)
        got = run_plan(chain(*sources), view, columns)
        want = run_plan(chain(*map(_as_dicts, sources)), view, dicts)
        assert got == want, name
        assert type(got) is list, name
        assert [type(row) for row in got] == [dict] * len(got), name
        assert (columns.rows_scanned, columns.bytes_touched) \
            == (dicts.rows_scanned, dicts.bytes_touched), name


# ----------------------------------------------------------------------
# Plain-value keys order and match exactly as canon
# ----------------------------------------------------------------------

_MIXED = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False), st.binary(max_size=2),
    st.binary(max_size=2).map(bytearray), st.text("ab", max_size=2),
    st.tuples(st.integers(0, 2)), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=2),
    st.integers(-3, 3).map(np.int64))

#: What one column holds: one plain type, one other type, or several.
_COLUMNS = st.sampled_from([
    st.integers(-3, 3), st.binary(max_size=2), st.text("ab", max_size=2),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.lists(st.binary(max_size=1), max_size=2),
    st.one_of(st.tuples(st.integers(0, 2)),
              st.lists(st.integers(0, 2), max_size=2)),
    st.one_of(st.integers(-3, 3), st.booleans()),
    st.one_of(st.binary(max_size=2), st.binary(max_size=2).map(bytearray)),
    st.lists(st.one_of(st.integers(0, 2), st.booleans()), max_size=2),
    st.lists(st.one_of(st.integers(0, 2), st.binary(max_size=1)),
             max_size=2),
    st.integers(-3, 3).map(np.int64),
    st.floats(-3, 3, allow_nan=False),
    _MIXED,
])

#: Extra fields: none, a mixed one, or two whose ``str`` forms collide.
_SHAPES = st.sampled_from([
    {}, {"x": _MIXED}, {1: st.integers(0, 1), "1": st.integers(0, 1)}])


def _rows_of(data):
    values, shape = data.draw(_COLUMNS), data.draw(_SHAPES)
    fixed = {"k": values, "v": st.integers(-3, 3)}
    if data.draw(st.booleans()):
        row = st.fixed_dictionaries({**fixed, **shape})
    else:
        row = st.fixed_dictionaries(fixed, optional=shape)
    return data.draw(st.lists(row, max_size=10))


def _canon_distinct(rows, key):
    seen = {}
    for row in rows:
        seen.setdefault(canon(row if key is None else row[key]), row)
    return [seen[slot] for slot in sorted(seen)]


def _canon_topk(rows, k, by, reverse):
    ordered = sorted(rows, key=lambda row: (canon(row[by]), canon(row)),
                     reverse=reverse)
    return ordered if k is None else ordered[:k]


def _canon_reduce(rows, how):
    fold = algebra._REDUCERS[how]
    init = algebra._REDUCE_INIT.get(how)
    groups = {}
    for row in rows:
        slot = canon(row["k"])
        if slot in groups:
            groups[slot] = (row["k"], fold(groups[slot][1], row["v"]))
        else:
            groups[slot] = (row["k"], row["v"] if init is None
                            else fold(init, row["v"]))
    return [{"key": groups[slot][0], "value": groups[slot][1]}
            for slot in sorted(groups)]


def _canon_join(rows, right_rows, how):
    right = {}
    for row in right_rows:
        right.setdefault(canon(row["k"]), []).append(row)
    out = []
    for row in rows:
        matches = right.get(canon(row["k"]))
        if matches is None:
            if how == "left":
                out.append(dict(row))
            continue
        for match in matches:
            out.append({**match, **row})
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plain_keys_order_and_match_exactly_as_canon(data):
    """Every keyed operator returns what keying each value with
    ``canon`` returns: the same rows, in the same order, down to which
    of two canon-equal values (``1`` and ``1.0``) is kept."""
    rows, right_rows = _rows_of(data), _rows_of(data)
    lit, right = algebra.literal_rows(rows), algebra.literal_rows(right_rows)
    cases = {
        "distinct-k": (lit.distinct(key="k"), _canon_distinct(rows, "k")),
        "distinct-row": (lit.distinct(), _canon_distinct(rows, None)),
    }
    for k in (None, 3):
        for by in ("k", "v"):
            for reverse in (True, False):
                cases[f"topk-{k}-{by}-{reverse}"] = (
                    lit.topk(k, by=by, reverse=reverse),
                    _canon_topk(rows, k, by, reverse))
    for how in ("sum", "min", "max", "count"):
        cases[f"reduce-{how}"] = (lit.reduce(key="k", value="v", how=how),
                                  _canon_reduce(rows, how))
    for how in ("inner", "left"):
        cases[f"join-{how}"] = (lit.join(right, on="k", how=how),
                                _canon_join(rows, right_rows, how))
    for name, (plan, want) in cases.items():
        # repr tells 1 from 1.0 and True, bytes from bytearray, a tuple
        # from a list and np.int64 from int, where == would not.
        assert repr(run_plan(plan, None)) == repr(want), name

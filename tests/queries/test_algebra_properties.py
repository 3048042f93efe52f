"""Property suite: the algebra's determinism and identity claims.

These are the claims the module docstring of
:mod:`repro.queries.algebra` makes checkable; hypothesis drives them
over generated row bags and permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.queries import algebra
from repro.queries.algebra import run_plan

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

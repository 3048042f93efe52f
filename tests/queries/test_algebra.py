"""Operator and source units for the query algebra."""

from __future__ import annotations

import pytest

from repro.queries import algebra
from repro.queries.algebra import ExecContext, canon, run_plan

ROWS = [
    {"k": "b", "v": 3},
    {"k": "a", "v": 1},
    {"k": "b", "v": 2},
    {"k": "a", "v": 4},
]


def _lit(rows=ROWS):
    return algebra.literal_rows(rows)


class TestOperators:
    def test_filter_keeps_matching_rows(self):
        rows = run_plan(_lit().filter(lambda r: r["v"] >= 3), None)
        assert rows == [{"k": "b", "v": 3}, {"k": "a", "v": 4}]

    def test_map_transforms_one_to_one(self):
        rows = run_plan(_lit().map(lambda r: {"v2": r["v"] * 2}), None)
        assert [r["v2"] for r in rows] == [6, 2, 4, 8]

    def test_distinct_by_key_keeps_first_seen(self):
        rows = run_plan(_lit().distinct(key="k"), None)
        # First-seen row per key, emitted in canonical key order.
        assert rows == [{"k": "a", "v": 1}, {"k": "b", "v": 3}]

    def test_distinct_whole_row(self):
        rows = run_plan(algebra.literal_rows(
            [{"x": 2}, {"x": 1}, {"x": 2}]).distinct(), None)
        assert rows == [{"x": 1}, {"x": 2}]

    def test_reduce_sum_min_max_count(self):
        plan = _lit()
        assert run_plan(plan.reduce(key="k", value="v"), None) == [
            {"key": "a", "value": 5}, {"key": "b", "value": 5}]
        assert run_plan(plan.reduce(key="k", value="v", how="min"),
                        None) == [
            {"key": "a", "value": 1}, {"key": "b", "value": 2}]
        assert run_plan(plan.reduce(key="k", value="v", how="max"),
                        None) == [
            {"key": "a", "value": 4}, {"key": "b", "value": 3}]
        assert run_plan(plan.reduce(key="k", how="count"), None) == [
            {"key": "a", "value": 2}, {"key": "b", "value": 2}]

    def test_reduce_rejects_unknown_how(self):
        with pytest.raises(ValueError, match="unknown reduce"):
            _lit().reduce(key="k", how="median")

    def test_topk_orders_and_truncates(self):
        rows = run_plan(_lit().topk(2, by="v"), None)
        assert [r["v"] for r in rows] == [4, 3]
        ascending = run_plan(_lit().topk(2, by="v", reverse=False), None)
        assert [r["v"] for r in ascending] == [1, 2]

    def test_topk_none_is_total_order_prefix(self):
        total = run_plan(_lit().topk(None, by="v"), None)
        assert [r["v"] for r in total] == [4, 3, 2, 1]
        for k in range(len(total) + 1):
            assert run_plan(_lit().topk(k, by="v"), None) == total[:k]

    def test_join_inner_and_left(self):
        left = algebra.literal_rows([{"k": "a", "v": 1},
                                     {"k": "c", "v": 9}])
        right = algebra.literal_rows([{"k": "a", "extra": "x"}])
        inner = run_plan(left.join(right, on="k"), None)
        assert inner == [{"k": "a", "v": 1, "extra": "x"}]
        outer = run_plan(left.join(right, on="k", how="left"), None)
        assert outer == [{"k": "a", "v": 1, "extra": "x"},
                        {"k": "c", "v": 9}]

    def test_join_left_value_wins_on_clash(self):
        left = algebra.literal_rows([{"k": "a", "v": 1}])
        right = algebra.literal_rows([{"k": "a", "v": 99}])
        assert run_plan(left.join(right, on="k"), None) == [
            {"k": "a", "v": 1}]

    def test_join_rejects_unknown_how(self):
        with pytest.raises(ValueError, match="unknown join"):
            _lit().join(_lit(), on="k", how="outer")

    def test_union_is_bag_concat(self):
        rows = run_plan(algebra.literal_rows([{"x": 1}]).union(
            algebra.literal_rows([{"x": 1}, {"x": 2}])), None)
        assert rows == [{"x": 1}, {"x": 1}, {"x": 2}]

    def test_plans_are_immutable_and_shareable(self):
        base = _lit()
        heavy = base.filter(lambda r: r["v"] >= 3)
        assert len(base.ops) == 0 and len(heavy.ops) == 1
        assert run_plan(base, None) == ROWS

    def test_describe_names_the_chain(self):
        text = (_lit().filter(lambda r: True)
                .reduce(key="k").topk(3, by="value").describe())
        assert text == "literal[4] | filter | reduce[sum] | topk[3]"


class TestCanon:
    def test_total_order_across_mixed_types(self):
        values = [b"ab", "ab", 3, None, True, (1, 2), [1, 2], {"a": 1}]
        ordered = sorted(values, key=canon)
        assert ordered[0] is None          # None sorts first
        assert canon((1, 2)) == canon([1, 2])

    def test_numpy_scalars_order_as_the_values_they_hold(self):
        import numpy as np

        assert canon(np.int64(9)) < canon(np.int64(10))
        assert canon(np.int64(10)) == canon(10)
        assert canon(np.bool_(True)) == canon(True)
        rows = [{"c": np.int64(9)}, {"c": np.int64(10)}, {"c": np.int64(2)}]
        top = run_plan(algebra.literal_rows(rows).topk(2, by="c"), None)
        assert [row["c"] for row in top] == [10, 9]

    def test_missing_store_is_a_runtime_error(self):
        ctx = ExecContext(snapshot=object())
        with pytest.raises(RuntimeError, match="'keywrite' service"):
            ctx.store("keywrite")


class TestSources:
    def test_keywrite_rows_and_cost(self, rig):
        col, _tr, rep = rig
        rep.key_write(b"Q" * 13, b"x" * 20, redundancy=2)
        ctx = ExecContext(col)
        rows = run_plan(algebra.keywrite_values(
            [b"Q" * 13, b"nobody-home!!"], redundancy=2), col, ctx)
        assert rows[0]["found"] and rows[0]["value"] == b"x" * 20
        assert not rows[1]["found"] and rows[1]["value"] is None
        assert ctx.rows_scanned == 4       # 2 keys x redundancy 2
        assert ctx.bytes_touched == 4 * col.keywrite.layout.slot_bytes

    def test_counter_estimates(self, rig):
        col, _tr, rep = rig
        rep.key_increment(b"flow-key-0001", 7, redundancy=4)
        rows = run_plan(algebra.counter_estimates(
            [b"flow-key-0001"], redundancy=4), col)
        assert rows == [{"key": b"flow-key-0001", "count": 7}]

    def test_postcard_paths(self, rig):
        col, _tr, rep = rig
        for hop, sw in enumerate([10, 20, 30]):
            rep.postcard(b"Q" * 13, hop, sw, path_length=3)
        rows = run_plan(algebra.postcard_paths(
            [b"Q" * 13, b"absent-flow!!"]), col)
        assert rows[0]["path"] == [10, 20, 30] and rows[0]["found"]
        assert rows[1]["path"] is None and not rows[1]["found"]

    def test_append_entries_start_and_decode(self, rig):
        col, _tr, rep = rig
        from repro.telemetry.netseer import DropReason, NetSeerSwitch

        switch = NetSeerSwitch(rep, switch_id=7, loss_list=0, coalesce=1)
        for _ in range(3):
            switch.observe_drop(b"F" * 13, DropReason.QUEUE_OVERFLOW)
        from repro.telemetry.netseer import LossEvent

        rows = run_plan(algebra.append_entries(
            0, decode=LossEvent.unpack), col)
        assert [r["index"] for r in rows] == [0, 1, 2]
        assert all(r["data"].switch_id == 7 for r in rows)
        tail = run_plan(algebra.append_entries(
            0, start=2, decode=LossEvent.unpack), col)
        assert [r["index"] for r in tail] == [2]
        capped = run_plan(algebra.append_entries(0, limit=1), col)
        assert len(capped) == 1

    def test_sketch_estimates(self, rig):
        col, _tr, rep = rig
        from repro.sketches.countmin import CountMinSketch

        sketch = CountMinSketch(width=64, depth=4)
        for _ in range(11):
            sketch.update(b"elephant")
        for index, column in sketch.columns():
            rep.sketch_column(0, index, column)
        rows = run_plan(algebra.sketch_estimates([b"elephant"]), col)
        assert rows[0]["estimate"] >= 11   # CMS never underestimates


class TestAppendColumnRows:
    """Append rows stay columns through ``union`` -> ``reduce(count)``
    and are ordinary dict rows everywhere else."""

    @staticmethod
    def _landed(rig, per_list=(5, 3)):
        col, tr, rep = rig
        for list_id, count in enumerate(per_list):
            for i in range(count):
                rep.append(list_id, bytes([list_id, i]) * 9)
        tr.flush_appends()
        return col

    def test_run_plan_hands_back_a_list_of_dicts(self, rig):
        col = self._landed(rig)
        for view in (col, col.snapshot()):
            rows = run_plan(algebra.append_entries(0), view)
            assert type(rows) is list and len(rows) == 5
            assert all(type(row) is dict for row in rows)
            assert rows[2] == {"list_id": 0, "index": 2,
                               "data": bytes([0, 2]) * 9}
            assert type(rows[2]["data"]) is bytes

    def test_union_count_never_builds_a_row(self, rig, monkeypatch):
        col = self._landed(rig)
        monkeypatch.setattr(
            algebra.AppendRows, "__iter__",
            lambda self: pytest.fail("materialised Append rows"))
        plan = (algebra.append_entries(0)
                .union(algebra.append_entries(1))
                .union(algebra.append_entries(0, start=4))
                .reduce(key="list_id", how="count"))
        ctx = ExecContext(col)
        assert run_plan(plan, col, ctx) == [{"key": 0, "value": 6},
                                            {"key": 1, "value": 3}]
        # 5 + 3 + 1 rows, and the mismatching read that ended each run.
        entry_bytes = col.append.layout.entry_bytes
        assert (ctx.rows_scanned, ctx.bytes_touched) \
            == (12, 12 * entry_bytes)

    def test_an_idle_list_contributes_no_group(self, rig):
        col = self._landed(rig, per_list=(4, 0))
        plan = (algebra.append_entries(0)
                .union(algebra.append_entries(1))
                .reduce(key="list_id", how="count"))
        assert run_plan(plan, col) == [{"key": 0, "value": 4}]

    def test_decode_runs_even_when_only_counted(self, rig):
        col = self._landed(rig)

        def boom(data):
            raise ValueError("undecodable entry")

        plan = (algebra.append_entries(0, decode=boom)
                .reduce(key="list_id", how="count"))
        with pytest.raises(ValueError, match="undecodable"):
            run_plan(plan, col)


#: sha256 over ``repr(rows)`` of every shipped plan at ten tick points
#: of a 5 k-each mixed stream (seed 1, batch 64), and over the
#: ``(name, rows_scanned, bytes_touched, rows_out)`` of the same
#: executions — computed with the per-entry loops this file's parent
#: commit still had (PR 16, 59f1987).
CATALOG_ROWS_SHA256 = \
    "a61f3eccac144b34ef93b84966a00c924773655a3c49af38321f1f35d0c86c04"
CATALOG_COST_SHA256 = \
    "8241c526efcfebb570ac95ea67a4f83ad5c29e624de3f81c3e1e714b596cff80"


def test_catalog_rows_and_costs_match_the_scalar_golden():
    import hashlib

    from repro.queries import catalog
    from repro.queries.serving import QueryServer

    works = catalog.demo_workloads(5000, 1)
    plans = catalog.shipped_plans(works)
    rows_hash, cost_hash = hashlib.sha256(), hashlib.sha256()
    ticks = []

    def tick(engine, epoch):
        server = QueryServer(engine)
        for name, plan in plans.items():
            server.register(name, plan)
        results = server.tick().results
        ticks.append(epoch)
        for name in sorted(results):
            result = results[name]
            assert type(result.rows) is list
            rows_hash.update(repr(result.rows).encode())
            cost_hash.update(repr(
                (name, result.cost.rows_scanned, result.cost.bytes_touched,
                 result.cost.rows_out)).encode())

    _registry, _collector, _engine, zero_loss = catalog.stream_mixed(
        works, workers=0, batch_size=64, on_epoch=tick, epochs=10)
    assert zero_loss and ticks == list(range(1, 11))
    assert rows_hash.hexdigest() == CATALOG_ROWS_SHA256
    assert cost_hash.hexdigest() == CATALOG_COST_SHA256

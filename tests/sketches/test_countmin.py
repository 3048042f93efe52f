"""Count-Min: never-underestimate invariant, merging, columns."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketches.base import MergeError
from repro.sketches.countmin import CountMinSketch


class TestBasics:
    def test_query_unknown_key_zero_on_fresh_sketch(self):
        cms = CountMinSketch(width=64, depth=3)
        assert cms.query(b"never") == 0

    def test_single_update(self):
        cms = CountMinSketch(width=64, depth=3)
        cms.update(b"k")
        assert cms.query(b"k") >= 1

    def test_weighted_update(self):
        cms = CountMinSketch(width=256, depth=4)
        cms.update(b"k", weight=7)
        assert cms.query(b"k") >= 7

    def test_total_tracks_weight(self):
        cms = CountMinSketch(width=64, depth=3)
        cms.update(b"a", 2)
        cms.update(b"b", 3)
        assert cms.total == 5

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch(depth=0)

    def test_error_bound_sizing(self):
        cms = CountMinSketch.from_error_bounds(epsilon=0.01, delta=0.01)
        assert cms.width >= 271
        assert cms.depth >= 5
        with pytest.raises(ValueError):
            CountMinSketch.from_error_bounds(epsilon=0, delta=0.5)

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_never_underestimates(self, keys):
        cms = CountMinSketch(width=32, depth=3)
        from collections import Counter
        truth = Counter(keys)
        for key in keys:
            cms.update(key)
        for key, count in truth.items():
            assert cms.query(key) >= count

    def test_epsilon_bound_holds_in_practice(self):
        cms = CountMinSketch.from_error_bounds(epsilon=0.05, delta=0.01)
        keys = [f"flow-{i}".encode() for i in range(500)]
        for key in keys:
            cms.update(key)
        overestimates = [cms.query(k) - 1 for k in keys]
        # eps * total = 25; allow the delta fraction to exceed it.
        assert sum(1 for o in overestimates if o > 25) <= 5


class TestMerging:
    def test_merge_equals_union_updates(self):
        a, b = CountMinSketch(64, 3), CountMinSketch(64, 3)
        for i in range(50):
            a.update(f"a{i}".encode())
            b.update(f"b{i}".encode())
        union = CountMinSketch(64, 3)
        for i in range(50):
            union.update(f"a{i}".encode())
            union.update(f"b{i}".encode())
        a.merge(b)
        assert a.counters() == union.counters()
        assert a.total == union.total

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(MergeError):
            CountMinSketch(64, 3).merge(CountMinSketch(32, 3))

    def test_merge_type_mismatch_rejected(self):
        from tests.table2.hyperloglog import HyperLogLog
        with pytest.raises(MergeError):
            CountMinSketch(64, 3).merge(HyperLogLog(4))


class TestColumns:
    def test_column_roundtrip_reconstructs_sketch(self):
        src = CountMinSketch(32, 3)
        for i in range(100):
            src.update(f"k{i}".encode())
        dst = CountMinSketch(32, 3)
        for index, column in src.columns():
            dst.merge_column(index, column)
        assert dst.counters() == src.counters()

    def test_column_count_is_width(self):
        cms = CountMinSketch(32, 3)
        assert len(list(cms.columns())) == 32

    def test_bad_column_index_rejected(self):
        cms = CountMinSketch(8, 2)
        with pytest.raises(IndexError):
            cms.merge_column(8, (0, 0))

    def test_bad_column_depth_rejected(self):
        cms = CountMinSketch(8, 2)
        with pytest.raises(MergeError):
            cms.merge_column(0, (1, 2, 3))

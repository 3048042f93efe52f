"""AROMA bottom-k sampling: uniformity, mergeability, dedup."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketches.base import MergeError
from tests.table2.aroma import AromaSketch


class TestSampling:
    def test_small_stream_fully_retained(self):
        sk = AromaSketch(k=16)
        for i in range(10):
            sk.update(f"item{i}".encode())
        assert len(sk) == 10

    def test_capacity_bounded(self):
        sk = AromaSketch(k=16)
        for i in range(1000):
            sk.update(f"item{i}".encode())
        assert len(sk) == 16

    def test_duplicates_ignored(self):
        sk = AromaSketch(k=8)
        for _ in range(100):
            sk.update(b"dup")
        assert len(sk) == 1

    def test_keeps_smallest_priorities(self):
        sk = AromaSketch(k=4)
        items = [f"i{n}".encode() for n in range(100)]
        for item in items:
            sk.update(item)
        truth = sorted(items, key=sk._priority)[:4]
        assert [s.key for s in sk.samples()] == truth

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            AromaSketch(k=0)

    def test_contains(self):
        sk = AromaSketch(k=4)
        sk.update(b"x")
        assert b"x" in sk
        assert b"y" not in sk


class TestMerging:
    def test_merge_equals_union_sample(self):
        """The defining property: merging per-switch samples gives the
        bottom-k of the union — a uniform network-wide sample."""
        union = AromaSketch(k=8)
        parts = [AromaSketch(k=8) for _ in range(4)]
        for i in range(400):
            item = f"pkt{i}".encode()
            union.update(item)
            parts[i % 4].update(item)
        merged = AromaSketch(k=8)
        for part in parts:
            merged.merge(part)
        assert [s.key for s in merged.samples()] == \
            [s.key for s in union.samples()]

    def test_k_mismatch_rejected(self):
        with pytest.raises(MergeError):
            AromaSketch(k=4).merge(AromaSketch(k=8))

    def test_column_roundtrip(self):
        src = AromaSketch(k=16)
        for i in range(200):
            src.update(f"x{i}".encode())
        dst = AromaSketch(k=16)
        for index, column in src.columns():
            dst.merge_column(index, column)
        assert [s.key for s in dst.samples()] == \
            [s.key for s in src.samples()]

    @given(st.sets(st.binary(min_size=1, max_size=6), min_size=1,
                   max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_merge_order_irrelevant(self, items):
        items = sorted(items)
        left, right = AromaSketch(k=8), AromaSketch(k=8)
        for i, item in enumerate(items):
            (left if i % 2 else right).update(item)
        a = AromaSketch(k=8)
        a.merge(left)
        a.merge(right)
        b = AromaSketch(k=8)
        b.merge(right)
        b.merge(left)
        assert [s.key for s in a.samples()] == \
            [s.key for s in b.samples()]

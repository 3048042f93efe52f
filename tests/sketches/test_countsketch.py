"""Count sketch: unbiasedness in aggregate, merging semantics."""

import pytest

from repro.sketches.base import MergeError
from tests.table2.countsketch import CountSketch


class TestBasics:
    def test_fresh_sketch_estimates_zero(self):
        cs = CountSketch(width=64, depth=5)
        assert cs.query(b"nothing") == 0

    def test_heavy_key_recovered(self):
        cs = CountSketch(width=256, depth=5)
        for _ in range(100):
            cs.update(b"heavy")
        for i in range(50):
            cs.update(f"noise{i}".encode())
        estimate = cs.query(b"heavy")
        assert 80 <= estimate <= 120

    def test_estimates_close_on_average(self):
        cs = CountSketch(width=512, depth=5)
        keys = [f"k{i}".encode() for i in range(100)]
        for key in keys:
            for _ in range(10):
                cs.update(key)
        errors = [cs.query(k) - 10 for k in keys]
        assert abs(sum(errors) / len(errors)) < 2.0

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            CountSketch(width=-1)

    def test_weight_applied(self):
        cs = CountSketch(width=256, depth=5)
        cs.update(b"w", weight=50)
        assert 40 <= cs.query(b"w") <= 60


class TestMerging:
    def test_merge_matches_union(self):
        a, b = CountSketch(64, 5), CountSketch(64, 5)
        for i in range(30):
            a.update(f"x{i}".encode())
            b.update(f"x{i}".encode())
        a.merge(b)
        # Every key was seen twice across the pair.
        estimates = [a.query(f"x{i}".encode()) for i in range(30)]
        assert sum(estimates) / len(estimates) == pytest.approx(2, abs=1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MergeError):
            CountSketch(64, 5).merge(CountSketch(64, 4))

    def test_column_roundtrip(self):
        src = CountSketch(16, 3)
        for i in range(50):
            src.update(f"k{i}".encode())
        dst = CountSketch(16, 3)
        for index, column in src.columns():
            dst.merge_column(index, column)
        assert dst._rows == src._rows

    def test_column_bounds(self):
        cs = CountSketch(8, 3)
        with pytest.raises(IndexError):
            cs.merge_column(9, (0, 0, 0))
        with pytest.raises(MergeError):
            cs.merge_column(0, (0,))

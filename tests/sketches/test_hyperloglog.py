"""HyperLogLog: accuracy envelope, max-merging, column transport."""

import pytest

from repro.sketches.base import MergeError
from tests.table2.hyperloglog import HyperLogLog


class TestEstimation:
    def test_empty_estimates_zero(self):
        hll = HyperLogLog(precision=10)
        assert hll.estimate() == pytest.approx(0.0, abs=1.0)

    def test_duplicates_count_once(self):
        hll = HyperLogLog(precision=10)
        for _ in range(1000):
            hll.update(b"same-key")
        assert hll.estimate() == pytest.approx(1.0, abs=0.5)

    @pytest.mark.parametrize("true_count", [100, 1000, 10000])
    def test_accuracy_within_standard_error(self, true_count):
        hll = HyperLogLog(precision=12)  # ~1.6% standard error
        for i in range(true_count):
            hll.update(f"item-{i}".encode())
        estimate = hll.estimate()
        assert abs(estimate - true_count) / true_count < 0.10

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=3)
        with pytest.raises(ValueError):
            HyperLogLog(precision=19)

    def test_weight_ignored(self):
        a, b = HyperLogLog(8), HyperLogLog(8)
        a.update(b"k", weight=100)
        b.update(b"k", weight=1)
        assert a.registers == b.registers


class TestMerging:
    def test_merge_is_register_max(self):
        a, b = HyperLogLog(8), HyperLogLog(8)
        for i in range(100):
            a.update(f"a{i}".encode())
            b.update(f"b{i}".encode())
        expected = [max(x, y) for x, y in zip(a.registers, b.registers)]
        a.merge(b)
        assert a.registers == expected

    def test_merged_estimate_near_union(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        for i in range(2000):
            a.update(f"a{i}".encode())
            b.update(f"b{i}".encode())
        # 500 shared items.
        for i in range(500):
            shared = f"shared{i}".encode()
            a.update(shared)
            b.update(shared)
        a.merge(b)
        assert abs(a.estimate() - 4500) / 4500 < 0.10

    def test_merge_idempotent(self):
        a, b = HyperLogLog(8), HyperLogLog(8)
        for i in range(50):
            a.update(f"x{i}".encode())
            b.update(f"x{i}".encode())
        before = a.estimate()
        a.merge(b)
        assert a.estimate() == pytest.approx(before)

    def test_precision_mismatch_rejected(self):
        with pytest.raises(MergeError):
            HyperLogLog(8).merge(HyperLogLog(9))


class TestColumns:
    def test_column_roundtrip(self):
        src = HyperLogLog(8)
        for i in range(500):
            src.update(f"k{i}".encode())
        dst = HyperLogLog(8)
        for index, column in src.columns():
            dst.merge_column(index, column)
        assert dst.registers == src.registers

    def test_column_merge_is_max(self):
        dst = HyperLogLog(8)
        dst.registers[0] = 9
        dst.merge_column(0, tuple([1] * HyperLogLog.COLUMN_REGISTERS))
        assert dst.registers[0] == 9
        assert dst.registers[1] == 1

    def test_bad_column_index(self):
        with pytest.raises(IndexError):
            HyperLogLog(8).merge_column(1000, (0,))

"""Sketches filled in parts and merged land exactly what one sketch
fed key by key lands.

Every sketch takes one observation per :meth:`update`.  These tests
hold the merge to that for every batch shape — weighted (negative
CountSketch / Count-Min weights included) and unweighted, weights far
past 64 bits.  The boolean parameter ``split`` feeds the batch's second
half to a twin sketch merged in afterwards (True) or the whole batch to
one sketch, merged with an empty twin (False), so a merge into
non-empty counters is covered too.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

from repro.sketches import CountMinSketch
from tests.table2.countsketch import CountSketch
from tests.table2.hyperloglog import HyperLogLog

BATCH_SIZES = (1, 7, 64, 1000)

keys = st.binary(min_size=1, max_size=24)
weights = st.integers(min_value=-(10**9), max_value=10**9)


def counters_of(sketch) -> list:
    return [[int(value) for value in row] for row in sketch._rows]


def update_many(sketch, batch, batch_weights=None, split=False):
    """``batch`` into ``sketch`` by :meth:`update`, its second half
    through an empty twin merged in if ``split``."""
    cut = len(batch) // 2 if split else len(batch)
    twin = copy.deepcopy(sketch)
    weights = [1] * len(batch) if batch_weights is None else batch_weights
    for target, lo, hi in ((sketch, 0, cut), (twin, cut, len(batch))):
        for key, weight in zip(batch[lo:hi], weights[lo:hi]):
            target.update(key, weight)
    sketch.merge(twin)
    return sketch


def reference(cls, kwargs, batch, batch_weights):
    ref = cls(**kwargs)
    if batch_weights is None:
        for key in batch:
            ref.update(key)
    else:
        for key, weight in zip(batch, batch_weights):
            ref.update(key, weight)
    return ref


@pytest.mark.parametrize("cls", [CountMinSketch, CountSketch])
class TestCounterSketches:
    @pytest.mark.parametrize("n", BATCH_SIZES)
    @pytest.mark.parametrize("split", [False, True])
    def test_update_many_weighted(self, cls, n, split):
        import numpy as np

        rng = np.random.default_rng(n + split)
        batch = [bytes(rng.integers(0, 256, size=int(length),
                                    dtype=np.uint8))
                 for length in rng.integers(1, 24, size=n)]
        batch_weights = [int(w) for w in
                         rng.integers(-(10**6), 10**6, size=n)]
        kwargs = dict(width=128, depth=4)
        ref = reference(cls, kwargs, batch, batch_weights)
        sketch = update_many(cls(**kwargs), batch, batch_weights, split)
        assert counters_of(sketch) == counters_of(ref)
        assert sketch.total == ref.total

    @given(st.lists(st.tuples(keys, weights), min_size=1, max_size=60),
           st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_update_many_property(self, cls, ops, split):
        batch = [key for key, _ in ops]
        batch_weights = [weight for _, weight in ops]
        kwargs = dict(width=64, depth=3)
        ref = reference(cls, kwargs, batch, batch_weights)
        sketch = update_many(cls(**kwargs), batch, batch_weights, split)
        assert counters_of(sketch) == counters_of(ref)
        assert sketch.total == ref.total
        # Queries agree too (they only read the counters).
        for key in batch[:5]:
            assert sketch.query(key) == ref.query(key)

    def test_huge_weights_fall_back_to_reference(self, cls):
        """Weights past 64 bits are Python integers all the way."""
        kwargs = dict(width=32, depth=2)
        batch = [b"a", b"b", b"c", b"d", b"e"]
        batch_weights = [2**70, -(2**70), 3, 4, 5]
        ref = reference(cls, kwargs, batch, batch_weights)
        sketch = update_many(cls(**kwargs), batch, batch_weights)
        assert counters_of(sketch) == counters_of(ref)
        assert sketch.total == ref.total

    def test_vectorized_merge_matches_list_merge(self, cls):
        """Two sketches filled by batches merge into the sketch that
        saw every key one at a time."""
        import numpy as np

        rng = np.random.default_rng(5)
        batch = [bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
                 for _ in range(200)]
        kwargs = dict(width=64, depth=4)
        a, b = cls(**kwargs), cls(**kwargs)
        update_many(a, batch[:120], split=True)
        update_many(b, batch[120:], split=True)
        a.merge(b)
        ref = reference(cls, kwargs, batch, None)
        assert counters_of(a) == counters_of(ref)
        assert a.total == ref.total


class TestHyperLogLog:
    @pytest.mark.parametrize("precision", [4, 12, 14])
    @pytest.mark.parametrize("n", BATCH_SIZES)
    @pytest.mark.parametrize("split", [False, True])
    def test_update_many(self, precision, n, split):
        import numpy as np

        rng = np.random.default_rng(precision * 100 + n)
        batch = [bytes(rng.integers(0, 256, size=int(length),
                                    dtype=np.uint8))
                 for length in rng.integers(1, 16, size=n)]
        ref = HyperLogLog(precision)
        for key in batch:
            ref.update(key)
        hll = update_many(HyperLogLog(precision), batch, split=split)
        assert [int(r) for r in hll.registers] == list(ref.registers)
        assert hll.estimate() == ref.estimate()

    @given(st.lists(keys, min_size=1, max_size=80), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_update_many_property(self, batch, split):
        ref = HyperLogLog(6)
        for key in batch:
            ref.update(key)
        hll = update_many(HyperLogLog(6), batch, split=split)
        assert [int(r) for r in hll.registers] == list(ref.registers)

    def test_vectorized_merge(self):
        """Register-wise max of two batch-filled HLLs equals one HLL
        that saw every key."""
        batch = [str(i).encode() for i in range(500)]
        a, b = HyperLogLog(8), HyperLogLog(8)
        update_many(a, batch[:300], split=True)
        update_many(b, batch[300:], split=True)
        a.merge(b)
        full = HyperLogLog(8)
        for key in batch:
            full.update(key)
        assert a.registers == full.registers

"""The seeded loss shim: deterministic, single-use, netem-flavoured."""

from __future__ import annotations

import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.loss import LossShim, LossSpec


def _datagrams(n):
    return [b"d%04d" % i for i in range(n)]


class TestLossSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LossSpec(drop_rate=1.0)
        with pytest.raises(ValueError):
            LossSpec(reorder_rate=-0.1)
        with pytest.raises(ValueError):
            LossSpec(reorder_span=0)

    def test_shim_builds_fresh_instances(self):
        spec = LossSpec(seed=3, drop_rate=0.1)
        assert spec.shim() is not spec.shim()


class TestLossShim:
    def test_zero_rates_are_identity(self):
        shim = LossSpec().shim()
        data = _datagrams(50)
        assert shim.apply(data) == data
        assert shim.dropped == 0
        assert shim.reordered == 0
        assert shim.passed == 50

    def test_same_spec_same_schedule(self):
        spec = LossSpec(seed=9, drop_rate=0.2, reorder_rate=0.2)
        data = _datagrams(500)
        assert spec.shim().apply(data) == spec.shim().apply(data)

    def test_different_seed_different_schedule(self):
        data = _datagrams(500)
        a = LossSpec(seed=1, drop_rate=0.2).shim().apply(data)
        b = LossSpec(seed=2, drop_rate=0.2).shim().apply(data)
        assert a != b

    def test_drop_only_preserves_order(self):
        spec = LossSpec(seed=4, drop_rate=0.3)
        shim = spec.shim()
        out = shim.apply(_datagrams(300))
        assert out == sorted(out)          # zero-padded names sort
        assert shim.dropped + shim.passed == 300
        assert shim.dropped > 0

    def test_reorder_emits_every_survivor(self):
        spec = LossSpec(seed=5, reorder_rate=0.3, reorder_span=4)
        shim = spec.shim()
        data = _datagrams(300)
        out = shim.apply(data)
        assert sorted(out) == data         # nothing lost, order shuffled
        assert out != data
        assert shim.reordered > 0

    def test_reorder_span_bounds_displacement(self):
        spec = LossSpec(seed=6, reorder_rate=0.5, reorder_span=3)
        out = spec.shim().apply(_datagrams(200))
        for pos, datagram in enumerate(out):
            original = int(datagram[1:])
            assert abs(pos - original) <= 3

    def test_flush_drains_held_datagrams(self):
        spec = LossSpec(seed=7, reorder_rate=0.9, reorder_span=10)
        shim = spec.shim()
        emitted = []
        for d in _datagrams(20):
            emitted.extend(shim.step(d))
        emitted.extend(shim.flush())
        assert sorted(emitted) == _datagrams(20)

    def test_counters_partition_the_stream(self):
        spec = LossSpec(seed=8, drop_rate=0.15, reorder_rate=0.25)
        shim = spec.shim()
        out = shim.apply(_datagrams(1000))
        assert shim.dropped + shim.reordered + shim.passed == 1000
        assert len(out) == 1000 - shim.dropped

    def test_shim_type(self):
        assert isinstance(LossSpec().shim(), LossShim)


class TestStepMany:
    @pytest.mark.parametrize("spec", [
        LossSpec(),
        LossSpec(seed=11, drop_rate=0.2),
        LossSpec(seed=12, reorder_rate=0.3, reorder_span=5),
        LossSpec(seed=13, drop_rate=0.1, reorder_rate=0.1),
    ])
    def test_matches_repeated_step(self, spec):
        data = _datagrams(400)
        scalar = spec.shim()
        out_scalar = []
        for d in data:
            out_scalar.extend(scalar.step(d))
        bulk = spec.shim()
        out_bulk = bulk.step_many(data)
        assert out_bulk == out_scalar
        assert (bulk.dropped, bulk.reordered, bulk.passed) == (
            scalar.dropped, scalar.reordered, scalar.passed)
        # Tail state matches too: same held datagrams flush next.
        assert bulk.flush() == scalar.flush()

    def test_interleaves_with_step(self):
        spec = LossSpec(seed=14, drop_rate=0.1, reorder_rate=0.2)
        data = _datagrams(300)
        mixed = spec.shim()
        out_mixed = list(mixed.step_many(data[:100]))
        for d in data[100:200]:
            out_mixed.extend(mixed.step(d))
        out_mixed.extend(mixed.step_many(data[200:]))
        out_mixed.extend(mixed.flush())
        assert out_mixed == spec.shim().apply(data)
        # The reporter's shape: ordinals as ``range`` slices, a few
        # single ``step`` calls between them, then ``flush``.  Heavy
        # reordering makes holds straddle slice and call boundaries;
        # what is held between calls is visible in ``holding``.
        spec = LossSpec(seed=15, drop_rate=0.05, reorder_rate=0.4,
                        reorder_span=6)
        n = 20_000
        for width in (1, 7, 8192):
            shim = spec.shim()
            out = []
            ordinal = straddled = 0
            while ordinal < n:
                end = min(ordinal + width, n)
                out.extend(shim.step_many(range(ordinal, end)))
                straddled += bool(shim.holding)
                assert all(held < end for held in shim.holding)
                ordinal = end
                for _ in range(min(3, n - ordinal)):
                    out.extend(shim.step(ordinal))
                    ordinal += 1
            out.extend(shim.flush())
            assert shim.holding == []
            assert straddled > 0
            assert out == spec.shim().apply(range(n))


class _OracleShim:
    """The shim as it was first written: one ``random.Random`` call per
    decision and a heap of held datagrams, per datagram in Python.
    Frozen here as the oracle the bulk shim must reproduce exactly."""

    def __init__(self, spec: LossSpec) -> None:
        self.spec = spec
        self.dropped = self.reordered = self.passed = 0
        self._rng = random.Random(spec.seed)
        self._index = 0
        self._held: list = []
        self._tie = 0

    def step(self, datagram) -> list:
        index = self._index
        self._index += 1
        out = []
        if self._rng.random() < self.spec.drop_rate:
            self.dropped += 1
        elif (self.spec.reorder_rate
                and self._rng.random() < self.spec.reorder_rate):
            slip = self._rng.randint(1, self.spec.reorder_span)
            self.reordered += 1
            heapq.heappush(self._held, (index + slip, self._tie, datagram))
            self._tie += 1
        else:
            self.passed += 1
            out.append(datagram)
        while self._held and self._held[0][0] <= index:
            out.append(heapq.heappop(self._held)[2])
        return out

    def flush(self) -> list:
        out = []
        while self._held:
            out.append(heapq.heappop(self._held)[2])
        return out


class TestOracle:
    """The bulk shim against the frozen per-datagram oracle: same wire
    stream, same counters, however the stream is cut into calls."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           drop=st.sampled_from([0.0, 0.02, 0.3, 0.9]) | st.floats(0, 0.99),
           reorder=st.sampled_from([0.0, 0.02, 0.9]) | st.floats(0, 0.99),
           span=st.integers(1, 8),
           calls=st.lists(st.tuples(st.sampled_from(["step", "many",
                                                     "flush"]),
                                    st.integers(0, 400)),
                          max_size=8))
    def test_any_partition_matches_the_oracle(self, seed, drop, reorder,
                                              span, calls):
        spec = LossSpec(seed, drop, reorder, span)
        oracle, shim = _OracleShim(spec), spec.shim()
        want, got = [], []
        ordinal = 0
        for kind, width in calls:
            batch = list(range(ordinal, ordinal + width))
            ordinal += width
            if kind == "flush":
                want += oracle.flush()
                got += shim.flush()
                continue
            for datagram in batch:
                want += oracle.step(datagram)
            if kind == "step":
                for datagram in batch:
                    got += shim.step(datagram)
            else:
                got += shim.step_many(batch)
        want += oracle.flush()
        got += shim.flush()
        assert got == want
        assert (shim.dropped, shim.reordered, shim.passed) == (
            oracle.dropped, oracle.reordered, oracle.passed)

    def test_udp_kw_lossy_schedule(self):
        """The benchmark's schedule, pinned: seed 7 at 2 % / 2 % over
        250 000 ordinals in the reporter's 8 192-ordinal slices (the
        counts the per-datagram shim gave)."""
        shim = LossSpec(seed=7, drop_rate=0.02, reorder_rate=0.02).shim()
        survivors = 0
        for start in range(0, 250_000, 8192):
            survivors += len(shim.step_many(
                np.arange(start, min(start + 8192, 250_000))))
        survivors += len(shim.flush())
        assert (shim.dropped, shim.reordered, survivors) == (
            5062, 4864, 244_938)

"""Property-based tests over the full reporter->translator->store path.

These drive random operation sequences through the real pipeline (DTA
codec, translator fan-out/batching, RoCE, QP, memory) and check the
semantic contracts of each primitive's store.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reporter import Reporter
from tests.conformance import deploy

keys = st.binary(min_size=1, max_size=13)
values = st.binary(min_size=4, max_size=4)


def deploy_kw(slots=1 << 14):
    return deploy(serve=lambda col: col.serve_keywrite(slots=slots,
                                                       data_bytes=4))


class TestKeyWriteContract:
    @given(st.lists(st.tuples(keys, values), min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_found_implies_last_write(self, writes):
        """If a query answers, it answers with the key's most recent
        value — never a stale or foreign one (up to the 2^-32 checksum
        collision the analysis bounds)."""
        with deploy_kw() as (_registry, col, _tr, reporter):
            last = {}
            for key, value in writes:
                reporter.key_write(key, value, redundancy=2)
                last[key] = value
            for key, expected in last.items():
                result = col.query_value(key, redundancy=2)
                if result.found:
                    assert result.value == expected

    @given(st.lists(st.tuples(keys, values), min_size=1, max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_low_load_always_found(self, writes):
        """Far below capacity, every key must be retrievable."""
        with deploy_kw(slots=1 << 16) as (_registry, col, _tr, reporter):
            last = {}
            for key, value in writes:
                reporter.key_write(key, value, redundancy=2)
                last[key] = value
            for key, expected in last.items():
                result = col.query_value(key, redundancy=2)
                assert result.found and result.value == expected

    @given(st.lists(st.tuples(keys, values), min_size=1, max_size=60),
           st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_redundancy_parameter_respected(self, writes, n):
        with deploy_kw(slots=1 << 15) as (_registry, col, _tr, reporter):
            for key, value in writes:
                reporter.key_write(key, value, redundancy=n)
        # Each report produced exactly n RDMA writes.
        translator_writes = col.nic.stats.messages
        assert translator_writes == n * len(writes)


class TestAppendContract:
    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.binary(min_size=1, max_size=4)),
                    min_size=1, max_size=120),
           st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_pollers_see_exact_per_list_sequences(self, events, batch):
        with deploy(serve=lambda col: col.serve_append(
                lists=4, capacity=256, data_bytes=4, batch_size=batch)) as (
                    _registry, col, tr, reporter):
            expected = {i: [] for i in range(4)}
            for list_id, data in events:
                reporter.append(list_id, data)
                expected[list_id].append(data.ljust(4, b"\x00"))
            tr.flush_appends()
            for list_id in range(4):
                assert col.list_poller(list_id).poll() == expected[list_id]


class TestKeyIncrementContract:
    @given(st.lists(st.tuples(keys, st.integers(1, 1000)),
                    min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_cms_never_underestimates(self, increments):
        with deploy(serve=lambda col: col.serve_keyincrement(
                slots_per_row=128, rows=4)) as (_registry, col, _tr, reporter):
            truth = {}
            for key, delta in increments:
                reporter.key_increment(key, delta, redundancy=4)
                truth[key] = truth.get(key, 0) + delta
            for key, total in truth.items():
                assert col.query_counter(key) >= total


class TestPostcardingContract:
    @given(st.lists(st.binary(min_size=1, max_size=13), min_size=1,
                    max_size=25, unique=True),
           st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_never_returns_a_foreign_path(self, flows, path_len):
        with deploy(serve=lambda col: col.serve_postcarding(
                chunks=1 << 12, value_set=range(64), cache_slots=1 << 10)) as (
                    _registry, col, _tr, reporter):
            paths = {}
            for i, key in enumerate(flows):
                path = [(i + hop) % 64 for hop in range(path_len)]
                paths[key] = path
                for hop, value in enumerate(path):
                    reporter.postcard(key, hop, value, path_length=path_len)
            for key, path in paths.items():
                got = col.query_path(key)
                assert got is None or got == path


class TestSketchContract:
    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_sum_merge_equals_manual_total(self, reporters, columns):
        width, depth = columns * 4, 3
        with deploy(serve=lambda col: col.serve_sketch(
                width=width, depth=depth, expected_reporters=reporters,
                batch_columns=4)) as (_registry, col, tr, _reporter):
            for r in range(reporters):
                rep = Reporter(f"r{r}", r, transmit=tr.handle_report)
                for c in range(width):
                    rep.sketch_column(0, c,
                                      tuple(r + 1 for _ in range(depth)))
            total = sum(range(1, reporters + 1))
            for c in range(width):
                assert col.sketch.column(c) == tuple([total] * depth)

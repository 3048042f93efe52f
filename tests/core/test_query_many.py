"""Batched store probes against their scalar oracles.

``query_many`` / ``point_query_many`` must return exactly what a loop
of the single-key API returns *and* charge the store's own counters
exactly what that loop charges.  Key-Write's answers are columns; they
are compared with the loop's ``QueryResult`` objects field by field.
Hypothesis writes slot bytes directly — right checksum with the wrong
value, split votes, ties, values after blanks, ``g(v)`` outside the
value set — into tables small enough that keys collide all the time.
"""

from __future__ import annotations

import copy
import struct

from hypothesis import given, settings, strategies as st

from repro.core.stores.keyincrement import (KeyIncrementLayout,
                                            KeyIncrementStore)
from repro.core.stores.keywrite import KeyWriteLayout, KeyWriteStore
from repro.core.stores.postcarding import (BLANK, PostcardingLayout,
                                           PostcardingStore)
from repro.core.stores.sketchstore import SketchLayout, SketchStore
from repro.kernels.crc import pack_keys
from repro.rdma.memory import ProtectionDomain
from repro.switch.crc import hash_family

KEYS = st.lists(st.binary(max_size=16), max_size=12)
SETTINGS = settings(max_examples=120, deadline=None)


def _store(store_cls, layout_cls, *extra, **geometry):
    pd = ProtectionDomain()
    region = pd.register(layout_cls(base_addr=0, **geometry).region_bytes)
    return store_cls(region, layout_cls(base_addr=region.addr, **geometry),
                     *extra)


# ----------------------------------------------------------------------
# Key-Write
# ----------------------------------------------------------------------


def _fields(columns) -> list:
    """``query_many``'s columns as ``(found, value, matched_slots)``
    per key, ``value`` None where not found."""
    found, values, matched = columns
    hits = found.tolist()
    return list(zip(hits, [value if hit else None for value, hit
                           in zip(values.tolist(), hits)],
                    matched.tolist()))


def _oracle(results) -> list:
    return [(result.found, result.value, result.matched_slots)
            for result in results]


#: (key index, redundancy lane, value, whether the checksum is the key's)
KW_WRITES = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 3),
              st.sampled_from([b"a", b"b", b"c"]), st.booleans()),
    max_size=40)


@given(KEYS, KW_WRITES, st.sampled_from([2, 8, 64]),
       st.sampled_from([1, 4, 20]))
@SETTINGS
def test_keywrite_query_many_equals_the_query_loop(keys, writes, slots,
                                                   data_bytes):
    store = _store(KeyWriteStore, KeyWriteLayout, slots=slots,
                   data_bytes=data_bytes)
    layout = store.layout
    for index, lane, value, own_checksum in writes:
        if not keys:
            break
        key = keys[index % len(keys)]
        checksum = layout.checksum(key) ^ (0 if own_checksum else 1)
        # The right checksum over a value some other report chose is
        # what a checksum collision looks like from the query side.
        store.region.local_write(
            layout.slot_index(lane, key) * layout.slot_bytes,
            struct.pack(">I", checksum) + value.ljust(data_bytes, b"\0"))
    for redundancy in (None, 1, 2, 3, 4):
        for consensus in (1, 2):
            store.reset_stats()
            looped = [store.query(key, redundancy=redundancy,
                                  consensus=consensus) for key in keys]
            loop_stats = copy.copy(store.stats)
            store.reset_stats()
            batched = store.query_many(keys, redundancy=redundancy,
                                       consensus=consensus)
            assert _fields(batched) == _oracle(looped)
            assert batched[0].dtype == bool and len(batched[0]) == len(keys)
            assert store.stats == loop_stats


def test_keywrite_vote_cases_by_hand():
    """The cases the vote must get right, spelled out: plurality, a
    two-way tie (once its fourth slot is read), a three-way split, one
    survivor below the consensus threshold."""
    store = _store(KeyWriteStore, KeyWriteLayout, slots=1 << 12,
                   data_bytes=4)
    layout = store.layout

    def put(key, lane, value):
        store.region.local_write(
            layout.slot_index(lane, key) * layout.slot_bytes,
            struct.pack(">I", layout.checksum(key)) + value)

    for lane, value in enumerate([b"AAAA", b"BBBB", b"AAAA"]):
        put(b"plurality", lane, value)
    for lane, value in enumerate([b"AAAA", b"BBBB", b"BBBB", b"AAAA"]):
        put(b"tie", lane, value)
    for lane, value in enumerate([b"AAAA", b"BBBB", b"CCCC"]):
        put(b"split", lane, value)
    put(b"lonely", 2, b"DDDD")
    keys = [b"plurality", b"tie", b"split", b"lonely", b"absent"]

    at_three = _fields(store.query_many(keys, redundancy=3))
    assert [value for _hit, value, _n in at_three] \
        == [b"AAAA", b"BBBB", None, b"DDDD", None]
    assert [n for _hit, _value, n in at_three] == [3, 3, 3, 1, 0]
    assert store.query(b"plurality", redundancy=3).candidates \
        == [b"AAAA", b"BBBB", b"AAAA"]
    at_four = _fields(store.query_many(keys, redundancy=4, consensus=2))
    assert [value for _hit, value, _n in at_four] \
        == [b"AAAA", None, None, None, None]
    # A miss reads zero bytes in the value column, whatever its slots held.
    _found, values, _matched = store.query_many(keys, redundancy=3)
    assert values.tolist()[2:] == [bytes(4), b"DDDD", bytes(4)]
    for redundancy, consensus in ((3, 1), (4, 2), (1, 1)):
        assert _fields(store.query_many(keys, redundancy=redundancy,
                                        consensus=consensus)) \
            == _oracle(store.query(key, redundancy=redundancy,
                                   consensus=consensus) for key in keys)


def test_packed_keys_are_only_a_shortcut():
    store = _store(KeyWriteStore, KeyWriteLayout, slots=256, data_bytes=4)
    keys = [bytes([i]) * (1 + i % 5) for i in range(20)]
    for key in keys[::2]:
        store.local_insert(key, key[:4], redundancy=2)
    assert _fields(store.query_many(keys, redundancy=2,
                                    packed=pack_keys(keys))) \
        == _fields(store.query_many(keys, redundancy=2))


# ----------------------------------------------------------------------
# Key-Increment
# ----------------------------------------------------------------------


@given(KEYS,
       st.lists(st.tuples(st.integers(0, 11), st.integers(1, 1 << 40),
                          st.integers(1, 6)), max_size=30),
       st.integers(1, 4), st.sampled_from([1, 3, 32]))
@SETTINGS
def test_keyincrement_query_many_equals_the_query_loop(keys, adds, rows,
                                                       slots_per_row):
    store = _store(KeyIncrementStore, KeyIncrementLayout,
                   slots_per_row=slots_per_row, rows=rows)
    for index, value, redundancy in adds:
        if keys:
            store.local_increment(keys[index % len(keys)], value,
                                  redundancy=redundancy)
    # Redundancy above ``layout.rows`` reads every row there is.
    for redundancy in (None, 1, 2, rows, rows + 1, rows + 3):
        store.queries = 0
        looped = [store.query(key, redundancy=redundancy) for key in keys]
        loop_queries, store.queries = store.queries, 0
        batched = store.query_many(keys, redundancy=redundancy)
        assert batched == looped
        assert all(type(count) is int for count in batched)
        assert store.queries == loop_queries == len(keys)


# ----------------------------------------------------------------------
# Postcarding
# ----------------------------------------------------------------------

VALUES = tuple(range(16))
UNKNOWN = 9999                      # g(UNKNOWN) is in no store's table
SLOT = st.sampled_from([BLANK, BLANK, 0, 3, 15, UNKNOWN])
#: (key index, redundancy copy j, one value per hop — free-form, so a
#: value after a blank and an unknown g(v) both occur)
PC_WRITES = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 2),
              st.lists(SLOT, min_size=5, max_size=5)),
    max_size=24)
_SLOT_FMT = {8: ">B", 16: ">H", 32: ">I", 64: ">Q"}


def _postcard_counters(store):
    return (store.queries, store.hits, store.chunk_reads,
            store.hop_checksums)


@given(KEYS, PC_WRITES, st.sampled_from([2, 16]),
       st.sampled_from([1, 3, 5]), st.sampled_from([16, 32, 64]))
@SETTINGS
def test_postcarding_query_many_equals_the_query_loop(keys, writes, chunks,
                                                      hops, slot_bits):
    store = _store(PostcardingStore, PostcardingLayout, VALUES,
                   chunks=chunks, hops=hops, slot_bits=slot_bits,
                   pad_to=hops * slot_bits // 8)
    layout = store.layout
    for index, copy_j, slots in writes:
        if not keys:
            break
        key = keys[index % len(keys)]
        # Copies written one by one: N > 1 queries see chunks that
        # disagree, chunks that are garbage and chunks that are absent.
        store.region.local_write(
            layout.chunk_index(key, copy_j) * layout.pad_to,
            b"".join(struct.pack(_SLOT_FMT[slot_bits],
                                 layout.encode_slot(key, hop, value))
                     for hop, value in enumerate(slots[:hops])))
    for redundancy in (0, 1, 2, 3):
        before = _postcard_counters(store)
        looped = [store.query(key, redundancy=redundancy) for key in keys]
        between = _postcard_counters(store)
        batched = store.query_many(keys, redundancy=redundancy)
        after = _postcard_counters(store)
        assert batched == looped
        assert [b - a for a, b in zip(between, after)] \
            == [b - a for a, b in zip(before, between)]


def test_postcarding_paths_come_back_as_the_store_wrote_them():
    store = _store(PostcardingStore, PostcardingLayout, VALUES,
                   chunks=512, hops=5)
    store.local_insert(b"full", [1, 2, 3, 4, 5], redundancy=2)
    store.local_insert(b"short", [7, 8], redundancy=2)
    store.local_insert(b"empty", [], redundancy=2)
    keys = [b"full", b"short", b"empty", b"never-written"]
    assert store.query_many(keys, redundancy=2) \
        == [[1, 2, 3, 4, 5], [7, 8], [], None]
    assert store.hits == 3 and store.chunk_reads == 8


# ----------------------------------------------------------------------
# Merged sketch
# ----------------------------------------------------------------------


@given(KEYS, st.lists(st.integers(0, (1 << 32) - 1), min_size=24,
                      max_size=24),
       st.sampled_from([1, 2, 6]))
@SETTINGS
def test_sketch_point_query_many_equals_the_point_query_loop(keys, cells,
                                                             width):
    depth = 4
    store = _store(SketchStore, SketchLayout, width=width, depth=depth)
    store.region.local_write(
        0, struct.pack(f">{width * depth}I", *cells[:width * depth]))
    for rows in (None, 1, 3, depth, depth + 2):
        looped = [store.point_query(key, hash_family(rows or depth))
                  for key in keys]
        assert store.point_query_many(keys, rows=rows) == looped


def test_the_sketch_view_and_each_lane_are_built_once(monkeypatch):
    """ISSUE 21's small fix: the scalar probe rebuilds the counter view
    and walks the hash family once per key; the batched one does each
    once per call."""
    from repro.kernels import crc as kcrc

    store = _store(SketchStore, SketchLayout, width=64, depth=4)
    views, passes = [], []
    real_counters, real_resume = store.counters, kcrc._crc32_resume
    monkeypatch.setattr(store, "counters",
                        lambda: views.append(1) or real_counters())
    monkeypatch.setattr(
        kcrc, "_crc32_resume",
        lambda *args: passes.append(1) or real_resume(*args))
    keys = [bytes([i]) * 13 for i in range(64)]
    store.point_query_many(keys)
    assert (len(views), len(passes)) == (1, 1)
    for key in keys:
        store.point_query(key, hash_family(4))
    assert len(views) == 1 + len(keys)

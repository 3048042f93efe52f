"""The three stateful plans against their scalar lanes.

Postcarding, Append and Sketch-Merge plans advance translator state
(cache rows, pending lists and heads, column cursors) as well as
collector memory, so each is held to its ``_batch_*`` lane on store
bytes **and** the obs digest — every translator, cache, NIC and QP
series — at batch 1 / 7 / 64 / 256, over the cases where the state
machines do something other than the clean thing: ring wraps, a flush
mid-stream, a carry longer than a batch; cache collisions, an eviction
that completes on insert, duplicate hops, short paths, flows straddling
batches, two flows in one store chunk; out-of-order columns, two
reporters, ``merge="max"``, the short tail transfer.
"""

from __future__ import annotations

import random
import struct

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import primitives
from repro.core.batch import ReportBatch
from repro.core.packets import DtaPrimitive
from repro.core.postcard_cache import PostcardCache
from repro.kernels import MIN_VECTOR_BATCH
from tests import conformance

BATCH_SIZES = [1, 7, 64, 256]


def _lane(vectorized: bool, serve, drive) -> dict:
    """``drive(translator, send)`` on a rig deployment of what ``serve``
    provisions, ``send`` being ``process_batch``: the rig's signature,
    plus the NACKs, plans and scalar bursts ``drive`` made."""
    counts = {}

    def feed(translator, _reporter):
        controls, planned, posted = [], [], []
        translator.control_sink = lambda src, raw: controls.append(raw)
        plan_batch = translator.plan_batch

        def counting(batch, *args, **kwargs):
            plan = plan_batch(batch, *args, **kwargs)
            planned.append(plan is not None)
            return plan

        translator.plan_batch = counting
        post_burst = translator.client.post_burst
        translator.client.post_burst = \
            lambda wrs: posted.append(len(wrs)) or post_burst(wrs)
        drive(translator, translator.process_batch)
        counts.update(controls=controls, planned=sum(planned),
                      scalar_bursts=len(posted))

    got, _refs = conformance.direct(feed, vectorized=vectorized,
                                    serve=serve)
    return {**got, **counts}


def assert_plan_matches_scalar(serve, drive, *, planned: bool = True):
    scalar = _lane(False, serve, drive)
    vector = _lane(True, serve, drive)
    assert scalar["planned"] == 0
    assert vector["store"] == scalar["store"]
    assert vector["obs"] == scalar["obs"]
    assert vector["controls"] == scalar["controls"]
    if planned:
        assert vector["planned"] > 0, "the plan was never taken"
    return vector


def _slices(n: int, size: int):
    return [(s, min(s + size, n)) for s in range(0, n, size)]


# ----------------------------------------------------------------------
# Append
# ----------------------------------------------------------------------


def _serve_append(lists=3, capacity=40, data_bytes=8, batch_size=8):
    return lambda collector: collector.serve_append(
        lists=lists, capacity=capacity, data_bytes=data_bytes,
        batch_size=batch_size)


def _entries(n: int, width: int = 8, seed: int = 1):
    rng = random.Random(seed)
    return [struct.pack(">I", i) + rng.randbytes(width - 4)
            for i in range(n)]


class TestAppendPlan:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_round_robin_across_ring_wraps(self, size):
        # 400 entries into three 40-entry rings: every list laps
        # several times, and flushes land on the ring boundary.
        datas = _entries(400)
        ids = [i % 3 for i in range(400)]

        def drive(translator, send):
            for s, e in _slices(400, size):
                send(ReportBatch.appends(ids[s:e], datas[s:e]))
            translator.flush_appends()

        assert_plan_matches_scalar(_serve_append(), drive,
                                   planned=size >= MIN_VECTOR_BATCH)

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_unequal_loads_and_flush_mid_stream(self, size):
        rng = random.Random(2)
        ids = [rng.choice((0, 0, 0, 0, 1, 2)) for _ in range(300)]
        datas = _entries(300, seed=2)

        def drive(translator, send):
            for turn, (s, e) in enumerate(_slices(300, size)):
                send(ReportBatch.appends(ids[s:e], datas[s:e]))
                if turn % 3 == 1:
                    translator.flush_appends()
            translator.flush_appends()

        assert_plan_matches_scalar(_serve_append(), drive,
                                   planned=size >= MIN_VECTOR_BATCH)

    @pytest.mark.parametrize("size", [7, 64])
    def test_one_list_only(self, size):
        datas = _entries(200, seed=3)

        def drive(translator, send):
            for s, e in _slices(200, size):
                send(ReportBatch.appends([1] * (e - s), datas[s:e]))
            translator.flush_appends()

        assert_plan_matches_scalar(_serve_append(), drive)

    def test_one_batch_laps_the_ring_twice(self):
        # 100 entries into one 40-entry ring in a single batch: later
        # writes of the plan overwrite its earlier ones.
        datas = _entries(100, seed=4)

        def drive(translator, send):
            send(ReportBatch.appends([0] * 100, datas))
            translator.flush_appends()

        assert_plan_matches_scalar(_serve_append(), drive)

    def test_carry_longer_than_batch_size(self):
        # A pending list longer than ``batch_size`` (only reachable by
        # restoring state, never by the flush rule) goes out whole on
        # the next entry, split at the ring boundary only.
        datas = _entries(64, seed=5)
        carry = _entries(35, seed=6)

        def drive(translator, send):
            translator._lanes[DtaPrimitive.APPEND].batches[2] = list(carry)
            translator._lanes[DtaPrimitive.APPEND].heads[2] = 30
            send(ReportBatch.appends([2, 0, 2, 2] * 16, datas))
            translator.flush_appends()

        assert_plan_matches_scalar(_serve_append(), drive)

    def test_narrow_entries_are_padded(self):
        rng = random.Random(7)
        datas = [rng.randbytes(rng.randrange(1, 9)) for _ in range(120)]
        ids = [i % 2 for i in range(120)]

        def drive(translator, send):
            for s, e in _slices(120, 32):
                send(ReportBatch.appends(ids[s:e], datas[s:e]))
            translator.flush_appends()

        assert_plan_matches_scalar(_serve_append(), drive)

    def test_nothing_to_emit_is_a_plan_with_zero_writes(self):
        def drive(translator, send):
            send(ReportBatch.appends([0, 1, 2, 0], _entries(4)))

        vector = assert_plan_matches_scalar(_serve_append(), drive)
        assert vector["planned"] == 1 and vector["scalar_bursts"] == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_stream(self, data):
        lists = data.draw(st.integers(1, 4))
        capacity = data.draw(st.integers(3, 24))
        batch_size = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(4, 120))
        ids = data.draw(st.lists(st.integers(0, lists - 1), min_size=n,
                                 max_size=n))
        widths = data.draw(st.lists(st.integers(1, 6), min_size=n,
                                    max_size=n))
        cuts = data.draw(st.lists(st.integers(4, 40), min_size=1,
                                  max_size=8))
        flush_after = data.draw(st.sets(st.integers(0, 7)))
        datas = [bytes([i % 251 + 1]) * w for i, w in enumerate(widths)]

        def drive(translator, send):
            at = turn = 0
            while at < n:
                size = cuts[turn % len(cuts)]
                send(ReportBatch.appends(ids[at:at + size],
                                         datas[at:at + size]))
                if turn in flush_after:
                    translator.flush_appends()
                at += size
                turn += 1
            translator.flush_appends()

        assert_plan_matches_scalar(
            _serve_append(lists, capacity, 6, batch_size), drive)


# ----------------------------------------------------------------------
# Postcarding
# ----------------------------------------------------------------------


def _serve_postcarding(chunks=64, hops=5, cache_slots=1024):
    return lambda collector: collector.serve_postcarding(
        chunks=chunks, value_set=range(64), hops=hops,
        cache_slots=cache_slots)


def _flow_stream(flows: int, hops: int, seed: int, *, path_len=None,
                 shuffle_window: int = 0):
    """``(keys, hops, values, path_lengths)`` of ``flows`` full paths,
    optionally interleaved within a sliding window."""
    rng = random.Random(seed)
    rows = [(struct.pack(">I", flow), hop, rng.randrange(64),
             hops if path_len is None else path_len)
            for flow in range(flows)
            for hop in range(hops if path_len in (None, 0) else
                             min(path_len, hops))]
    if shuffle_window:
        for s in range(0, len(rows), shuffle_window):
            window = rows[s:s + shuffle_window]
            rng.shuffle(window)
            rows[s:s + shuffle_window] = window
    return tuple(map(list, zip(*rows)))


def _send_postcards(send, columns, size, redundancy=1):
    keys, hops, values, path_lengths = columns
    for s, e in _slices(len(keys), size):
        send(ReportBatch.postcards(keys[s:e], hops[s:e], values[s:e],
                                   path_lengths=path_lengths[s:e],
                                   redundancy=redundancy))


class TestPostcardingPlan:
    @pytest.mark.parametrize("redundancy", [1, 2, 3])
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_full_paths_straddling_batches(self, size, redundancy):
        # 64 is not a multiple of 5: every batch edge cuts a flow.
        # 70 flows into 64 chunks: some share a chunk (last one wins).
        columns = _flow_stream(70, 5, seed=11)

        def drive(translator, send):
            _send_postcards(send, columns, size, redundancy)

        assert_plan_matches_scalar(_serve_postcarding(), drive,
                                   planned=size >= MIN_VECTOR_BATCH)

    @pytest.mark.parametrize("size", [7, 64, 256])
    def test_cache_collisions(self, size):
        # Four cache rows for flows interleaved 15 postcards deep:
        # rows are contended inside a batch and across batches.
        columns = _flow_stream(60, 5, seed=12, shuffle_window=15)

        def drive(translator, send):
            _send_postcards(send, columns, size)

        assert_plan_matches_scalar(
            _serve_postcarding(cache_slots=4), drive)

    @pytest.mark.parametrize("size", [7, 64])
    def test_eviction_that_completes_on_insert(self, size):
        # One-postcard paths into a one-row cache behind a resident
        # partial flow: the insert evicts it *and* completes, so the
        # complete chunk is collected before the evicted one.
        rng = random.Random(13)
        keys, hops, values, lens = [], [], [], []
        for flow in range(40):
            key = struct.pack(">I", flow)
            if flow % 3 == 0:           # two of five hops, then silence
                keys += [key, key]
                hops += [0, 1]
                values += [rng.randrange(64), rng.randrange(64)]
                lens += [5, 5]
            else:                       # a whole path in one postcard
                keys.append(key)
                hops.append(0)
                values.append(rng.randrange(64))
                lens.append(1)

        def drive(translator, send):
            _send_postcards(send, (keys, hops, values, lens), size)

        vector = assert_plan_matches_scalar(
            _serve_postcarding(cache_slots=1), drive)
        assert vector["planned"]

    @pytest.mark.parametrize("size", [7, 64])
    def test_duplicate_hops(self, size):
        rng = random.Random(14)
        keys, hops, values = [], [], []
        for flow in range(30):
            key = struct.pack(">I", flow)
            for hop in (0, 1, 1, 2, 3, 0, 4):
                keys.append(key)
                hops.append(hop)
                values.append(rng.randrange(64))
        lens = [5] * len(keys)

        def drive(translator, send):
            _send_postcards(send, (keys, hops, values, lens), size)

        assert_plan_matches_scalar(_serve_postcarding(), drive)

    @pytest.mark.parametrize("path_len", [0, 1, 3, 9])
    def test_path_lengths_short_of_and_beyond_the_hops(self, path_len):
        columns = _flow_stream(40, 5, seed=15, path_len=path_len)

        def drive(translator, send):
            _send_postcards(send, columns, 64)

        assert_plan_matches_scalar(_serve_postcarding(), drive)

    def test_path_length_changing_inside_a_flow(self):
        keys = [struct.pack(">I", flow) for flow in range(20)
                for _ in range(3)]
        hops = [0, 1, 2] * 20
        values = [7] * 60
        lens = [5, 3, 3] * 20     # the second postcard shortens it

        def drive(translator, send):
            _send_postcards(send, (keys, hops, values, lens), 64)

        assert_plan_matches_scalar(_serve_postcarding(), drive)

    def test_nothing_to_emit_is_a_plan_with_zero_writes(self):
        keys = [struct.pack(">I", flow) for flow in range(4)]

        def drive(translator, send):
            send(ReportBatch.postcards(keys, [0, 1, 2, 3], [1, 2, 3, 4],
                                       path_lengths=[5] * 4))

        vector = assert_plan_matches_scalar(_serve_postcarding(), drive)
        assert vector["planned"] == 1 and vector["scalar_bursts"] == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_stream(self, data):
        hops = data.draw(st.integers(1, 5))
        cache_slots = data.draw(st.sampled_from([1, 2, 5, 64]))
        chunks = data.draw(st.sampled_from([2, 16]))
        n = data.draw(st.integers(4, 150))
        flows = data.draw(st.integers(1, 12))
        column = lambda values: data.draw(      # noqa: E731
            st.lists(values, min_size=n, max_size=n))
        keys = [struct.pack(">H", f)
                for f in column(st.integers(0, flows - 1))]
        hop_column = column(st.integers(0, hops - 1))
        values = column(st.integers(0, 63))
        lens = column(st.sampled_from([0, 1, hops, hops, hops + 2]))
        size = data.draw(st.sampled_from([5, 32, 150]))
        redundancy = data.draw(st.integers(1, 3))

        def drive(translator, send):
            _send_postcards(send, (keys, hop_column, values, lens), size,
                            redundancy)

        assert_plan_matches_scalar(
            _serve_postcarding(chunks, hops, cache_slots), drive)


class TestInsertMany:
    """The cache's own batched twin, against the ``insert`` loop."""

    @staticmethod
    def _loop(cache, keys, hops, values, lens):
        out = []
        for key, hop, value, path_len in zip(keys, hops, values, lens):
            emission = cache.insert(key, hop, value,
                                    path_len=path_len or None)
            if emission is not None:
                out.append(emission)
            while cache.pending_evicted:
                out.append(cache.pending_evicted.pop())
        return out

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_emissions_rows_and_counters_equal_the_loop(self, data):
        hops = data.draw(st.integers(1, 5))
        slots = data.draw(st.sampled_from([1, 3, 64]))
        n = data.draw(st.integers(0, 80))
        column = lambda values: data.draw(      # noqa: E731
            st.lists(values, min_size=n, max_size=n))
        keys = [bytes([k]) for k in column(st.integers(0, 9))]
        hop_column = column(st.integers(0, hops - 1))
        values = column(st.integers(0, 99))
        lens = column(st.sampled_from([0, 1, hops, hops + 1]))
        previous = obs.set_registry(obs.Registry())
        try:
            loop, many = (PostcardCache(slots, hops, labels={"lane": lane})
                          for lane in ("loop", "many"))
            # Two rounds: the second starts from resident rows.
            for _ in range(2):
                assert (many.insert_many(keys, hop_column, values, lens)
                        == self._loop(loop, keys, hop_column, values, lens))
                assert many.resident() == loop.resident()
                assert many.stats.as_dict() == loop.stats.as_dict()
                assert many.flush() == loop.flush()
        finally:
            obs.set_registry(previous)

    def test_emissions_left_undrained_go_out_first(self):
        # A caller that did not drain ``pending_evicted`` gets it with
        # the first insert, from the loop and from ``insert_many`` alike.
        keys = [b"c", b"c", b"d"]
        previous = obs.set_registry(obs.Registry())
        try:
            caches = [PostcardCache(1, 2, labels={"lane": lane})
                      for lane in ("loop", "many")]
            for cache in caches:
                cache.insert(b"a", 0, 1, path_len=2)
                cache.insert(b"b", 0, 2, path_len=1)   # evicts a, completes
                assert len(cache.pending_evicted) == 1
            loop, many = caches
            assert (many.insert_many(keys, [0, 1, 0], [5, 6, 7], [2, 2, 2])
                    == self._loop(loop, keys, [0, 1, 0], [5, 6, 7],
                                  [2, 2, 2]))
            assert many.stats.as_dict() == loop.stats.as_dict()
        finally:
            obs.set_registry(previous)

    def test_a_bad_hop_raises_before_anything_changes(self):
        cache = PostcardCache(8, 3)
        with pytest.raises(IndexError):
            cache.insert_many([b"a", b"b"], [0, 3], [1, 2], [3, 3])
        assert cache.occupancy == 0 and cache.stats.postcards == 0


# ----------------------------------------------------------------------
# Sketch-Merge
# ----------------------------------------------------------------------


def _serve_sketch(width=100, reporters=1, merge="sum", batch_columns=16):
    return lambda collector: collector.serve_sketch(
        width=width, depth=4, expected_reporters=reporters,
        batch_columns=batch_columns, merge=merge)


def _sketch_rows(width: int, seed: int):
    rng = random.Random(seed)
    return [tuple(rng.getrandbits(31) for _ in range(4))
            for _ in range(width)]


def _sweep(send, rows, size, reporter_id=1, order=None):
    columns = list(range(len(rows))) if order is None else order
    for s, e in _slices(len(columns), size):
        batch = ReportBatch.sketch_columns(
            0, columns[s:e], [rows[c] for c in columns[s:e]])
        batch.reporter_id = reporter_id
        send(batch)


class TestSketchMergePlan:
    @pytest.mark.parametrize("merge", ["sum", "max"])
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_in_order_sweep_with_a_short_tail(self, size, merge):
        # Width 100 in transfers of 16: six whole ones and a tail of 4.
        rows = _sketch_rows(100, seed=21)

        def drive(translator, send):
            _sweep(send, rows, size)

        assert_plan_matches_scalar(_serve_sketch(merge=merge), drive,
                                   planned=size >= MIN_VECTOR_BATCH)

    @pytest.mark.parametrize("merge", ["sum", "max"])
    def test_two_reporters(self, merge):
        first, second = _sketch_rows(100, 22), _sketch_rows(100, 23)

        def drive(translator, send):
            # Reporter 2 trails reporter 1 by a batch: columns complete
            # (and transfer) only as the second sweep passes them.
            _sweep(send, first[:60], 20, reporter_id=1)
            _sweep(send, second, 25, reporter_id=2)
            _sweep(send, first, 20, reporter_id=1,
                   order=list(range(60, 100)))

        assert_plan_matches_scalar(
            _serve_sketch(reporters=2, merge=merge), drive)

    def test_out_of_order_columns_are_nacked_alike(self):
        rows = _sketch_rows(100, seed=24)
        order = list(range(100))
        order[40], order[41] = order[41], order[40]     # inside a batch
        order = order[:70] + [90] + order[70:]          # a stray column

        def drive(translator, send):
            _sweep(send, rows, 32, order=order)

        vector = assert_plan_matches_scalar(_serve_sketch(), drive)
        assert vector["controls"], "no NACK was sent"

    def test_counters_beyond_int64_take_the_scalar_lane(self):
        rows = _sketch_rows(32, seed=25)
        rows[5] = (1 << 70, 1, 2, 3)

        def drive(translator, send):
            _sweep(send, rows, 16)

        for merge in ("sum", "max"):
            scalar = _lane(False, _serve_sketch(32, merge=merge), drive)
            vector = _lane(True, _serve_sketch(32, merge=merge), drive)
            assert vector["store"] == scalar["store"]
            assert vector["obs"] == scalar["obs"]

    def test_epoch_reset_between_sweeps(self):
        rows, again = _sketch_rows(64, 26), _sketch_rows(64, 27)

        def drive(translator, send):
            _sweep(send, rows, 16)
            translator.reset_sketch_epoch()
            _sweep(send, again, 64)

        assert_plan_matches_scalar(_serve_sketch(64), drive)

    def test_storage_the_scalar_lane_built_is_converted(self):
        # Per-report traffic first (list storage on a translator that
        # is not yet vectorized), then the flag flips — what
        # ``StreamEngine(vectorized=True)`` does to a translator built
        # ``vectorized=False`` — and the plan carries on from there.
        rows = _sketch_rows(64, seed=28)

        def drive(translator, send):
            vectorized, translator.vectorized = translator.vectorized, False
            _sweep(send, rows[:10], 5)
            assert isinstance(translator._lanes[DtaPrimitive.SKETCH_MERGE].columns, list)
            translator.vectorized = vectorized
            _sweep(send, rows, 27, order=list(range(10, 64)))

        assert_plan_matches_scalar(_serve_sketch(64), drive)

    def test_nothing_to_emit_is_a_plan_with_zero_writes(self):
        rows = _sketch_rows(100, seed=29)

        def drive(translator, send):
            _sweep(send, rows[:8], 8)

        vector = assert_plan_matches_scalar(_serve_sketch(), drive)
        assert vector["planned"] == 1 and vector["scalar_bursts"] == 0


def test_sketch_storage_is_allocated_by_the_first_column():
    with conformance.deploy(serve=lambda collector: collector.serve_sketch(
            width=64, depth=4, expected_reporters=1)) as (
                _registry, _collector, translator, _reporter):
        lane = translator._lanes[DtaPrimitive.SKETCH_MERGE]
        assert lane.columns is None
        batch = ReportBatch.sketch_columns(0, [0], [(1, 2, 3, 4)])
        batch.reporter_id = 1
        translator.process_batch(batch)
        assert lane.columns[0] == [1, 2, 3, 4]
        translator.reset_sketch_epoch()
        assert lane.columns is None


# ----------------------------------------------------------------------
# The bad-target fallback
# ----------------------------------------------------------------------


def _posted(vectorized: bool, serve, batches) -> list:
    """Every burst the translator hands the RDMA client, as
    ``(opcode, offset, data)`` lists — the scalar lane's own bursts,
    or each plan's ``scalar_burst()`` (what ``apply`` posts when the
    target went bad after planning)."""
    with conformance.deploy(vectorized=vectorized, serve=serve) as (
            _registry, collector, translator, _reporter):
        bursts = []
        base = primitives.served(collector)[0][1].region.addr

        def record(wrs):
            if wrs:
                bursts.append([(wr.opcode, wr.remote_addr - base, wr.data)
                               for wr in wrs])

        for batch in batches:
            if vectorized:
                plan = translator.plan_batch(batch)
                assert plan is not None
                record(plan.scalar_burst())
                plan.apply(translator.client)
            else:
                real = translator.client.post_burst
                translator.client.post_burst = \
                    lambda wrs: record(wrs) or real(wrs)
                translator.process_batch(batch)
                translator.client.post_burst = real
        return bursts


@pytest.mark.parametrize("primitive", ["postcarding", "append",
                                       "sketch_merge"])
def test_fallback_burst_is_the_scalar_lanes_burst(primitive):
    """Same requests, same bytes, same order: the flushes of different
    lists interleave by the entry that triggered them, a completed
    chunk goes out before the row its insert evicted."""
    rng = random.Random(31)
    if primitive == "append":
        serve = _serve_append(lists=3, capacity=20, batch_size=4)
        ids = [rng.choice((0, 1, 1, 2)) for _ in range(192)]
        datas = _entries(192, seed=31)
        batches = [ReportBatch.appends(ids[s:e], datas[s:e])
                   for s, e in _slices(192, 64)]
    elif primitive == "postcarding":
        serve = _serve_postcarding(chunks=32, cache_slots=3)
        columns = _flow_stream(40, 5, seed=31, shuffle_window=12)
        batches = [ReportBatch.postcards(
            *(column[s:e] for column in columns[:3]),
            path_lengths=columns[3][s:e], redundancy=2)
            for s, e in _slices(len(columns[0]), 64)]
    else:
        serve = _serve_sketch(width=150)
        rows = _sketch_rows(150, seed=31)
        batches = []
        for s, e in _slices(150, 64):
            batch = ReportBatch.sketch_columns(0, list(range(s, e)),
                                               rows[s:e])
            batch.reporter_id = 1
            batches.append(batch)
    assert _posted(True, serve, batches) == _posted(False, serve, batches)

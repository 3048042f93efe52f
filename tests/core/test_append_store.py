"""Append store: ring layout, lap tags, pollers, recent()."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdma.memory import ProtectionDomain
from repro.core.stores.append import (
    AppendLayout,
    AppendStore,
    entry_data,
    lap_tag,
)


def make_store(lists=4, capacity=16, data_bytes=4):
    probe = AppendLayout(base_addr=0, lists=lists, capacity=capacity,
                         data_bytes=data_bytes)
    pd = ProtectionDomain()
    region = pd.register(probe.region_bytes)
    layout = AppendLayout(base_addr=region.addr, lists=lists,
                          capacity=capacity, data_bytes=data_bytes)
    return AppendStore(region, layout)


def direct_write(store, list_id, entries, head):
    """Write a batch the way the translator would (local shortcut)."""
    layout = store.layout
    payload = layout.encode_batch(entries, head)
    offset = (layout.list_base(list_id) - layout.base_addr
              + (head % layout.capacity) * layout.entry_bytes)
    store.region.local_write(offset, payload)


class TestLayout:
    def test_entry_bytes_includes_tag(self):
        layout = AppendLayout(base_addr=0, lists=1, capacity=4,
                              data_bytes=4)
        assert layout.entry_bytes == 5
        assert layout.list_bytes == 20

    def test_lap_tag_never_zero(self):
        assert all(lap_tag(lap) != 0 for lap in range(1000))

    def test_lap_tag_changes_between_consecutive_laps(self):
        assert lap_tag(0) != lap_tag(1)

    def test_list_bounds_checked(self):
        layout = AppendLayout(base_addr=0, lists=2, capacity=4,
                              data_bytes=4)
        with pytest.raises(IndexError):
            layout.list_base(2)
        with pytest.raises(IndexError):
            layout.entry_addr(0, 4)

    def test_encode_batch_rejects_wrap(self):
        layout = AppendLayout(base_addr=0, lists=1, capacity=4,
                              data_bytes=4)
        with pytest.raises(ValueError):
            layout.encode_batch([b"a", b"b"], head=3)  # slot 3 + 2 > 4

    def test_encode_entry_pads(self):
        layout = AppendLayout(base_addr=0, lists=1, capacity=4,
                              data_bytes=4)
        entry = layout.encode_entry(b"ab", lap=0)
        assert entry == bytes([lap_tag(0)]) + b"ab\x00\x00"

    def test_encode_entry_rejects_wide(self):
        layout = AppendLayout(base_addr=0, lists=1, capacity=4,
                              data_bytes=2)
        with pytest.raises(ValueError):
            layout.encode_entry(b"abc", lap=0)


class TestPolling:
    def test_poll_returns_written_entries_in_order(self):
        store = make_store()
        direct_write(store, 0, [b"\x01", b"\x02", b"\x03"], head=0)
        poller = store.poller(0)
        entries = poller.poll()
        assert [e[0] for e in entries] == [1, 2, 3]

    def test_poll_stops_at_unpublished(self):
        store = make_store()
        direct_write(store, 0, [b"\x01"], head=0)
        poller = store.poller(0)
        assert len(poller.poll()) == 1
        assert poller.poll() == []  # nothing new

    def test_poll_resumes_after_new_data(self):
        store = make_store()
        poller = store.poller(0)
        direct_write(store, 0, [b"\x01"], head=0)
        poller.poll()
        direct_write(store, 0, [b"\x02"], head=1)
        entries = poller.poll()
        assert len(entries) == 1 and entries[0][0] == 2

    def test_poll_max_entries(self):
        store = make_store()
        direct_write(store, 0, [bytes([i]) for i in range(8)], head=0)
        poller = store.poller(0)
        assert len(poller.poll(max_entries=3)) == 3
        assert len(poller.poll()) == 5

    def test_ring_wraparound_with_lap_tags(self):
        store = make_store(capacity=4)
        poller = store.poller(0)
        # Lap 0 fills the ring.
        direct_write(store, 0, [bytes([i]) for i in range(4)], head=0)
        assert len(poller.poll()) == 4
        # Lap 1 overwrites slot 0-1; tags flip so the poller sees them.
        direct_write(store, 0, [b"\x09", b"\x0A"], head=4)
        entries = poller.poll()
        assert [e[0] for e in entries] == [9, 10]

    def test_stale_lap_not_mistaken_for_new(self):
        store = make_store(capacity=4)
        direct_write(store, 0, [bytes([i]) for i in range(4)], head=0)
        poller = store.poller(0)
        poller.poll()
        # No new writes: slot 0 still holds lap-0 tag, poller expects
        # lap-1, so nothing is returned.
        assert poller.poll() == []

    def test_lists_are_independent(self):
        store = make_store()
        direct_write(store, 0, [b"\x01"], head=0)
        direct_write(store, 2, [b"\x07"], head=0)
        assert [e[0] for e in store.poller(0).poll()] == [1]
        assert [e[0] for e in store.poller(2).poll()] == [7]

    def test_entries_read_counter(self):
        store = make_store()
        direct_write(store, 0, [b"\x01", b"\x02"], head=0)
        poller = store.poller(0)
        poller.poll()
        assert poller.entries_read == 2

    def test_modelled_drain_rate_scales_with_cores(self):
        store = make_store()
        poller = store.poller(0)
        assert poller.modelled_drain_rate(8) == pytest.approx(
            8 * poller.modelled_drain_rate(1))


class TestRecent:
    def test_recent_returns_last_entries(self):
        store = make_store(capacity=8)
        direct_write(store, 0, [bytes([i]) for i in range(6)], head=0)
        recent = store.recent(0, count=3, head=6)
        assert [e[0] for e in recent] == [3, 4, 5]

    def test_recent_caps_at_head(self):
        store = make_store(capacity=8)
        direct_write(store, 0, [b"\x01"], head=0)
        assert len(store.recent(0, count=10, head=1)) == 1

    def test_recent_across_wrap(self):
        store = make_store(capacity=4)
        direct_write(store, 0, [bytes([i]) for i in range(4)], head=0)
        direct_write(store, 0, [b"\x09"], head=4)
        recent = store.recent(0, count=2, head=5)
        assert [e[0] for e in recent] == [3, 9]


# ----------------------------------------------------------------------
# The read kernel against the scalar walk
# ----------------------------------------------------------------------


def land(store, list_id, head):
    """Leave the ring as a writer that has appended ``head`` entries
    would: each slot holds the newest position that maps to it."""
    capacity = store.layout.capacity
    for position in range(max(0, head - capacity), head):
        direct_write(store, list_id, [position.to_bytes(4, "big")],
                     head=position)


def scrub(store, list_id, position):
    """Zero one entry, as ``retention.epochs`` expiry does."""
    layout = store.layout
    offset = (layout.list_base(list_id) - layout.base_addr
              + (position % layout.capacity) * layout.entry_bytes)
    store.region.local_write(offset, b"\x00" * layout.entry_bytes)


def walk_run(store, list_id, start, limit):
    """The poller loop every reader used to spell out: ``(payloads,
    entry reads made)``."""
    capacity = store.layout.capacity
    out, reads, position = [], 0, start
    while limit is None or len(out) < limit:
        tag, data = store.read_entry(list_id, position % capacity)
        reads += 1
        if tag != lap_tag(position // capacity):
            break
        out.append(data)
        position += 1
    return out, reads


def walk_mask(store, list_id, start, stop):
    """The skip-on-mismatch loop of ``recent`` / epoch-scoped reads."""
    capacity = store.layout.capacity
    out = []
    for position in range(start, stop):
        tag, data = store.read_entry(list_id, position % capacity)
        if tag == lap_tag(position // capacity):
            out.append((position, data))
    return out


#: Laps the ring was last written on: fresh, one lap in, and around the
#: tag period (lap 250 carries lap 0's tag again).
LAPS = (0, 1, 249, 250, 251, 500)


@st.composite
def ring_states(draw):
    """A store plus the absolute positions worth reading from.

    Per list: a head anywhere in a drawn lap (empty, partly filled,
    exactly full, wrapped mid-lap leaving a stale previous-lap tail)
    and a few scrubbed holes among the resident entries.
    """
    capacity = draw(st.integers(1, 9))
    lists = draw(st.integers(1, 3))
    store = make_store(lists=lists, capacity=capacity)
    heads = []
    for list_id in range(lists):
        lap = draw(st.sampled_from(LAPS))
        head = lap * capacity + draw(st.integers(0, capacity))
        land(store, list_id, head)
        resident = range(max(0, head - capacity), head)
        for position in draw(st.sets(st.sampled_from(resident), max_size=2)
                             if resident else st.just(())):
            scrub(store, list_id, position)
        heads.append(head)
    return store, heads


def read_grid(capacity, head):
    """``start`` x ``limit``: 0, 1, mid-ring, capacity - 1, capacity,
    past capacity, None — starts also relative to the lap last written
    and to the lap 250 later whose tags alias it."""
    offsets = (0, 1, capacity // 2, capacity - 1, capacity, capacity + 3)
    lap_start = max(0, head - capacity) // capacity * capacity
    starts = {base + offset
              for base in (0, lap_start, lap_start + 250 * capacity)
              for offset in offsets}
    return sorted(starts), offsets + (None,)


@settings(max_examples=60, deadline=None)
@given(ring_states())
def test_published_equals_the_scalar_walk(state):
    """Run form: equal count, equal entry bytes, equal charged reads."""
    from repro.queries.algebra import (ExecContext, append_entries,
                                       run_plan)

    store, heads = state
    entry_bytes = store.layout.entry_bytes
    for list_id, head in enumerate(heads):
        starts, limits = read_grid(store.layout.capacity, head)
        for start in starts:
            for limit in limits:
                expected, reads = walk_run(store, list_id, start, limit)
                entries = store.published(list_id, start, limit)
                count = len(entries)
                assert count == len(expected)
                assert entries.shape == (count, entry_bytes)
                assert entry_data(entries) == expected
                assert entries[:, 0].tolist() == [
                    lap_tag((start + i) // store.layout.capacity)
                    for i in range(count)]
                # What the query source charges is what the loop read.
                ctx = ExecContext(SimpleNamespace(append=store))
                rows = run_plan(append_entries(list_id, start=start,
                                               limit=limit), None, ctx)
                assert rows == [
                    {"list_id": list_id, "index": start + i, "data": data}
                    for i, data in enumerate(expected)]
                assert (ctx.rows_scanned, ctx.bytes_touched) \
                    == (reads, reads * entry_bytes)
                # The poller is the same run, with a cursor.
                poller = store.poller(list_id)
                poller.position = start
                assert poller.poll(limit) == expected
                assert poller.position == start + count


@settings(max_examples=60, deadline=None)
@given(ring_states())
def test_published_in_equals_the_scalar_mask(state):
    """Mask form: a mismatching position is skipped, not a stop."""
    store, heads = state
    capacity = store.layout.capacity
    for list_id, head in enumerate(heads):
        starts, spans = read_grid(capacity, head)
        for start in starts:
            for span in spans[:-1] + (2 * capacity + 1,):
                expected = walk_mask(store, list_id, start, start + span)
                positions, entries = store.published_in(
                    list_id, start, start + span)
                assert positions.tolist() == [p for p, _ in expected]
                assert entry_data(entries) == [d for _, d in expected]
        for count in (0, 1, capacity, capacity + 3):
            assert store.recent(list_id, count, head) == [
                data for _, data in walk_mask(
                    store, list_id,
                    head - min(count, head, capacity), head)]


def test_published_run_is_a_view_unless_it_wraps():
    store = make_store(capacity=4)
    whole = np.frombuffer(store.region.buf, dtype=np.uint8)
    land(store, 0, 6)            # slots 0-1 on lap 1, 2-3 on lap 0
    entries = store.published(0, start=4)
    assert len(entries) == 2 and np.shares_memory(entries, whole)
    entries = store.published(0, start=2)
    assert len(entries) == 4 and not np.shares_memory(entries, whole)
    assert entry_data(entries) == [p.to_bytes(4, "big")
                                   for p in (2, 3, 4, 5)]


def test_idle_list_is_answered_from_its_first_tag(monkeypatch):
    """An empty list must stay as cheap as the scalar walk made it: no
    array is built over the ring."""
    store = make_store()
    monkeypatch.setattr(
        store, "_ring",
        lambda list_id: pytest.fail("built an array for an idle list"))
    assert len(store.published(0)) == 0
    assert store.poller(1).poll() == []

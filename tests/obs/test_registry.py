"""Registry: metric lifecycle, snapshots, diffs, epochs, trace events."""

import pytest

from repro.obs import Registry, get_registry, set_registry


@pytest.fixture
def reg():
    return Registry()


class TestMetricLifecycle:
    def test_counter_get_or_create_shares_instances(self, reg):
        a = reg.counter("x.hits", node="r0")
        b = reg.counter("x.hits", node="r0")
        assert a is b
        assert reg.counter("x.hits", node="r1") is not a
        assert len(reg) == 2

    def test_kind_conflict_rejected(self, reg):
        reg.counter("x.hits")
        with pytest.raises(TypeError):
            reg.histogram("x.hits")

    def test_declare_replaces_binding(self, reg):
        old = reg.declare_counter("x.hits")
        old.inc(5)
        fresh = reg.declare_counter("x.hits")
        assert fresh is not old
        assert reg.get("x.hits") is fresh
        assert reg.snapshot().value("x.hits") == 0
        old.inc()  # the detached instance keeps working, unobserved
        assert reg.snapshot().value("x.hits") == 0

    def test_label_collision_with_name_parameter(self, reg):
        # "name" must be usable as a *label* key (nodes label by name).
        c = reg.counter("meter.marked_red", name="tx-meter")
        assert c.labels == (("name", "tx-meter"),)

    def test_metrics_listing_sorted(self, reg):
        reg.counter("b.x")
        reg.counter("a.y")
        assert [m.name for m in reg.metrics()] == ["a.y", "b.x"]


class TestSnapshots:
    def test_value_and_total(self, reg):
        reg.counter("l.sent", link="a").inc(3)
        reg.counter("l.sent", link="b").inc(4)
        snap = reg.snapshot()
        assert snap.value("l.sent", link="a") == 3
        assert snap.value("l.sent", link="missing") == 0
        assert snap.total("l.sent") == 7
        assert snap.total("l.nothing") == 0
        assert snap.names() == ["l.sent"]

    def test_diff_subtracts(self, reg):
        c = reg.counter("x.hits")
        c.inc(2)
        older = reg.snapshot()
        c.inc(5)
        assert reg.snapshot().diff(older).value("x.hits") == 5

    def test_diff_clamps_counter_rebinds(self, reg):
        reg.declare_counter("x.hits").inc(100)
        older = reg.snapshot()
        # A component rebuild rebinds the series back to zero...
        reg.declare_counter("x.hits").inc(3)
        # ...which must read as "+3 since the rebind", never -97.
        assert reg.snapshot().diff(older).value("x.hits") == 3

    def test_diff_handles_new_metrics(self, reg):
        older = reg.snapshot()
        reg.counter("x.hits").inc(2)
        assert reg.snapshot().diff(older).value("x.hits") == 2

    def test_diff_of_histograms(self, reg):
        h = reg.histogram("t.sizes")
        h.observe(4)
        older = reg.snapshot()
        h.observe(4)
        h.observe(9)
        delta = reg.snapshot().diff(older).value("t.sizes")
        assert delta.count == 2
        assert delta.total == 13

    def test_gauge_callback_sampled_at_snapshot(self, reg):
        queue = [1, 2, 3]
        reg.gauge("q.depth", fn=lambda: len(queue))
        queue.pop()
        assert reg.snapshot().value("q.depth") == 2


class TestEpochsAndEvents:
    def test_advance_epoch_stamps_snapshots(self, reg):
        assert reg.snapshot().epoch == 0
        assert reg.advance_epoch() == 1
        assert reg.snapshot().epoch == 1

    def test_emit_records_ordered_events(self, reg):
        reg.emit("translator", "nack_sent", reporter=1)
        reg.advance_epoch()
        reg.emit("reporter", "congestion_raised", level=2)
        events = list(reg.events)
        assert [e.seq for e in events] == [0, 1, 2]
        assert events[0].epoch == 0 and events[2].epoch == 1
        assert events[0].as_dict() == {
            "seq": 0, "epoch": 0, "component": "translator",
            "event": "nack_sent", "reporter": 1}
        assert "translator.nack_sent reporter=1" in str(events[0])

    def test_event_ring_bounded(self):
        reg = Registry(max_events=4)
        for i in range(10):
            reg.emit("c", "e", i=i)
        assert len(reg.events) == 4
        assert reg.events[0].seq == 6

    def test_reset_clears_everything(self, reg):
        reg.counter("x.hits").inc()
        reg.emit("c", "e")
        reg.advance_epoch()
        reg.reset()
        assert len(reg) == 0
        assert not reg.events
        assert reg.epoch == 0


class TestDefaultRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        mine = Registry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            assert set_registry(previous) is mine
        assert get_registry() is previous

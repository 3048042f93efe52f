"""ObsProbe: delta windows and conservation assertions."""

import pytest

from repro.obs import ObsProbe, Registry


@pytest.fixture
def reg():
    return Registry()


class TestWindow:
    def test_deltas_ignore_pre_window_history(self, reg):
        c = reg.counter("x.hits")
        c.inc(50)
        with ObsProbe(reg) as p:
            c.inc(3)
        assert p["x.hits"] == 3

    def test_unstarted_probe_refuses_reads(self, reg):
        probe = ObsProbe(reg)
        with pytest.raises(RuntimeError):
            probe.deltas
        with pytest.raises(RuntimeError):
            probe.stop()
        with pytest.raises(RuntimeError):
            probe.events()

    def test_live_deltas_while_open(self, reg):
        c = reg.counter("x.hits")
        probe = ObsProbe(reg).start()
        c.inc(2)
        assert probe["x.hits"] == 2
        c.inc(1)
        assert probe["x.hits"] == 3
        probe.stop()
        c.inc(10)
        assert probe["x.hits"] == 3  # frozen at stop

    def test_reenterable(self, reg):
        c = reg.counter("x.hits")
        probe = ObsProbe(reg)
        with probe:
            c.inc(2)
        with probe:
            c.inc(5)
        assert probe["x.hits"] == 5

    def test_labelled_and_summed_reads(self, reg):
        reg.counter("l.sent", link="a").inc(3)
        with ObsProbe(reg) as p:
            reg.counter("l.sent", link="a").inc(1)
            reg.counter("l.sent", link="b").inc(2)
        assert p.delta("l.sent", link="a") == 1
        assert p.delta("l.sent", link="b") == 2
        assert p["l.sent"] == 3  # summed across series

    def test_window_scoped_events(self, reg):
        reg.emit("c", "before")
        with ObsProbe(reg) as p:
            reg.emit("c", "inside", n=1)
        assert [e.event for e in p.events()] == ["inside"]


class TestAssertions:
    def test_balance_accepts_names_constants_and_series(self, reg):
        reg.counter("l.sent", link="a").inc(7)
        with ObsProbe(reg) as p:
            reg.counter("l.sent", link="a").inc(10)
            reg.counter("l.delivered", link="a").inc(8)
            reg.counter("l.drops", link="a").inc(1)
        p.assert_balance(("l.sent", {"link": "a"}),
                         "l.delivered", "l.drops", 1)

    def test_balance_failure_prints_ledger(self, reg):
        with ObsProbe(reg) as p:
            reg.counter("a.in").inc(5)
            reg.counter("a.out").inc(3)
        with pytest.raises(AssertionError) as err:
            p.assert_balance("a.in", "a.out", msg="flow conservation")
        text = str(err.value)
        assert "flow conservation: 5 != 3" in text
        assert "a.in" in text and "a.out" in text

    def test_balance_counts_histogram_observations(self, reg):
        with ObsProbe(reg) as p:
            h = reg.histogram("t.sizes")
            h.observe(4)
            h.observe(900)
            reg.counter("t.batches").inc(2)
        p.assert_balance("t.batches", "t.sizes")

    def test_assert_zero(self, reg):
        quiet = reg.counter("x.errors")
        with ObsProbe(reg) as p:
            reg.counter("x.hits").inc()
        assert p.delta("x.errors") == p.delta("x.never_registered") == 0
        with ObsProbe(reg) as p:
            quiet.inc()
        assert p.delta("x.errors") == 1

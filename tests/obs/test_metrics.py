"""Metric primitives: counters, gauges, log2 histograms."""

import pytest

from repro.obs import Counter, Histogram, HistogramSample, freeze_labels
from repro.obs.metrics import Gauge


class TestLabels:
    def test_freeze_is_order_insensitive(self):
        assert (freeze_labels({"b": 2, "a": 1})
                == freeze_labels({"a": 1, "b": 2})
                == (("a", "1"), ("b", "2")))

    def test_empty_and_none_freeze_identically(self):
        assert freeze_labels(None) == freeze_labels({}) == ()

    def test_values_stringified(self):
        assert freeze_labels({"qpn": 17}) == (("qpn", "17"),)


class TestCounter:
    def test_inc_and_set(self):
        c = Counter("x.y")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.set(2)
        assert c.sample() == 2

    def test_identity(self):
        c = Counter("translator.appends", {"node": "t0"})
        assert c.key == ("translator.appends", (("node", "t0"),))
        assert c.component == "translator"
        assert c.kind == "counter"

    def test_repr_shows_labels_and_value(self):
        c = Counter("a.b", {"node": "r0"})
        c.inc(3)
        assert "a.b{node=r0} 3" in repr(c)


class TestGauge:
    def test_level_semantics(self):
        g = Gauge("q.depth")
        g.inc(10)
        g.inc(-3)
        assert g.sample() == 7
        g.set(0)
        assert g.sample() == 0

    def test_callback_sampled_lazily(self):
        backing = {"depth": 1}
        g = Gauge("q.depth", fn=lambda: backing["depth"])
        backing["depth"] = 9
        assert g.sample() == 9


class TestHistogram:
    def test_log2_bucketing(self):
        h = Histogram("t.sizes")
        for v in (0, 1, 2, 3, 4, 1000):
            h.observe(v)
        assert h.buckets[0] == 1          # the zero
        assert h.buckets[1] == 1          # v == 1
        assert h.buckets[2] == 2          # 2, 3
        assert h.buckets[3] == 1          # 4
        assert h.buckets[10] == 1         # 512 <= 1000 < 1024
        assert h.count == 6
        assert h.total == 1010

    def test_overflow_bucket_absorbs_huge_values(self):
        h = Histogram("t.sizes")
        h.observe(1 << 60)
        assert h.buckets[Histogram.NUM_BUCKETS - 1] == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t.sizes").observe(-1)

    def test_bucket_bounds_cover_the_line(self):
        # Bucket i holds [2**(i-1), 2**i); bucket 0 holds 0 and the
        # last bucket everything above.
        h = Histogram("t.sizes")
        for i in range(1, Histogram.NUM_BUCKETS - 1):
            h.observe(1 << (i - 1))
            h.observe((1 << i) - 1)
        h.observe(0)
        h.observe(1 << 80)
        assert list(h.buckets) == [1] + [2] * (Histogram.NUM_BUCKETS - 2) + [1]

    def test_sample_is_immutable_reading(self):
        h = Histogram("t.sizes")
        h.observe(5)
        before = h.sample()
        h.observe(5)
        assert before.count == 1
        assert h.sample().count == 2

    def test_sample_diff(self):
        h = Histogram("t.sizes")
        h.observe(2)
        first = h.sample()
        h.observe(8)
        delta = h.sample() - first
        assert delta.count == 1
        assert delta.total == 8
        assert delta == HistogramSample(count=1, total=8,
                                        buckets=delta.buckets)

    def test_sample_repr_compact(self):
        h = Histogram("t.sizes")
        h.observe(4)
        assert repr(h.sample()) == "<hist n=1 sum=4 [3:1]>"

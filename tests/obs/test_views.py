"""InstrumentedStats facades: dataclass surface, registry backing."""

import pytest

from repro.obs import (
    InstrumentedStats,
    Registry,
    counter_field,
    merge,
)


class DemoStats(InstrumentedStats):
    component = "demo"

    hits = counter_field()
    misses = counter_field()
    ratio_base = counter_field(1.0)


class SubStats(DemoStats):
    component = "demo"

    extras = counter_field()


class TestFacadeSurface:
    def test_attribute_arithmetic(self):
        stats = DemoStats(registry=Registry())
        stats.hits += 1
        stats.hits += 1
        stats.misses = 5
        assert stats.hits == 2
        assert stats.misses == 5

    def test_defaults_and_keyword_construction(self):
        stats = DemoStats(registry=Registry(), hits=7)
        assert stats.hits == 7
        assert stats.misses == 0
        assert stats.ratio_base == 1.0

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            DemoStats(registry=Registry(), bogus=1)

    def test_fields_inherited_in_declaration_order(self):
        assert SubStats.fields() == ("hits", "misses", "ratio_base",
                                     "extras")

    def test_repr_and_eq_like_a_dataclass(self):
        a = DemoStats(registry=Registry(), hits=1)
        b = DemoStats(registry=Registry(), hits=1)
        c = DemoStats(registry=Registry(), hits=2)
        assert a == b
        assert a != c
        assert repr(a) == "DemoStats(hits=1, misses=0, ratio_base=1.0)"

    def test_as_dict(self):
        stats = DemoStats(registry=Registry())
        stats.hits += 3
        assert stats.as_dict() == {"hits": 3, "misses": 0,
                                   "ratio_base": 1.0}


class TestRegistryBacking:
    def test_fields_published_under_component_names(self):
        reg = Registry()
        stats = DemoStats(registry=reg, labels={"node": "n0"})
        stats.hits += 4
        assert reg.snapshot().value("demo.hits", node="n0") == 4

    def test_fresh_instance_rebinds_to_zero(self):
        reg = Registry()
        first = DemoStats(registry=reg)
        first.hits += 9
        DemoStats(registry=reg)  # a rebuilt component
        assert reg.snapshot().value("demo.hits") == 0
        first.hits += 1  # detached: mutates its own counter only
        assert reg.snapshot().value("demo.hits") == 0

    def test_same_labels_same_series(self):
        reg = Registry()
        a = DemoStats(registry=reg, labels={"node": "x"})
        DemoStats(registry=reg, labels={"node": "y"}).hits = 2
        a.hits = 3
        snap = reg.snapshot()
        assert snap.value("demo.hits", node="x") == 3
        assert snap.value("demo.hits", node="y") == 2
        assert snap.total("demo.hits") == 5


class TestAggregate:
    """``obs.merge``: many registries' snapshots as one, labelled per
    part or summed across parts."""

    def test_field_wise_sum(self):
        parts = []
        for i in range(3):
            reg = Registry()
            DemoStats(registry=reg, labels={"node": "x"}).hits = i + 1
            reg.histogram("demo.sizes").observe(i)
            parts.append(reg.snapshot())
        labelled = merge(({"lane": i}, snap) for i, snap in enumerate(parts))
        assert labelled.value("demo.hits", node="x", lane=2) == 3
        assert labelled.total("demo.hits") == 6
        rollup = merge(({}, snap) for snap in parts)
        assert rollup.value("demo.hits", node="x") == 6
        assert rollup.value("demo.misses", node="x") == 0
        assert rollup.value("demo.sizes").count == 3
        assert rollup.kinds[("demo.sizes", ())] == "histogram"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge([])

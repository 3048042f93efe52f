"""The translator's postcard-aggregation cache (Fig. 10 machinery)."""

import pytest

from repro.core.postcard_cache import PostcardCache


def aggregated_fraction(stats) -> float:
    """Fraction of emissions that carried a full path."""
    return stats.emissions_complete / (stats.emissions_complete
                                       + stats.emissions_early)


class TestAggregation:
    def test_complete_path_emitted_once(self):
        cache = PostcardCache(slots=16, hops=5)
        emissions = [cache.insert(b"flow", hop, hop * 10, path_len=5)
                     for hop in range(5)]
        assert emissions[:4] == [None] * 4
        final = emissions[4]
        assert final is not None and final.complete
        assert final.values == [0, 10, 20, 30, 40]

    def test_path_len_announcement_triggers_early_completion(self):
        cache = PostcardCache(slots=16, hops=5)
        assert cache.insert(b"f", 0, 1, path_len=2) is None
        emission = cache.insert(b"f", 1, 2, path_len=2)
        assert emission is not None and emission.complete
        assert emission.values == [1, 2, None, None, None]

    def test_unknown_path_len_defaults_to_hops(self):
        cache = PostcardCache(slots=16, hops=3)
        cache.insert(b"f", 0, 1)
        cache.insert(b"f", 1, 2)
        emission = cache.insert(b"f", 2, 3)
        assert emission is not None and emission.complete

    def test_row_freed_after_emission(self):
        cache = PostcardCache(slots=16, hops=2)
        cache.insert(b"f", 0, 1, path_len=2)
        cache.insert(b"f", 1, 2, path_len=2)
        assert cache.occupancy == 0

    def test_duplicate_postcard_counted_once(self):
        cache = PostcardCache(slots=16, hops=3)
        cache.insert(b"f", 0, 1, path_len=3)
        cache.insert(b"f", 0, 99, path_len=3)  # duplicate hop
        assert cache.stats.duplicates == 1
        cache.insert(b"f", 1, 2, path_len=3)
        emission = cache.insert(b"f", 2, 3, path_len=3)
        assert emission is not None
        assert emission.values[0] == 99  # later value wins

    def test_hop_bounds(self):
        cache = PostcardCache(slots=4, hops=2)
        with pytest.raises(IndexError):
            cache.insert(b"f", 2, 1)


class TestCollisions:
    def test_collision_evicts_resident_flow(self):
        cache = PostcardCache(slots=1, hops=5)  # everything collides
        cache.insert(b"flow-A", 0, 1, path_len=5)
        emission = cache.insert(b"flow-B", 0, 2, path_len=5)
        assert emission is not None
        assert not emission.complete
        assert emission.key == b"flow-A"
        assert cache.stats.emissions_early == 1

    def test_collision_then_immediate_completion(self):
        cache = PostcardCache(slots=1, hops=5)
        cache.insert(b"A", 0, 1, path_len=5)
        completed = cache.insert(b"B", 0, 9, path_len=1)
        # The 1-hop flow completes instantly; A's eviction is queued.
        assert completed is not None and completed.complete
        assert completed.key == b"B"
        assert len(cache.pending_evicted) == 1
        assert cache.pending_evicted[0].key == b"A"

    def test_aggregated_fraction(self):
        cache = PostcardCache(slots=1, hops=2)
        cache.insert(b"A", 0, 1, path_len=2)
        cache.insert(b"B", 0, 1, path_len=2)  # evicts A (early)
        cache.insert(b"B", 1, 2, path_len=2)  # completes B
        assert cache.stats.emissions_complete == 1
        assert cache.stats.emissions_early == 1
        assert aggregated_fraction(cache.stats) == pytest.approx(0.5)

    def test_more_slots_fewer_collisions(self):
        """The Fig. 10 driver: bigger caches aggregate more."""
        import random
        rng = random.Random(3)

        def run(slots):
            cache = PostcardCache(slots=slots, hops=5)
            flows = [f"flow{i}".encode() for i in range(200)]
            # Interleave hops of many concurrent flows.
            work = [(f, h) for f in flows for h in range(5)]
            rng.shuffle(work)
            for flow, hop in work:
                cache.insert(flow, hop, hop, path_len=5)
            cache.flush()
            return aggregated_fraction(cache.stats)

        assert run(1024) > run(64)

    def test_flush_evicts_everything(self):
        cache = PostcardCache(slots=16, hops=5)
        cache.insert(b"f1", 0, 1)
        cache.insert(b"f2", 0, 1)
        flushed = cache.flush()
        assert len(flushed) == 2
        assert cache.occupancy == 0
        assert all(not e.complete for e in flushed)

    def test_int_keys_fast_path(self):
        cache = PostcardCache(slots=8, hops=2)
        emission = None
        for hop in range(2):
            emission = cache.insert(12345, hop, hop, path_len=2)
        assert emission is not None and emission.complete

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            PostcardCache(slots=0)

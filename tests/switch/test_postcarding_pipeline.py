"""The Postcarding aggregation cache (§4.2), on the one cache the
translator runs.

These ids once drove a switch-pipeline model of the cache built from
register arrays (removed, ROADMAP item 11(B)), and were compared with
:class:`~repro.core.postcard_cache.PostcardCache`.  Each now checks
that cache directly: a row emits once when its path completes, a
collision evicts the resident flow early, a new flow never inherits an
old flow's hops, every postcard leaves in exactly one emission, and the
batched insert counts what the per-postcard one counts.
"""

import random

import pytest

from repro.core.postcard_cache import PostcardCache


def drain(cache, emission) -> list:
    """One insert's emissions: the returned one, then what it evicted."""
    out = [] if emission is None else [emission]
    out += cache.pending_evicted
    cache.pending_evicted.clear()
    return out


class TestPostcardingCachePath:
    def test_complete_path_emits_once(self):
        cache = PostcardCache(slots=16, hops=5)
        emissions = []
        for hop in range(5):
            emissions += drain(cache, cache.insert(0xABC, hop, 100 + hop,
                                                   path_len=5))
        assert len(emissions) == 1
        assert emissions[0].complete
        assert emissions[0].values == [100, 101, 102, 103, 104]
        assert cache.stats.emissions_complete == 1
        assert cache.occupancy == 0

    def test_announced_path_len_triggers_early_completion(self):
        cache = PostcardCache(slots=16, hops=5)
        assert cache.insert(0xABC, 0, 1, path_len=2) is None
        emitted = cache.insert(0xABC, 1, 2, path_len=2)
        assert emitted is not None and emitted.complete
        assert emitted.values == [1, 2, None, None, None]

    def test_collision_evicts_resident_flow(self):
        cache = PostcardCache(slots=1, hops=5)
        cache.insert(0x111, 0, 10, path_len=5)
        cache.insert(0x111, 1, 11, path_len=5)
        evicted = cache.insert(0x222, 0, 99, path_len=5)
        assert evicted is not None and not evicted.complete
        assert evicted.reason == "collision"
        assert evicted.key == 0x111
        assert evicted.values[:2] == [10, 11]
        assert cache.stats.emissions_early == 1
        assert cache.resident() == [(0, 0x222)]

    def test_row_freed_after_completion(self):
        cache = PostcardCache(slots=1, hops=2)
        cache.insert(0x5, 0, 1, path_len=2)
        assert cache.insert(0x5, 1, 2, path_len=2).complete
        # A new flow on the same row sees an empty row, not a collision.
        assert cache.insert(0x9, 0, 9, path_len=2) is None
        assert cache.stats.emissions_early == 0

    def test_stale_values_masked_by_bitmap(self):
        """After a collision, the new flow must not inherit the old
        flow's hop values from the row it took over."""
        cache = PostcardCache(slots=1, hops=3)
        cache.insert(0x111, 0, 77, path_len=3)
        cache.insert(0x111, 1, 78, path_len=3)
        cache.insert(0x222, 2, 5, path_len=3)   # evicts, starts new row
        cache.insert(0x222, 0, 6, path_len=3)
        emitted = cache.insert(0x222, 1, 7, path_len=3)
        assert emitted is not None and emitted.complete
        assert emitted.values == [6, 7, 5]     # none of 77/78 leaked

    def test_every_array_touched_at_most_once_per_traversal(self):
        """Every postcard leaves the cache in exactly one emission (or
        overwrote its own hop, counted as a duplicate): a long random
        workload with collisions loses and repeats nothing."""
        rng = random.Random(5)
        cache = PostcardCache(slots=8, hops=5)
        emissions = []
        active: dict = {}
        for _ in range(2000):
            key = rng.randint(1, 10)
            hop = active.get(key, 0)
            emissions += drain(cache, cache.insert(
                key, hop, rng.randrange(64), path_len=5))
            active[key] = (hop + 1) % 5
        emissions += cache.flush()
        carried = sum(len(e.values) - e.values.count(None)
                      for e in emissions)
        assert carried == cache.stats.postcards - cache.stats.duplicates
        assert cache.stats.emissions_complete > 0
        assert cache.stats.emissions_early > 0
        assert cache.occupancy == 0

    def test_zero_key_hash_reserved(self):
        """A row holds its flow's key itself, so no key value is held
        back to mark an empty row: key 0 aggregates like any other."""
        cache = PostcardCache(slots=4, hops=2)
        assert cache.insert(0, 0, 1) is None
        emitted = cache.insert(0, 1, 2)
        assert emitted.key == 0 and emitted.values == [1, 2]

    def test_hop_bounds(self):
        cache = PostcardCache(slots=4, hops=2)
        with pytest.raises(IndexError):
            cache.insert(1, 5, 1)
        with pytest.raises(IndexError):
            cache.insert(1, -1, 1)
        with pytest.raises(IndexError):
            cache.insert_many([1, 1], [0, 2], [1, 1], [0, 0])
        assert cache.stats.postcards == 0 and cache.occupancy == 0

    def test_matches_software_cache_statistics(self):
        """The same workload through the batched insert and the
        per-postcard insert: identical emissions and counters."""
        rng = random.Random(9)
        workload = [(rng.randint(1, 30), hop)
                    for _ in range(300) for hop in range(3)]
        rng.shuffle(workload)
        keys = [key for key, _ in workload]
        hops = [hop for _, hop in workload]
        vals = [key ^ hop for key, hop in workload]

        batched = PostcardCache(slots=16, hops=3)
        got = batched.insert_many(keys, hops, vals, [3] * len(keys))
        single = PostcardCache(slots=16, hops=3)
        want = []
        for key, hop, value in zip(keys, hops, vals):
            want += drain(single, single.insert(key, hop, value,
                                                path_len=3))
        assert got == want
        assert batched.stats.as_dict() == single.stats.as_dict()

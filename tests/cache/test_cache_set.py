"""Unit tests for CacheSet storage."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.core.multi import make_adaptive
from repro.perf.kernel import kernel_name


class TestInstallEvict:
    def test_install_and_find(self):
        cache_set = CacheSet(4)
        cache_set.install(2, tag=0xAB)
        assert cache_set.find(0xAB) == 2
        assert cache_set.tag_at(2) == 0xAB
        assert cache_set.find(0xCD) is None

    def test_install_occupied_way_rejected(self):
        cache_set = CacheSet(2)
        cache_set.install(0, tag=1)
        with pytest.raises(ValueError):
            cache_set.install(0, tag=2)

    def test_duplicate_tag_rejected(self):
        cache_set = CacheSet(2)
        cache_set.install(0, tag=1)
        with pytest.raises(ValueError):
            cache_set.install(1, tag=1)

    def test_evict_returns_tag_and_dirty(self):
        cache_set = CacheSet(2)
        cache_set.install(1, tag=7, dirty=True)
        assert cache_set.evict(1) == (7, True)
        assert cache_set.find(7) is None

    def test_evict_invalid_way_rejected(self):
        with pytest.raises(ValueError):
            CacheSet(2).evict(0)


class TestOccupancy:
    def test_free_way_order(self):
        cache_set = CacheSet(3)
        assert cache_set.free_way() == 0
        cache_set.install(0, tag=1)
        assert cache_set.free_way() == 1
        cache_set.install(1, tag=2)
        cache_set.install(2, tag=3)
        assert cache_set.free_way() is None
        assert cache_set.occupancy() == 3

    def test_free_way_is_lowest_hole(self):
        cache_set = CacheSet(4)
        for way in range(4):
            cache_set.install(way, tag=way + 10)
        cache_set.evict(2)
        cache_set.evict(1)
        assert cache_set.free_way() == 1
        cache_set.install(1, tag=20)
        assert cache_set.free_way() == 2

    def test_valid_ways_and_occupancy(self):
        cache_set = CacheSet(4)
        cache_set.install(1, tag=10)
        cache_set.install(3, tag=11)
        assert cache_set.valid_ways() == [1, 3]
        assert cache_set.occupancy() == 2
        assert sorted(cache_set.resident_tags()) == [10, 11]


class TestDirty:
    def test_evict_clears_dirty(self):
        cache_set = CacheSet(2)
        cache_set.install(0, tag=5, dirty=True)
        cache_set.evict(0)
        cache_set.install(0, tag=6)
        assert cache_set.state_dict()["dirty"] == [False, False]


class TestValidation:
    def test_rejects_bad_ways(self):
        with pytest.raises(ValueError):
            CacheSet(0)


def lowest_free(cache_set):
    tags = cache_set._tags
    return tags.index(None) if None in tags else None


class TestFreeWayHint:
    """``free_way`` scans from a lower-bound hint; it must still return
    the lowest invalid way after any sequence of writers."""

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["fill", "install", "evict", "load"]),
                  st.integers(min_value=0, max_value=15)),
        max_size=80,
    ))
    def test_matches_lowest_invalid_way(self, ops):
        cache_set = CacheSet(16)
        snapshots = [cache_set.state_dict()]
        next_tag = 0
        for op, pick in ops:
            if op == "fill":
                way = cache_set.free_way()
                if way is not None:
                    cache_set.install(way, next_tag)
            elif op == "install":
                if cache_set._tags[pick] is None:
                    cache_set.install(pick, next_tag)
            elif op == "evict":
                valid = cache_set.valid_ways()
                if valid:
                    cache_set.evict(valid[pick % len(valid)])
                snapshots.append(cache_set.state_dict())
            else:
                cache_set.load_state_dict(snapshots[pick % len(snapshots)])
            next_tag += 1
            assert cache_set.free_way() == lowest_free(cache_set)

    def test_after_a_kernel_batch_on_a_partly_filled_cache(self):
        config = CacheConfig(size_bytes=4 * 64 * 64, ways=64)
        cache = SetAssociativeCache(config, make_adaptive(4, 64))
        lines = 4 * 40
        addresses = [(i * 7919 % lines) * 64 for i in range(1024)]
        assert kernel_name(cache, len(addresses)) == "columnar"
        # Move the real sets' hints off way 0 before the kernel fills.
        for cache_set in cache.sets:
            for tag in range(10**9, 10**9 + 10):
                cache_set.install(cache_set.free_way(), tag)
            cache_set.evict(7)
            cache_set.evict(5)
        cache.access_many(addresses)
        sets = list(cache.sets)
        for shadow in cache.policy.shadows:
            sets.extend(shadow.sets)
        assert any(s.free_way() is not None for s in sets)
        for cache_set in sets:
            assert cache_set.free_way() == lowest_free(cache_set)
        for address in range(lines * 64, (lines + 200) * 64, 64):
            cache.access(address)
            for cache_set in sets:
                assert cache_set.free_way() == lowest_free(cache_set)

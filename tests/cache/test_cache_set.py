"""Unit tests for CacheSet storage."""

import pytest

from repro.cache.cache_set import CacheSet


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
        assert cache_set.is_full()

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
    def test_mark_dirty(self):
        cache_set = CacheSet(2)
        cache_set.install(0, tag=5)
        assert not cache_set.is_dirty(0)
        cache_set.mark_dirty(0)
        assert cache_set.is_dirty(0)

    def test_mark_dirty_invalid_rejected(self):
        with pytest.raises(ValueError):
            CacheSet(2).mark_dirty(0)

    def test_evict_clears_dirty(self):
        cache_set = CacheSet(2)
        cache_set.install(0, tag=5, dirty=True)
        cache_set.evict(0)
        cache_set.install(0, tag=6)
        assert not cache_set.is_dirty(0)


class TestValidation:
    def test_rejects_bad_ways(self):
        with pytest.raises(ValueError):
            CacheSet(0)

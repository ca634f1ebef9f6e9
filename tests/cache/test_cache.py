"""Unit tests for SetAssociativeCache."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.policies.lru import LRUPolicy

from tests.conftest import addresses_for_set


def make_cache(config):
    return SetAssociativeCache(config, LRUPolicy(config.num_sets, config.ways))


class TestBasics:
    def test_geometry_mismatch_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="geometry"):
            SetAssociativeCache(tiny_config, LRUPolicy(8, 8))

    def test_cold_miss_then_hit(self, tiny_config):
        cache = make_cache(tiny_config)
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_offsets_hit(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.access(0x1000)
        for offset in (1, 13, 63):
            assert cache.access(0x1000 + offset).hit

    def test_fill_uses_free_ways_first(self, tiny_config):
        cache = make_cache(tiny_config)
        for address in addresses_for_set(tiny_config, 0, tiny_config.ways):
            result = cache.access(address)
            assert result.evicted_tag is None
        assert cache.stats.evictions == 0
        assert cache.sets[0].free_way() is None

    def test_eviction_only_when_full(self, tiny_config):
        cache = make_cache(tiny_config)
        addresses = addresses_for_set(tiny_config, 0, tiny_config.ways + 1)
        for address in addresses:
            cache.access(address)
        assert cache.stats.evictions == 1

    def test_distinct_lines_stay_resident(self, small_config):
        cache = make_cache(small_config)
        for line in range(100):
            cache.access(line * small_config.line_bytes)
        assert sum(s.occupancy() for s in cache.sets) == 100


class TestWrites:
    def test_write_allocates_and_dirties(self, tiny_config):
        cache = make_cache(tiny_config)
        result = cache.access(0x2000, is_write=True)
        assert not result.hit
        set_index = tiny_config.set_index(0x2000)
        way = cache.sets[set_index].find(tiny_config.tag(0x2000))
        assert cache.sets[set_index].state_dict()["dirty"][way]

    def test_write_hit_dirties_clean_line(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.access(0x2000)  # clean fill
        cache.access(0x2000, is_write=True)
        set_index = tiny_config.set_index(0x2000)
        way = cache.sets[set_index].find(tiny_config.tag(0x2000))
        assert cache.sets[set_index].state_dict()["dirty"][way]

    def test_dirty_eviction_counts_writeback(self, tiny_config):
        cache = make_cache(tiny_config)
        addresses = addresses_for_set(tiny_config, 0, tiny_config.ways + 1)
        cache.access(addresses[0], is_write=True)
        for address in addresses[1:]:
            cache.access(address)
        assert cache.stats.writebacks == 1
        assert cache.stats.evictions == 1

    def test_clean_eviction_no_writeback(self, tiny_config):
        cache = make_cache(tiny_config)
        for address in addresses_for_set(tiny_config, 0, tiny_config.ways + 1):
            cache.access(address)
        assert cache.stats.writebacks == 0


class TestPerSetStats:
    def test_per_set_miss_attribution(self, tiny_config):
        cache = make_cache(tiny_config)
        for address in addresses_for_set(tiny_config, 2, 5):
            cache.access(address)
        assert cache.stats.per_set_misses[2] == 5
        assert sum(cache.stats.per_set_misses) == 5

    def test_decomposed_entry_point_equivalent(self, tiny_config):
        direct = make_cache(tiny_config)
        decomposed = make_cache(tiny_config)
        addresses = addresses_for_set(tiny_config, 1, 10) * 3
        for address in addresses:
            direct.access(address)
            decomposed.access_decomposed(
                tiny_config.set_index(address), tiny_config.tag(address)
            )
        assert direct.stats.hits == decomposed.stats.hits
        assert direct.stats.misses == decomposed.stats.misses

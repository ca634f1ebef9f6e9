"""Unit tests for LRU replacement via the real cache."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.policies.lru import LRUPolicy

from tests.conftest import addresses_for_set


def make_cache(config):
    return SetAssociativeCache(
        config, LRUPolicy(config.num_sets, config.ways)
    )


class TestLRUEviction:
    def test_evicts_least_recent(self, tiny_config):
        cache = make_cache(tiny_config)
        a, b, c, d, e = addresses_for_set(tiny_config, 0, 5)
        for address in (a, b, c, d):
            cache.access(address)
        # Touch everything except `a`, then overflow: `a` must go.
        cache.access(b)
        cache.access(c)
        cache.access(d)
        result = cache.access(e)
        assert not result.hit
        assert result.evicted_tag == tiny_config.tag(a)

    def test_hit_refreshes_recency(self, tiny_config):
        cache = make_cache(tiny_config)
        a, b, c, d, e = addresses_for_set(tiny_config, 0, 5)
        for address in (a, b, c, d):
            cache.access(address)
        cache.access(a)  # refresh the oldest
        result = cache.access(e)
        assert result.evicted_tag == tiny_config.tag(b)
        assert cache.contains(a)

    def test_cyclic_overflow_thrashes(self, tiny_config):
        # The classic pathology: ways+1 blocks round-robin -> 100% misses.
        cache = make_cache(tiny_config)
        addresses = addresses_for_set(tiny_config, 0, tiny_config.ways + 1)
        for _ in range(10):
            for address in addresses:
                cache.access(address)
        assert cache.stats.hits == 0

    def test_working_set_fits(self, tiny_config):
        cache = make_cache(tiny_config)
        addresses = addresses_for_set(tiny_config, 0, tiny_config.ways)
        for _ in range(10):
            for address in addresses:
                cache.access(address)
        assert cache.stats.misses == tiny_config.ways
        assert cache.stats.hits == 9 * tiny_config.ways


class TestLRUStackProperty:
    def test_inclusion(self, random_blocks):
        """k-way LRU hits <= (k+1)-way LRU hits on the same sets."""
        from repro.cache.config import CacheConfig

        blocks = random_blocks(length=4000, universe=300, seed=3)
        hits = []
        for ways in (2, 4, 8):
            config = CacheConfig(
                size_bytes=8 * 64 * ways, ways=ways, line_bytes=64
            )
            cache = make_cache(config)
            for block in blocks:
                cache.access(block * 64)
            hits.append(cache.stats.hits)
        assert hits[0] <= hits[1] <= hits[2]


class TestLRUInternals:
    def test_slot_validation(self):
        policy = LRUPolicy(4, 4)
        with pytest.raises(IndexError):
            policy.on_hit(4, 0)
        with pytest.raises(IndexError):
            policy.on_hit(0, 4)
        with pytest.raises(IndexError):
            policy.on_fill(-1, 0, 0)

"""Unit tests for the skewed-associative cache."""

import random

import pytest

from repro.cache.config import CacheConfig
from repro.cache.skewed import SkewedAssociativeCache


def resident_blocks(cache):
    """Valid lines across every bank."""
    return sum(block is not None for bank in cache._blocks for block in bank)


@pytest.fixture
def config():
    return CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)  # 16/bank


class TestBasics:
    def test_cold_miss_then_hit(self, config):
        cache = SkewedAssociativeCache(config)
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit
        assert cache.stats.accesses == 2

    def test_same_line_offsets_hit(self, config):
        cache = SkewedAssociativeCache(config)
        cache.access(0x1000)
        assert cache.access(0x103F).hit

    def test_capacity_respected(self, config):
        cache = SkewedAssociativeCache(config)
        rng = random.Random(1)
        for _ in range(5000):
            cache.access(rng.randrange(1 << 20) << 6)
        assert resident_blocks(cache) <= config.num_lines

    def test_deterministic(self, config):
        def run():
            cache = SkewedAssociativeCache(config)
            rng = random.Random(5)
            for _ in range(3000):
                cache.access(rng.randrange(1 << 18))
            return cache.stats.misses

        assert run() == run()

    def test_eviction_reported(self, config):
        cache = SkewedAssociativeCache(config)
        evicted = []
        rng = random.Random(9)
        for _ in range(3000):
            result = cache.access(rng.randrange(1 << 20) << 6)
            if result.evicted_block is not None:
                evicted.append(result.evicted_block)
        assert evicted
        assert cache.stats.evictions == len(evicted)


class TestSkewingDispersal:
    def test_ways_use_different_indices(self, config):
        cache = SkewedAssociativeCache(config)
        block = 0x12345
        indices = {cache.bank_index(w, block) for w in range(config.ways)}
        # With 16 slots per bank and 4 ways, identical indices across
        # all ways would defeat the design; expect at least 2 distinct.
        assert len(indices) >= 2

    def test_defeats_set_conflicts(self, config):
        """Blocks striding by the conventional set count collide in one
        set of a set-associative cache but disperse under skewing."""
        from repro.cache.cache import SetAssociativeCache
        from repro.policies.lru import LRUPolicy

        conflicting = [
            (i * config.num_sets) << config.offset_bits
            for i in range(4 * config.ways)
        ]
        conventional = SetAssociativeCache(
            config, LRUPolicy(config.num_sets, config.ways)
        )
        skewed = SkewedAssociativeCache(config)
        for _ in range(30):
            for address in conflicting:
                conventional.access(address)
                skewed.access(address)
        assert conventional.stats.hit_ratio < 0.05
        assert skewed.stats.hit_ratio > 0.7

    def test_no_worse_on_random_traffic(self, config):
        """On conflict-free traffic skewing must be roughly neutral."""
        from repro.cache.cache import SetAssociativeCache
        from repro.policies.lru import LRUPolicy

        rng = random.Random(13)
        blocks = [rng.randrange(600) for _ in range(20_000)]
        conventional = SetAssociativeCache(
            config, LRUPolicy(config.num_sets, config.ways)
        )
        skewed = SkewedAssociativeCache(config)
        for block in blocks:
            address = block << config.offset_bits
            conventional.access(address)
            skewed.access(address)
        assert skewed.stats.misses < 1.15 * conventional.stats.misses

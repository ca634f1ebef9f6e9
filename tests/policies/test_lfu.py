"""Unit tests for LFU replacement with saturating counters."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy

from tests.conftest import addresses_for_set


def make_cache(config, counter_bits=5):
    return SetAssociativeCache(
        config, LFUPolicy(config.num_sets, config.ways, counter_bits)
    )


class TestLFUEviction:
    def test_evicts_least_frequent(self, tiny_config):
        cache = make_cache(tiny_config)
        a, b, c, d, e = addresses_for_set(tiny_config, 0, 5)
        for address in (a, b, c, d):
            cache.access(address)
        # Heat up everything except `c`.
        for address in (a, a, b, d, a, b, d):
            cache.access(address)
        result = cache.access(e)
        assert result.evicted_tag == tiny_config.tag(c)

    def test_tie_breaks_by_oldest_fill(self, tiny_config):
        cache = make_cache(tiny_config)
        a, b, c, d, e = addresses_for_set(tiny_config, 0, 5)
        for address in (a, b, c, d):  # all frequency 1
            cache.access(address)
        result = cache.access(e)
        assert result.evicted_tag == tiny_config.tag(a)

    def test_fill_resets_frequency(self, tiny_config):
        policy = LFUPolicy(tiny_config.num_sets, tiny_config.ways)
        cache = SetAssociativeCache(tiny_config, policy)
        addresses = addresses_for_set(tiny_config, 0, 6)
        a = addresses[0]
        for address in addresses[:4]:
            cache.access(address)
        for _ in range(5):
            cache.access(a)
        way = cache.sets[0].find(tiny_config.tag(a))
        assert policy._count[0][way] == 6
        # Heat the others past `a`, then stream one new block: `a` is
        # now the least frequent and must be the victim.
        for address in addresses[1:4] * 6:
            cache.access(address)
        result = cache.access(addresses[4])
        assert result.evicted_tag == tiny_config.tag(a)
        # The new block enters with frequency 1 (reset), so the next
        # miss evicts it rather than any heated block.
        result = cache.access(addresses[5])
        assert result.evicted_tag == tiny_config.tag(addresses[4])


class TestSaturation:
    def test_counter_saturates(self, tiny_config):
        policy = LFUPolicy(tiny_config.num_sets, tiny_config.ways, counter_bits=3)
        cache = SetAssociativeCache(tiny_config, policy)
        (a,) = addresses_for_set(tiny_config, 0, 1)
        cache.access(a)
        for _ in range(100):
            cache.access(a)
        way = cache.sets[0].find(tiny_config.tag(a))
        assert policy._count[0][way] == 7  # 2^3 - 1

    def test_rejects_bad_counter_bits(self):
        with pytest.raises(ValueError):
            LFUPolicy(4, 4, counter_bits=0)


class TestLFUBehaviourClass:
    def test_protects_hot_set_from_scan(self, tiny_config):
        """The media pattern: LFU keeps the reused blocks resident while
        a single-use scan streams past; LRU loses them."""
        # Warm the hot set up (building frequency counts), then stream a
        # scan with a hot reuse distance (9) that exceeds the
        # associativity (4): recency cannot protect the hot set, but
        # accumulated frequency can.
        hot = addresses_for_set(tiny_config, 0, 3)
        scan = addresses_for_set(tiny_config, 0, 400)[100:]
        lfu_cache = make_cache(tiny_config)
        lru_cache = SetAssociativeCache(
            tiny_config, LRUPolicy(tiny_config.num_sets, tiny_config.ways)
        )
        for _ in range(5):
            for address in hot:
                lfu_cache.access(address)
                lru_cache.access(address)
        scan_pos = 0
        hot_pos = 0
        for step in range(450):
            if step % 3 == 0:
                address = hot[hot_pos % len(hot)]
                hot_pos += 1
            else:
                address = scan[scan_pos % len(scan)]
                scan_pos += 1
            lfu_cache.access(address)
            lru_cache.access(address)
        assert lfu_cache.stats.hits > lru_cache.stats.hits
        for address in hot:
            assert lfu_cache.contains(address)

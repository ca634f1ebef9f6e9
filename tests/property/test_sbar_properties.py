"""Property-based tests for the SBAR set-sampling policy."""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.experiments.base import build_l2_policy
from tests import strategies

CONFIG = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64)  # 8 sets

block_streams = strategies.block_streams(max_block=250, max_size=400)


class TestSbarInvariants:
    @given(
        blocks=block_streams,
        leaders=st.integers(min_value=1, max_value=8),
        partial_bits=st.one_of(st.none(), st.integers(min_value=2,
                                                      max_value=10)),
    )
    @settings(max_examples=40, deadline=None)
    def test_structure_and_victims_valid(self, blocks, leaders, partial_bits):
        policy = build_l2_policy(
            CONFIG, "sbar", ("lru", "lfu"),
            num_leaders=leaders, partial_bits=partial_bits,
        )
        cache = SetAssociativeCache(CONFIG, policy)
        resident = set()
        for block in blocks:
            address = block << CONFIG.offset_bits
            result = cache.access(address)
            key = (result.set_index, CONFIG.tag(address))
            if result.evicted_tag is not None:
                assert (result.set_index, result.evicted_tag) in resident
                resident.discard((result.set_index, result.evicted_tag))
            resident.add(key)
        for cache_set in cache.sets:
            assert cache_set.occupancy() <= CONFIG.ways
        assert policy.selector.selected() in (0, 1)
        stats = cache.stats
        assert stats.hits + stats.misses == len(blocks)

    @given(blocks=block_streams)
    @settings(max_examples=25, deadline=None)
    def test_eviction_counters_partition(self, blocks):
        policy = build_l2_policy(CONFIG, "sbar", ("lru", "lfu"),
                                 num_leaders=4)
        cache = SetAssociativeCache(CONFIG, policy)
        for block in blocks:
            cache.access(block << CONFIG.offset_bits)
        assert (policy.leader_evictions + policy.follower_evictions
                == cache.stats.evictions)

    @given(blocks=block_streams)
    @settings(max_examples=25, deadline=None)
    def test_all_leaders_variant_never_uses_followers(self, blocks):
        policy = build_l2_policy(
            CONFIG, "sbar", ("lru", "lfu"), num_leaders=CONFIG.num_sets
        )
        cache = SetAssociativeCache(CONFIG, policy)
        for block in blocks:
            cache.access(block << CONFIG.offset_bits)
        assert policy.follower_evictions == 0

    @given(blocks=block_streams)
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, blocks):
        def run():
            policy = build_l2_policy(CONFIG, "sbar", ("lru", "lfu"),
                                     num_leaders=4)
            cache = SetAssociativeCache(CONFIG, policy)
            for block in blocks:
                cache.access(block << CONFIG.offset_bits)
            return cache.stats.misses, policy.selector.value

        assert run() == run()

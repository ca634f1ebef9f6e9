"""Unit tests for the sharded AdaptiveKVCache engine."""

import dataclasses
import random

import pytest

from repro.core.adaptive import AdaptivePolicy
from repro.core.sbar import DuelingResidentPolicy
from repro.online.engine import MODES, AdaptiveKVCache
from repro.online.stats import KVCacheStats
from repro.workloads.keystreams import phase_change_keys, zipf_keys


class TestConstruction:
    def test_power_of_two_shards_required(self):
        with pytest.raises(ValueError, match="power of two"):
            AdaptiveKVCache(capacity_entries=64, num_shards=6)

    def test_capacity_at_least_shards(self):
        with pytest.raises(ValueError, match="at least"):
            AdaptiveKVCache(capacity_entries=4, num_shards=8)

    def test_capacity_split_with_remainder(self):
        cache = AdaptiveKVCache(capacity_entries=13, num_shards=4)
        assert [s.capacity for s in cache.shards] == [4, 3, 3, 3]
        assert sum(s.capacity for s in cache.shards) == 13

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            AdaptiveKVCache(capacity_entries=16, num_shards=2,
                            policy="nonsense")

    def test_modes(self):
        assert MODES == ("adaptive", "sampled", "fixed")
        assert AdaptiveKVCache(16, 2, policy="adaptive").mode == "adaptive"
        assert AdaptiveKVCache(16, 2, policy="sampled").mode == "sampled"
        assert AdaptiveKVCache(16, 2, policy="lru").mode == "fixed"

    def test_sampled_needs_two_components(self):
        with pytest.raises(ValueError, match="two components"):
            AdaptiveKVCache(16, 2, policy="sampled",
                            components=("lru", "lfu", "fifo"))

    def test_sampled_structure(self):
        cache = AdaptiveKVCache(64, 8, policy="sampled",
                                num_leader_shards=2)
        leaders = set(cache.leader_shards)
        assert len(leaders) == 2
        for index, shard in enumerate(cache.shards):
            if index in leaders:
                assert isinstance(shard.policy, AdaptivePolicy)
            else:
                assert isinstance(shard.policy, DuelingResidentPolicy)
        assert cache.global_selector.selected() in (0, 1)

    def test_non_sampled_has_no_global_selector(self):
        assert AdaptiveKVCache(16, 2).global_selector is None


class TestServingAPI:
    def test_roundtrip_across_shards(self):
        # Capacity is per-shard (128 entries each), so routing skew
        # across the 8 shards cannot evict any of the 100 keys.
        cache = AdaptiveKVCache(capacity_entries=1024, num_shards=8)
        for i in range(100):
            cache.put(("user", i), i * 2)
        assert len(cache) == 100
        for i in range(100):
            assert cache.get(("user", i)) == i * 2
            assert ("user", i) in cache

    def test_delete_and_contains(self):
        cache = AdaptiveKVCache(16, 2)
        cache.put("k", "v")
        assert "k" in cache
        assert cache.delete("k")
        assert "k" not in cache
        assert not cache.delete("k")

    def test_get_default(self):
        cache = AdaptiveKVCache(16, 2)
        assert cache.get("absent", default="fallback") == "fallback"

    def test_get_or_compute(self):
        cache = AdaptiveKVCache(16, 2)
        calls = []

        def compute(key):
            calls.append(key)
            return len(key)

        assert cache.get_or_compute("hello", compute) == 5
        assert cache.get_or_compute("hello", compute) == 5
        assert calls == ["hello"]

    def test_capacity_enforced_globally(self):
        cache = AdaptiveKVCache(capacity_entries=32, num_shards=4,
                                policy="lru")
        for i in range(500):
            cache.put(i, i)
        assert len(cache) <= 32
        for shard in cache.shards:
            assert shard.occupancy() <= shard.capacity

    def test_mixed_key_types(self):
        cache = AdaptiveKVCache(64, 4)
        for key in [1, "one", b"one", ("one", 1), True]:
            cache.put(key, repr(key))
        assert len(cache) == 5
        for key in [1, "one", b"one", ("one", 1), True]:
            assert cache.get(key) == repr(key)


class TestStats:
    def test_counters_consistent(self):
        cache = AdaptiveKVCache(capacity_entries=64, num_shards=4)
        keys = zipf_keys(200, 2000, seed=3)
        for key in keys:
            cache.get_or_compute(key, lambda k: k)
        stats = cache.stats()
        assert stats.gets == len(keys)
        assert stats.hits + stats.misses == stats.gets
        assert stats.occupancy == len(cache) <= 64
        assert stats.capacity_entries == 64
        assert stats.shards == 4
        assert len(stats.per_shard_occupancy) == 4
        assert sum(stats.per_shard_occupancy) == stats.occupancy
        assert 0.0 < stats.hit_ratio < 1.0
        assert stats.hit_ratio == pytest.approx(stats.hits / stats.gets)

    def test_occupancy_bytes_is_state_not_a_setting(self):
        """The field stays in the hashed stats shape, always 0, but no
        caller can set it."""
        with pytest.raises(TypeError):
            KVCacheStats(occupancy_bytes=1)
        cache = AdaptiveKVCache(capacity_entries=16, num_shards=2)
        cache.put("k", "v")
        assert dataclasses.asdict(cache.stats())["occupancy_bytes"] == 0

    def test_switch_counter_exposed(self):
        cache = AdaptiveKVCache(capacity_entries=32, num_shards=2)
        keys = phase_change_keys(64, 20, 4000, phases=4, seed=1)
        for key in keys:
            cache.get_or_compute(key, lambda k: k)
        assert cache.stats().policy_switches >= 0


class TestAdaptation:
    def test_adaptive_tracks_better_component_on_phase_change(self):
        capacity, shards = 128, 4
        keys = phase_change_keys(2 * capacity, capacity + capacity // 4,
                                 12000, phases=6, seed=0)

        def hit_pct(policy):
            cache = AdaptiveKVCache(capacity_entries=capacity,
                                    num_shards=shards, policy=policy)
            for key in keys:
                cache.get_or_compute(key, lambda k: k)
            stats = cache.stats()
            return 100.0 * stats.hits / stats.gets

        adaptive = hit_pct("adaptive")
        best_fixed = max(hit_pct("lru"), hit_pct("lfu"))
        assert adaptive >= best_fixed - 0.5

    def test_sampled_mode_serves_correctly(self):
        cache = AdaptiveKVCache(capacity_entries=64, num_shards=8,
                                policy="sampled", num_leader_shards=2)
        keys = zipf_keys(300, 3000, seed=5)
        for key in keys:
            cache.get_or_compute(key, lambda k: k)
        stats = cache.stats()
        assert stats.hits + stats.misses == stats.gets == len(keys)
        assert cache.global_selector.selected() in (0, 1)

    def test_sampled_mode_deletes(self):
        """A delete on a follower shard reaches the followers'
        ``DuelingResidentPolicy.on_invalidate``; the freed ways refill
        and evict as before."""
        cache = AdaptiveKVCache(capacity_entries=64, num_shards=8,
                                policy="sampled", num_leader_shards=2)
        rng = random.Random(2)
        for step in range(2000):
            key = rng.randrange(256)
            if step % 5 == 4:
                cache.delete(key)
                assert key not in cache
            else:
                assert cache.get_or_compute(key, str) == str(key)
        stats = cache.stats()
        assert stats.deletes > 0 and stats.evictions > 0
        assert len(cache) <= 64

"""Property tests for the online engine, including the 2x miss bound.

The Appendix's theorem is about one adaptation unit running the
counter-history selector under demand caching; the online engine's
shards are exactly such units, so the bound must hold on *randomized*
key streams — integers, strings, skewed choices, adversarial repeats —
for any shard count and component pair, not just on the curated
experiment workloads. The invariant machine in ``tests/invariants``
checks the same bound alongside every serving composition.
"""

from hypothesis import given, settings, strategies as st

from repro.online.engine import AdaptiveKVCache
from tests import strategies
from tests.invariants.bound import bound_engine, engine_bound_report

# Small universes force evictions (capacity 8-32 vs up to 60 distinct
# keys), which is where the bound is non-trivial.
int_keys = strategies.int_key_streams(max_key=60, max_size=600)
str_keys = strategies.str_key_streams(max_size=600)


def bound_report(keys, capacity, num_shards, components=("lru", "lfu")):
    """The bound report of a bound engine that served ``keys``, every
    access a demand fill."""
    cache = bound_engine(capacity, num_shards, components)
    for key in keys:
        cache.get_or_compute(key, lambda k: k)
    return engine_bound_report(cache)


class TestOnlineMissBound:
    @given(keys=int_keys,
           capacity=st.sampled_from([8, 16, 32]),
           num_shards=st.sampled_from([1, 2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_two_x_bound_int_streams(self, keys, capacity, num_shards):
        report = bound_report(keys, capacity, num_shards)
        assert report.holds(), report.violations()
        assert report.worst_ratio() <= report.factor

    @given(keys=str_keys)
    @settings(max_examples=20, deadline=None)
    def test_two_x_bound_string_streams(self, keys):
        report = bound_report(keys, 16, 2)
        assert report.holds(), report.violations()

    @given(keys=int_keys,
           components=st.sampled_from(
               [("lru", "lfu"), ("lru", "fifo"), ("fifo", "lfu")]
           ))
    @settings(max_examples=20, deadline=None)
    def test_two_x_bound_other_component_pairs(self, keys, components):
        report = bound_report(keys, 16, 1, components)
        assert report.holds(), report.violations()


class TestEngineInvariants:
    @given(keys=int_keys,
           policy=st.sampled_from(["adaptive", "sampled", "lru", "lfu"]))
    @settings(max_examples=25, deadline=None)
    def test_stats_and_occupancy_invariants(self, keys, policy):
        cache = AdaptiveKVCache(capacity_entries=16, num_shards=4,
                                policy=policy)
        for key in keys:
            cache.get_or_compute(key, lambda k: k)
        stats = cache.stats()
        assert stats.gets == len(keys)
        assert stats.hits + stats.misses == stats.gets
        assert stats.occupancy <= 16
        assert stats.occupancy == sum(stats.per_shard_occupancy)
        for shard in cache.shards:
            assert shard.occupancy() <= shard.capacity
        # Demand caching: every key ever accessed was filled once per
        # miss, so misses >= distinct resident keys.
        assert stats.misses >= stats.occupancy

    @given(keys=int_keys)
    @settings(max_examples=25, deadline=None)
    def test_routing_is_stable_and_values_correct(self, keys):
        # Size every shard to hold the whole key universe, so routing
        # skew cannot force an eviction.
        cache = AdaptiveKVCache(capacity_entries=8 * (len(set(keys)) + 1),
                                num_shards=8, policy="lru")
        for key in keys:
            cache.put(key, key * 3)
        # Nothing can have been evicted, so every key must be resident
        # on the shard its fingerprint names.
        for key in set(keys):
            assert cache.get(key) == key * 3
            shard = cache.shards[cache.shard_index(key)]
            assert key in shard.resident_keys()

"""Adaptive shards keep each way's stored print; decisions must not move.

:class:`~repro.core.adaptive.AdaptivePolicy` caches the transformed tag
of every real way (written by ``on_fill``, dropped by
``load_state_dict`` and rebuilt from the set view on the next victim).
At 4-bit prints in 8-way shards aliasing is common, so Algorithm 1's
step 2, step 3 and the arbitrary-victim fallback all fire (at 16 ways
the 16 possible prints saturate the shadows and only the fallback
does). These tests replay such shards
against the oracle's ``SpecAdaptive``, with snapshot/restore round
trips mid-stream. Shards as wide as ``HEAP_MIN_WAYS`` pick LFU
victims from a heap, in a plain LFU shard and in an adaptive shard's
LFU shadow; those are replayed against the spec too. Sets as wide as
``INDEX_MIN_WAYS`` answer steps 2 and 3 from the exclusive-way index;
those are replayed against the spec, and checked against the row scan
around the columnar kernel and shadow-tag flips.
"""

import pytest

import repro.core.adaptive as adaptive
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.adaptive import INDEX_MIN_WAYS, AdaptivePolicy
from repro.core.multi import make_adaptive
from repro.experiments.base import build_l2_policy
from repro.faults.injector import FaultInjector
from repro.faults.plan import SITE_SHADOW_TAGS, FaultPlan, FaultSpec
from repro.online.keyspace import key_fingerprint
from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard
from repro.oracle.harness import build_shard_pair, run_differential
from repro.oracle.streams import shard_ops
from repro.perf.kernel import kernel_name
from repro.policies.lfu import HEAP_MIN_WAYS

PRINT_BITS = 4
CAPACITY = 8


class TestSpecDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_four_bit_prints_with_round_trip(self, seed):
        capacity = CAPACITY
        pair = build_shard_pair("adaptive", capacity, seed=seed,
                                partial_bits=PRINT_BITS)
        events = shard_ops(seed, capacity, 600)
        half = len(events) // 2
        assert run_differential(pair, events[:half], seed=seed) is None
        assert pair.shard.policy._rows[0] is not None
        # Restore into a shard that has run another stream: the rows it
        # built there are stale for the loaded state.
        restored = CacheShard(
            capacity,
            build_shard_policy("adaptive", capacity,
                               partial_bits=PRINT_BITS, seed=seed),
        )
        for key in range(1000, 1000 + 3 * capacity):
            restored.get_or_compute(key, lambda k: ("value", k))
        assert restored.policy._rows[0] is not None
        restored.load_state_dict(pair.shard.state_dict())
        pair.shard = restored
        assert run_differential(pair, events[half:], seed=seed) is None

    def test_aliasing_reaches_the_fallback(self):
        fallbacks = 0
        for seed in range(6):
            pair = build_shard_pair("adaptive", CAPACITY, seed=seed,
                                    partial_bits=PRINT_BITS)
            events = shard_ops(seed, CAPACITY, 600)
            assert run_differential(pair, events) is None
            fallbacks += pair.shard.policy.fallback_evictions
        assert fallbacks > 0


class TestWideShards:
    @pytest.mark.parametrize("policy_name", ["lfu", "adaptive"])
    def test_heap_victims_match_spec(self, policy_name):
        capacity = 128
        assert capacity >= HEAP_MIN_WAYS
        pair = build_shard_pair(policy_name, capacity, seed=3)
        policy = pair.shard.policy
        lfu = policy if policy_name == "lfu" else policy.components[1]
        assert lfu._heaps is not None
        assert run_differential(pair, shard_ops(3, capacity, 4000)) is None
        assert pair.shard.evictions > capacity


class TestShardOccupancy:
    def test_view_counts_through_restore(self):
        shard = CacheShard(8, build_shard_policy("lru", 8))
        for key in range(5):
            shard.put(key, key)
        snapshot = shard.state_dict()
        for key in range(5, 20):
            shard.put(key, key)
        assert len(shard._view.valid_ways()) == shard.occupancy() == 8
        shard.load_state_dict(snapshot)
        assert len(shard._view.valid_ways()) == shard.occupancy() == 5
        shard.delete(0)
        assert len(shard._view.valid_ways()) == shard.occupancy() == 4


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def expire_then_apply(pair, clock, events):
    """Replay ``events`` one clock tick apart. A key whose entry has
    expired is dropped first, lazily as the shard does it (a ``delete``
    of a lapsed entry expires it and counts no delete), and removed
    from the spec."""
    for step, event in enumerate(events):
        clock.now += 1.0
        key = event[1]
        if key in pair.shard.resident_keys() and not pair.shard.contains(key):
            assert pair.shard.delete(key) is False
            pair.spec.remove(0, key_fingerprint(key))
        divergence = run_differential(pair, [event])
        if divergence is not None:
            return step, divergence
    return None


class TestExclusiveWayIndex:
    """Steps 2 and 3 from the index must pick the scan's ways."""

    @pytest.mark.parametrize("bits", [1, 2, 16, None])
    @pytest.mark.parametrize("capacity", [64, 512])
    def test_spec_differential(self, monkeypatch, capacity, bits):
        # The 64-way shard gets an index too, so aliasing runs denser.
        monkeypatch.setattr(adaptive, "INDEX_MIN_WAYS", 64)
        seed = capacity + (bits or 0)
        ttl = 1.0 * capacity
        clock = Clock()

        def make_shard():
            policy = build_shard_policy("adaptive", capacity,
                                        partial_bits=bits, seed=seed)
            return CacheShard(capacity, policy, default_ttl=ttl, clock=clock)

        pair = build_shard_pair("adaptive", capacity, seed=seed,
                                partial_bits=bits)
        pair.shard = make_shard()
        events = shard_ops(seed, capacity, 6 * capacity)
        half = len(events) // 2
        assert expire_then_apply(pair, clock, events[:half]) is None
        assert pair.shard.policy._index[0] is not None
        restored = make_shard()
        restored.load_state_dict(pair.shard.state_dict())
        assert restored.policy._index[0] is None
        pair.shard = restored
        assert expire_then_apply(pair, clock, events[half:]) is None
        policy = pair.shard.policy
        assert policy._index[0] is not None
        assert pair.shard.evictions > 0
        assert pair.shard.deletes > 0 and pair.shard.expirations > 0
        if bits in (1, 2):
            # So few prints alias every way: the fallback decides.
            assert policy.fallback_evictions > 0
            holders = policy._index[0][0]
            assert any(type(held) is list for held in holders.values())
        if bits is None:
            assert policy.fallback_evictions == 0

    def test_simulator_cache_around_a_kernel_batch(self):
        ways = INDEX_MIN_WAYS
        config = CacheConfig(size_bytes=2 * ways * 64, ways=ways)
        cache = SetAssociativeCache(config, make_adaptive(2, ways))
        policy = cache.policy
        checked = check_against_scan(policy)
        lines = 6 * ways
        batch = [(i * 7919 % lines) * 64 for i in range(8 * ways)]
        assert kernel_name(cache, len(batch)) == "columnar"
        cache.access_many(batch)
        assert policy._index == [None, None]
        for i in range(6 * ways):
            cache.access((i * 104729 % (2 * lines)) * 64, is_write=i % 5 == 0)
        assert all(entry is not None for entry in policy._index)
        assert len(checked) > ways

    @pytest.mark.parametrize("bits", [16, None])
    def test_victims_after_shadow_tag_flips(self, bits):
        capacity = INDEX_MIN_WAYS
        shard = CacheShard(
            capacity,
            build_shard_policy("adaptive", capacity, partial_bits=bits),
        )
        policy = shard.policy
        injector = FaultInjector(FaultPlan(
            specs=[FaultSpec(SITE_SHADOW_TAGS, 0.05, bits=2)], seed=9,
        )).arm(policy)
        checked = check_against_scan(policy)
        for op, key in shard_ops(11, capacity, 8 * capacity):
            if op == "delete":
                shard.delete(key)
            elif op == "put":
                shard.put(key, key)
            else:
                shard.get_or_compute(key, str)
        assert injector.log.shadow_tag_flips > 0
        assert len(checked) > capacity


    def test_sbar_leader_victims_after_shadow_tag_flips(self):
        ways = INDEX_MIN_WAYS
        config = CacheConfig(size_bytes=4 * ways * 64, ways=ways)
        sbar = build_l2_policy(config, "sbar", num_leaders=2)
        cache = SetAssociativeCache(config, sbar)
        injector = FaultInjector(FaultPlan(
            specs=[FaultSpec(SITE_SHADOW_TAGS, 0.05, bits=2)], seed=4,
        )).arm(sbar)
        checked = check_against_scan(sbar.leaders)
        for i in range(12 * ways):
            cache.access((i * 104729 % (4 * 3 * ways)) * 64)
        assert injector.log.shadow_tag_flips > 0
        assert len(checked) > ways


def check_against_scan(policy: AdaptivePolicy) -> list:
    """Make ``policy.victim`` assert that each way it returns is the
    row scan's answer (or the fallback's, when the scan finds none);
    returns the list of checked ways."""
    inner = policy.victim
    checked = []

    def victim(set_index, set_view):
        fallbacks = policy.fallback_evictions
        way = inner(set_index, set_view)
        chosen = policy.selectors[set_index].best_component()
        outcome = policy._last_outcomes[chosen]
        row = policy._rows[set_index]
        expected = None
        if outcome.missed and outcome.victim_tag is not None:
            expected = policy._find_way_by_stored_tag(row, outcome.victim_tag)
        if expected is None:
            resident = policy.shadows[chosen].sets[set_index]._tag_to_way
            expected = policy._find_way_not_in_shadow(row, resident)
        if expected is None:
            assert policy.fallback_evictions == fallbacks + 1
        else:
            assert way == expected
        checked.append(way)
        return way

    policy.victim = victim
    return checked

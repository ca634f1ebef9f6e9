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
LFU shadow; those are replayed against the spec too.
"""

import pytest

from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard
from repro.oracle.harness import build_shard_pair, run_differential
from repro.oracle.streams import shard_ops
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

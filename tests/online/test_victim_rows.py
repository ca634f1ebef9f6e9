"""Adaptive shards keep each way's stored print; decisions must not move.

:class:`~repro.core.adaptive.AdaptivePolicy` caches the transformed tag
of every real way (written by ``on_fill``, dropped by
``load_state_dict`` and rebuilt from the set view on the next victim).
At 4-bit prints in 8-way shards aliasing is common, so Algorithm 1's
step 2, step 3 and the arbitrary-victim fallback all fire (at 16 ways
the 16 possible prints saturate the shadows and only the fallback
does). These tests replay such shards
against the oracle's ``SpecAdaptive`` and, under a byte budget the spec
does not model, against a per-way reference scan, with snapshot/restore
round trips mid-stream.
"""

import pytest

from repro.core.adaptive import AdaptivePolicy
from repro.online.keyspace import partial_fingerprint_transform
from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard
from repro.oracle.harness import build_shard_pair, run_differential
from repro.oracle.streams import shard_ops
from repro.policies.registry import make_policy
from repro.utils.rng import DeterministicRNG

PRINT_BITS = 4
CAPACITY = 8


class PerWayReference(AdaptivePolicy):
    """Algorithm 1's victim search as a per-way scan of the set view,
    transforming every valid way's tag on every eviction."""

    def victim(self, set_index, set_view):
        chosen = self.selectors[set_index].best_component()
        self._decisions[set_index][chosen] += 1
        outcome = self._last_outcomes[chosen]
        resident = self.shadows[chosen].sets[set_index]._tag_to_way
        stored = [
            (way, self.tag_transform(set_view.tag_at(way)))
            for way in set_view.valid_ways()
        ]
        if outcome.missed and outcome.victim_tag is not None:
            for way, tag in stored:
                if tag == outcome.victim_tag:
                    return way
        for way, tag in stored:
            if tag not in resident:
                return way
        self.fallback_evictions += 1
        return self._fallback_victim(set_index, set_view)


def adaptive_policy(capacity, cls=AdaptivePolicy, seed=0):
    return cls(
        1,
        capacity,
        [make_policy(name, 1, capacity) for name in ("lru", "lfu")],
        tag_transform=partial_fingerprint_transform(PRINT_BITS),
        seed=seed,
    )


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


class TestByteBudgetReference:
    """Byte pressure evicts through a view hiding the entry just
    written, so the victim search scans ``valid_ways()``, not the whole
    row."""

    @staticmethod
    def _shard(cls):
        return CacheShard(
            CAPACITY, adaptive_policy(CAPACITY, cls),
            capacity_bytes=16, sizeof=lambda value: value[1],
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_way_scan(self, seed):
        rng = DeterministicRNG(seed)
        real = self._shard(AdaptivePolicy)
        reference = self._shard(PerWayReference)
        for step in range(1500):
            key = rng.randint(0, 23)
            size = 10 if rng.random() < 0.1 else 1
            roll = rng.random()
            for shard in (real, reference):
                if roll < 0.45:
                    shard.get_or_compute(key, lambda k: (k, size))
                elif roll < 0.8:
                    shard.put(key, (key, size))
                elif roll < 0.9:
                    shard.get(key)
                else:
                    shard.delete(key)
            if step % 250 == 249:
                real.load_state_dict(real.state_dict())
                assert real.policy._rows == [None]
            assert real.state_dict() == reference.state_dict()
        assert real.evictions > 0
        assert real.policy.fallback_evictions > 0


class TestShardOccupancy:
    def test_view_counts_through_restore(self):
        shard = CacheShard(8, build_shard_policy("lru", 8))
        for key in range(5):
            shard.put(key, key)
        snapshot = shard.state_dict()
        for key in range(5, 20):
            shard.put(key, key)
        assert shard._view.valid_count() == 8
        shard.load_state_dict(snapshot)
        assert shard._view.valid_count() == shard.occupancy() == 5
        shard.delete(0)
        assert shard._view.valid_count() == 4

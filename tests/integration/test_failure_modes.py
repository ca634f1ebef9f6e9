"""Failure-injection tests: misbehaving components must fail loudly.

A replacement-policy bug that silently corrupts cache state would
invalidate every result built on top; these tests pin down that the
cache surfaces such bugs instead of absorbing them, and that legitimate
disruptions (invalidation storms) do not degenerate into corruption.
"""

import random

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard
from repro.policies.base import ReplacementPolicy

from tests.conftest import addresses_for_set


class OutOfRangeVictimPolicy(ReplacementPolicy):
    """Always names a way that does not exist."""

    name = "broken-range"

    def on_hit(self, set_index, way):
        pass

    def on_fill(self, set_index, way, tag):
        pass

    def victim(self, set_index, set_view):
        return self.ways  # one past the end


class InvalidWayVictimPolicy(ReplacementPolicy):
    """Names an invalid (empty) way — only possible through a bug,
    since victim() is only called on full sets, but a policy with
    stale internal state could still do it after invalidations."""

    name = "broken-empty"

    def __init__(self, num_sets, ways):
        super().__init__(num_sets, ways)
        self.calls = 0

    def on_hit(self, set_index, way):
        pass

    def on_fill(self, set_index, way, tag):
        pass

    def victim(self, set_index, set_view):
        return set_view.valid_ways()[0]


class TestBrokenPolicies:
    def test_out_of_range_victim_raises(self, tiny_config):
        cache = SetAssociativeCache(
            tiny_config,
            OutOfRangeVictimPolicy(tiny_config.num_sets, tiny_config.ways),
        )
        addresses = addresses_for_set(tiny_config, 0, tiny_config.ways + 1)
        for address in addresses[:-1]:
            cache.access(address)
        with pytest.raises(IndexError):
            cache.access(addresses[-1])


class TestInvalidationStorms:
    @pytest.mark.parametrize("partial_bits", [None, 8, 4])
    def test_adaptive_survives_random_invalidations(self, partial_bits):
        """Section 3.2 argues the parallel tag arrays need not snoop
        coherence invalidations; here an online shard deletes entries
        the shadows still believe in (a delete is the program path to
        ``on_invalidate``), and the adaptive policy must keep producing
        valid victims regardless."""
        policy = build_shard_policy("adaptive", 16, partial_bits=partial_bits)
        shard = CacheShard(16, policy)
        rng = random.Random(13)
        for step in range(15_000):
            if step % 7 == 3 and shard.occupancy():
                shard.delete(rng.choice(sorted(shard.resident_keys())))
            else:
                shard.get_or_compute(rng.randrange(1 << 8), str)
        # Structural sanity after the storm.
        assert shard.occupancy() <= 16
        assert shard.deletes > 0 and shard.evictions > 0

    def test_shadow_divergence_is_bounded_not_fatal(self):
        """After deletes, the shadow contents legitimately differ from
        the shard (they model un-snooped tag arrays); the policy's
        fallback handles the case where no 'block not in B' exists."""
        shard = CacheShard(4, build_shard_policy("adaptive", 4))
        for key in range(4):
            shard.get_or_compute(key, str)
        for key in range(4):
            shard.delete(key)
        for key in range(20):
            shard.get_or_compute(key, str)
        assert shard.occupancy() == 4

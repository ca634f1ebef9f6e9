"""Failure-injection tests: misbehaving components must fail loudly.

A replacement-policy bug that silently corrupts cache state would
invalidate every result built on top; these tests pin down that the
cache surfaces such bugs instead of absorbing them, and that legitimate
disruptions (invalidation storms) do not degenerate into corruption.
"""

import random

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.core.multi import make_adaptive
from repro.core.partial import PartialTagScheme
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
    def test_adaptive_survives_random_invalidations(self, small_config,
                                                    partial_bits):
        """Section 3.2 argues the parallel tag arrays need not snoop
        coherence invalidations; here the real cache loses lines the
        shadows still believe in, and the adaptive policy must keep
        producing valid victims regardless."""
        transform = (
            {} if partial_bits is None
            else {"tag_transform": PartialTagScheme(partial_bits)}
        )
        policy = make_adaptive(small_config.num_sets, small_config.ways,
                               **transform)
        cache = SetAssociativeCache(small_config, policy)
        rng = random.Random(13)
        resident = set()
        for step in range(15_000):
            address = rng.randrange(1 << 20) << small_config.offset_bits
            if step % 7 == 3 and resident:
                victim = rng.choice(sorted(resident))
                cache.invalidate(victim << small_config.offset_bits)
                resident.discard(victim)
                continue
            result = cache.access(address)
            block = address >> small_config.offset_bits
            resident.add(block)
            if result.evicted_tag is not None:
                evicted_block = small_config.rebuild_address(
                    result.evicted_tag, result.set_index
                ) >> small_config.offset_bits
                resident.discard(evicted_block)
        # Structural sanity after the storm.
        for cache_set in cache.sets:
            assert cache_set.occupancy() <= small_config.ways
        assert cache.stats.invalidations > 0

    def test_shadow_divergence_is_bounded_not_fatal(self, tiny_config):
        """After invalidations, the shadow contents legitimately differ
        from the real cache (they model un-snooped tag arrays); the
        policy's fallback handles the case where no 'block not in B'
        exists."""
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        cache = SetAssociativeCache(tiny_config, policy)
        addresses = addresses_for_set(tiny_config, 0, 20)
        for address in addresses[:4]:
            cache.access(address)
        for address in addresses[:4]:
            cache.invalidate(address)
        for address in addresses:
            cache.access(address)
        assert cache.sets[0].free_way() is None

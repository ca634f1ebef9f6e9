"""Unit tests for the Bimodal Insertion Policy (DIP component)."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.policies.bip import BIPPolicy
from repro.policies.lru import LRUPolicy

from tests.conftest import addresses_for_set


def make_cache(config, epsilon=1 / 32, seed=0):
    return BIPCache(config, epsilon, seed)


def BIPCache(config, epsilon, seed):
    return SetAssociativeCache(
        config, BIPPolicy(config.num_sets, config.ways, epsilon, seed)
    )


class TestInsertion:
    def test_cold_insert_is_next_victim(self, tiny_config):
        """With epsilon=0 every fill lands at the LRU position: a new
        block that is not re-referenced is the very next victim."""
        cache = make_cache(tiny_config, epsilon=0.0)
        warm = addresses_for_set(tiny_config, 0, tiny_config.ways)
        for address in warm:
            cache.access(address)
        for address in warm:
            cache.access(address)  # promote the working set via hits
        extra = addresses_for_set(tiny_config, 0, tiny_config.ways + 2)
        result = cache.access(extra[-2])  # cold fill
        evicted_first = result.evicted_tag
        result = cache.access(extra[-1])
        # The cold block just inserted is evicted, not the warm set.
        assert result.evicted_tag == tiny_config.tag(extra[-2])
        for address in warm:
            if tiny_config.tag(address) != evicted_first:
                assert cache.contains(address)

    def test_hit_promotes_cold_block(self, tiny_config):
        cache = make_cache(tiny_config, epsilon=0.0)
        warm = addresses_for_set(tiny_config, 0, tiny_config.ways)
        for address in warm:
            cache.access(address)
        for address in warm:
            cache.access(address)
        extra = addresses_for_set(tiny_config, 0, tiny_config.ways + 2)
        cache.access(extra[-2])
        cache.access(extra[-2])  # hit: promote to MRU
        cache.access(extra[-1])  # evicts a warm block, not the promoted one
        assert cache.contains(extra[-2])

    def test_epsilon_one_behaves_like_lru(self, tiny_config, random_blocks):
        bip_cache = make_cache(tiny_config, epsilon=1.0)
        lru_cache = SetAssociativeCache(
            tiny_config, LRUPolicy(tiny_config.num_sets, tiny_config.ways)
        )
        for block in random_blocks(length=3000, universe=200, seed=6):
            address = block << tiny_config.offset_bits
            bip_cache.access(address)
            lru_cache.access(address)
        assert bip_cache.stats.misses == lru_cache.stats.misses

    def test_validation(self):
        with pytest.raises(ValueError):
            BIPPolicy(4, 4, epsilon=1.5)


class TestThrashResistance:
    def test_beats_lru_on_oversized_loop(self, small_config):
        """The reason BIP exists: a loop slightly larger than the cache
        thrashes LRU but leaves BIP a stable resident subset."""
        from repro.workloads.synth import linear_loop

        stream = linear_loop(int(1.3 * small_config.num_lines), 25_000)
        bip_cache = make_cache(small_config)
        lru_cache = SetAssociativeCache(
            small_config, LRUPolicy(small_config.num_sets, small_config.ways)
        )
        for line in stream:
            address = line * small_config.line_bytes
            bip_cache.access(address)
            lru_cache.access(address)
        assert bip_cache.stats.misses < 0.6 * lru_cache.stats.misses

    def test_deterministic_per_seed(self, tiny_config, random_blocks):
        blocks = random_blocks(length=2000, universe=300, seed=7)

        def run(seed):
            cache = make_cache(tiny_config, seed=seed)
            for block in blocks:
                cache.access(block << tiny_config.offset_bits)
            return cache.stats.misses

        assert run(3) == run(3)


class TestRegistryIntegration:
    def test_registered(self):
        from repro.policies.registry import make_policy

        policy = make_policy("bip", 8, 4, epsilon=0.1)
        assert isinstance(policy, BIPPolicy)
        assert policy.epsilon == 0.1

    def test_dip_like_sbar_composition(self, small_config):
        """SbarPolicy over (lru, bip) — the DIP-like design — runs and
        picks BIP on a thrashing stream."""
        from repro.experiments.base import build_l2_policy
        from repro.workloads.synth import linear_loop

        policy = build_l2_policy(small_config, "sbar", ("lru", "bip"),
                                 num_leaders=8)
        cache = SetAssociativeCache(small_config, policy)
        for line in linear_loop(int(1.3 * small_config.num_lines), 20_000):
            cache.access(line * small_config.line_bytes)
        assert policy.selector.selected() == 1  # BIP

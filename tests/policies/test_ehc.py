"""Unit tests for expected-hit-count (EHC) replacement."""

from repro.cache.cache import SetAssociativeCache
from repro.online.keyspace import key_fingerprint
from repro.online.shard import CacheShard
from repro.policies.registry import available_policies, make_policy
from repro.policies.ehc import EHCPolicy, NEW_TAG_EXPECTATION
from repro.policies.lru import LRUPolicy

from tests.conftest import addresses_for_set


def expected_hits(policy, set_index, tag):
    """The policy's learned expected hits per residency for ``tag``."""
    return policy._ema[set_index].get(tag, NEW_TAG_EXPECTATION)


def make_cache(config):
    return SetAssociativeCache(
        config, EHCPolicy(config.num_sets, config.ways)
    )


class TestExpectationLearning:
    def test_new_tag_gets_optimistic_expectation(self, tiny_config):
        policy = EHCPolicy(tiny_config.num_sets, tiny_config.ways)
        assert expected_hits(policy, 0, 42) == NEW_TAG_EXPECTATION

    def test_first_lifetime_seeds_average_directly(self, tiny_config):
        policy = EHCPolicy(tiny_config.num_sets, tiny_config.ways)
        cache = SetAssociativeCache(tiny_config, policy)
        a, *rest = addresses_for_set(tiny_config, 0, 5)
        cache.access(a)
        for _ in range(3):
            cache.access(a)  # 3 hits this residency
        for address in rest:  # evict `a` (fills 3 ways + one replacement)
            cache.access(address)
        assert expected_hits(policy, 0, tiny_config.tag(a)) == 3.0

    def test_halving_updates_average_exactly(self):
        # An online shard's delete is the program path that ends a
        # residency early (on_invalidate).
        policy = EHCPolicy(1, 4)
        shard = CacheShard(4, policy)
        tag_a = key_fingerprint("a")

        def live_one_lifetime(hits):
            shard.put("a", 1)
            for _ in range(hits):
                shard.get("a")
            shard.delete("a")

        live_one_lifetime(4)
        assert expected_hits(policy, 0, tag_a) == 4.0
        live_one_lifetime(0)
        assert expected_hits(policy, 0, tag_a) == 2.0
        live_one_lifetime(1)
        assert expected_hits(policy, 0, tag_a) == 1.5
        live_one_lifetime(1)
        assert expected_hits(policy, 0, tag_a) == 1.25

    def test_invalidate_finalizes_lifetime(self):
        policy = EHCPolicy(1, 4)
        shard = CacheShard(4, policy)
        shard.put("a", 1)
        shard.get("a")
        shard.get("a")
        shard.delete("a")
        assert expected_hits(policy, 0, key_fingerprint("a")) == 2.0


class TestVictimSelection:
    def test_evicts_lowest_expected_remaining_hits(self, tiny_config):
        # All four tags are new (expectation 1.0). `a`, `b` and `d`
        # have collected 2 hits each — their expectation is exhausted
        # (remaining = 1.0 - 2 = -1.0) — while `c` still has its hit
        # coming (remaining 1.0). The exhausted blocks lose, oldest
        # fill first.
        cache = make_cache(tiny_config)
        policy = cache.policy
        a, b, c, d, e = addresses_for_set(tiny_config, 0, 5)
        for address in (a, b, c, d):
            cache.access(address)
        for address in (a, a, b, b, d, d):
            cache.access(address)
        result = cache.access(e)
        assert result.evicted_tag == tiny_config.tag(a)
        assert cache.contains(c)
        assert expected_hits(policy, 0, tiny_config.tag(a)) == 2.0

    def test_tie_breaks_by_oldest_fill(self, tiny_config):
        cache = make_cache(tiny_config)
        a, b, c, d, e = addresses_for_set(tiny_config, 0, 5)
        for address in (a, b, c, d):  # identical (1.0, 0-hit) keys
            cache.access(address)
        result = cache.access(e)
        assert result.evicted_tag == tiny_config.tag(a)

    def test_learned_zero_reuse_evicted_before_new_blocks(self, tiny_config):
        cache = make_cache(tiny_config)
        addresses = addresses_for_set(tiny_config, 0, 12)
        scan_block = addresses[0]
        # First lifetime of `scan_block` ends hitless -> EMA 0.0.
        cache.access(scan_block)
        for address in addresses[1:5]:
            cache.access(address)
        assert not cache.contains(scan_block)
        # Refill it; on the very next replacement the known-zero-reuse
        # block (remaining 0.0) loses to optimistic newcomers (1.0).
        cache.access(scan_block)
        result = cache.access(addresses[5])
        assert result.evicted_tag == tiny_config.tag(scan_block)


class TestBehaviourClass:
    def test_protects_hot_set_from_scan(self, tiny_config):
        """Scan blocks complete hitless lifetimes and are recognised on
        reappearance; the hot set's learned reuse keeps it resident."""
        hot = addresses_for_set(tiny_config, 0, 3)
        scan = addresses_for_set(tiny_config, 0, 60)[20:]
        ehc_cache = make_cache(tiny_config)
        lru_cache = SetAssociativeCache(
            tiny_config, LRUPolicy(tiny_config.num_sets, tiny_config.ways)
        )
        for _ in range(5):
            for address in hot:
                ehc_cache.access(address)
                lru_cache.access(address)
        hot_pos = 0
        scan_pos = 0
        for step in range(800):
            if step % 3 == 0:
                address = hot[hot_pos % len(hot)]
                hot_pos += 1
            else:
                address = scan[scan_pos % len(scan)]
                scan_pos += 1
            ehc_cache.access(address)
            lru_cache.access(address)
        assert ehc_cache.stats.hits > lru_cache.stats.hits


class TestStateAndRegistry:
    def test_registered_in_registry(self):
        assert "ehc" in available_policies()
        policy = make_policy("ehc", 4, 4)
        assert isinstance(policy, EHCPolicy)

    def test_state_dict_round_trip(self, tiny_config):
        import json

        cache = make_cache(tiny_config)
        addresses = addresses_for_set(tiny_config, 0, 10)
        for step in range(200):
            cache.access(addresses[step % 7])
        state = json.loads(json.dumps(cache.policy.state_dict()))
        restored = EHCPolicy(tiny_config.num_sets, tiny_config.ways)
        restored.load_state_dict(state)
        assert restored.state_dict() == cache.policy.state_dict()

    def test_spec_matches_policy_decisions(self, tiny_config):
        """The executable spec and the policy agree victim-for-victim."""
        from repro.oracle.spec import SpecCache, make_spec
        from repro.utils.rng import DeterministicRNG

        cache = make_cache(tiny_config)
        spec = make_spec(
            "ehc", num_sets=tiny_config.num_sets, ways=tiny_config.ways
        )
        spec_cache = SpecCache(tiny_config.num_sets, tiny_config.ways, spec)
        rng = DeterministicRNG(20260808)
        universe = addresses_for_set(tiny_config, 0, 24)
        for _ in range(3000):
            address = universe[rng.randint(0, len(universe) - 1)]
            result = cache.access(address)
            decision = spec_cache.access(0, tiny_config.tag(address))
            assert decision.hit == result.hit
            assert decision.evicted_tag == result.evicted_tag

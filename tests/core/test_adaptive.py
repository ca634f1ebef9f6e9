"""Unit tests for the adaptive replacement policy (Algorithm 1)."""

import random

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.adaptive import AdaptivePolicy
from repro.core.history import CounterHistory
from repro.core.multi import make_adaptive
from repro.core.partial import PartialTagScheme
from repro.policies.base import ReplacementPolicy
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy

from tests.conftest import addresses_for_set


class ScriptedPolicy(ReplacementPolicy):
    """A fake component whose victims follow a fixed script of tags.

    Lets tests drive Algorithm 1 through the paper's worked example
    (Figure 2), where the component policies are abstract.
    """

    name = "scripted"

    def __init__(self, num_sets, ways, victims):
        super().__init__(num_sets, ways)
        self._victims = list(victims)

    def on_hit(self, set_index, way):
        pass

    def on_fill(self, set_index, way, tag):
        pass

    def victim(self, set_index, set_view):
        tag = self._victims.pop(0)
        for way in set_view.valid_ways():
            if set_view.tag_at(way) == tag:
                return way
        raise AssertionError(f"scripted victim {tag} not resident")


# Block letters of Figure 2, as tags in a single-set 4-way cache.
C, A, B, F, D, G = 3, 1, 2, 6, 4, 7


@pytest.fixture
def one_set_config():
    return CacheConfig(size_bytes=256, ways=4, line_bytes=64)


class TestPaperExample:
    """Replays Figure 2 exactly: same references, same evictions."""

    def test_figure2(self, one_set_config):
        # Policy A's scripted evictions: B (on D), C (on B), D (on C),
        # C (on G). Policy B's: A (on D), F (on G).
        policy_a = ScriptedPolicy(1, 4, victims=[B, C, D, C])
        policy_b = ScriptedPolicy(1, 4, victims=[A, F])
        adaptive = AdaptivePolicy(
            1, 4, [policy_a, policy_b],
            history_factory=lambda n: CounterHistory(n),
        )
        cache = SetAssociativeCache(one_set_config, adaptive)

        def access(tag):
            return cache.access(one_set_config.rebuild_address(tag, 0))

        evictions = []
        for tag in (C, A, B, F, D, B, C, G):
            result = access(tag)
            evictions.append(result.evicted_tag)

        # References C,A,B,F fill; D evicts B (imitating A, equal
        # counts); B evicts A (imitating B, which hit -> pick a block
        # not in B); C hits; G evicts F (imitating B, same victim).
        assert evictions == [None, None, None, None, B, A, None, F]
        assert sorted(cache.sets[0].resident_tags()) == sorted([B, C, D, G])
        # Shadow contents match the figure's final state too.
        assert sorted(adaptive.shadows[0].resident_tags(0)) == sorted(
            [A, B, F, G]
        )
        assert sorted(adaptive.shadows[1].resident_tags(0)) == sorted(
            [B, C, D, G]
        )
        # Miss counts: A missed 8 times, B missed 6, adaptive 7.
        assert adaptive.shadows[0].misses == 8
        assert adaptive.shadows[1].misses == 6
        assert cache.stats.misses == 7


class TestConstruction:
    def test_needs_two_components(self, tiny_config):
        with pytest.raises(ValueError, match="at least 2"):
            AdaptivePolicy(
                tiny_config.num_sets, tiny_config.ways,
                [LRUPolicy(tiny_config.num_sets, tiny_config.ways)],
            )

    def test_component_geometry_checked(self, tiny_config):
        with pytest.raises(ValueError, match="geometry"):
            AdaptivePolicy(
                tiny_config.num_sets, tiny_config.ways,
                [LRUPolicy(tiny_config.num_sets, tiny_config.ways),
                 LRUPolicy(8, 8)],
            )

    def test_unknown_fallback_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="fallback"):
            make_adaptive(tiny_config.num_sets, tiny_config.ways,
                          fallback="belady")

    def test_name_reflects_components(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways,
                               ("lru", "lfu"))
        assert policy.name == "adaptive(lru+lfu)"

    def test_victim_without_observe_rejected(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        with pytest.raises(RuntimeError, match="observe"):
            policy.victim(0, None)


class TestIdenticalComponents:
    def test_equivalent_to_component(self, small_config, random_blocks):
        """Invariant 6: adapting over two copies of the same policy is
        exactly that policy (with full tags)."""
        adaptive_cache = SetAssociativeCache(
            small_config,
            make_adaptive(small_config.num_sets, small_config.ways,
                          ("lru", "lru")),
        )
        plain_cache = SetAssociativeCache(
            small_config, LRUPolicy(small_config.num_sets, small_config.ways)
        )
        for block in random_blocks(length=6000, universe=700, seed=21):
            address = block * small_config.line_bytes
            adaptive_result = adaptive_cache.access(address)
            plain_result = plain_cache.access(address)
            assert adaptive_result.hit == plain_result.hit
        assert adaptive_cache.stats.misses == plain_cache.stats.misses


class TestTracking:
    def _run(self, config, stream, components=("lru", "lfu")):
        caches = {}
        for label in (*components, "adaptive"):
            if label == "adaptive":
                policy = make_adaptive(config.num_sets, config.ways, components)
            else:
                from repro.policies.registry import make_policy

                policy = make_policy(label, config.num_sets, config.ways)
            caches[label] = SetAssociativeCache(config, policy)
        for line in stream:
            address = line * config.line_bytes
            for cache in caches.values():
                cache.access(address)
        return {label: c.stats.misses for label, c in caches.items()}

    def test_tracks_lru_on_drift(self, small_config):
        from repro.workloads.synth import drifting_working_set

        stream = drifting_working_set(
            int(0.9 * small_config.num_lines), 30_000, 20.0, seed=2
        )
        misses = self._run(small_config, stream)
        assert misses["lru"] < misses["lfu"]
        assert misses["adaptive"] <= 1.15 * misses["lru"]

    def test_tracks_lfu_on_scan(self, small_config):
        from repro.workloads.synth import scan_with_hot

        stream = scan_with_hot(
            int(0.4 * small_config.num_lines),
            8 * small_config.num_lines,
            30_000,
            seed=3,
        )
        misses = self._run(small_config, stream)
        assert misses["lfu"] < misses["lru"]
        assert misses["adaptive"] <= 1.15 * misses["lfu"]

    def test_component_misses_match_standalone(self, small_config,
                                                random_blocks):
        """With full tags, the shadows are exact component simulations."""
        from repro.policies.lfu import LFUPolicy

        blocks = random_blocks(length=5000, universe=600, seed=8)
        adaptive = make_adaptive(small_config.num_sets, small_config.ways)
        cache = SetAssociativeCache(small_config, adaptive)
        lru_cache = SetAssociativeCache(
            small_config, LRUPolicy(small_config.num_sets, small_config.ways)
        )
        lfu_cache = SetAssociativeCache(
            small_config, LFUPolicy(small_config.num_sets, small_config.ways)
        )
        for block in blocks:
            address = block * small_config.line_bytes
            cache.access(address)
            lru_cache.access(address)
            lfu_cache.access(address)
        assert adaptive.component_misses() == [
            lru_cache.stats.misses, lfu_cache.stats.misses
        ]


class TestDecisionCounters:
    def test_drain_resets(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        cache = SetAssociativeCache(tiny_config, policy)
        for address in addresses_for_set(tiny_config, 0, 12):
            cache.access(address)
        first = policy.drain_decisions()
        assert sum(sum(row) for row in first) == cache.stats.evictions
        second = policy.drain_decisions()
        assert sum(sum(row) for row in second) == 0

    def test_decisions_attributed_to_set(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        cache = SetAssociativeCache(tiny_config, policy)
        for address in addresses_for_set(tiny_config, 3, 10):
            cache.access(address)
        decisions = policy.drain_decisions()
        for set_index, row in enumerate(decisions):
            if set_index == 3:
                assert sum(row) > 0
            else:
                assert sum(row) == 0


class TestPartialTagAdaptivity:
    def test_one_bit_tags_fall_back_gracefully(self, tiny_config):
        """With 1-bit partial tags aliasing defeats the shadow search
        constantly; the policy must still evict valid blocks."""
        policy = make_adaptive(
            tiny_config.num_sets, tiny_config.ways,
            tag_transform=PartialTagScheme(1),
        )
        cache = SetAssociativeCache(tiny_config, policy)
        rng = random.Random(4)
        for _ in range(2000):
            cache.access(rng.randrange(1 << 16))
        assert policy.fallback_evictions > 0
        assert cache.stats.misses > 0

    def test_random_fallback_deterministic(self, tiny_config):
        def run(seed):
            policy = make_adaptive(
                tiny_config.num_sets, tiny_config.ways,
                tag_transform=PartialTagScheme(1),
                fallback="random",
                seed=seed,
            )
            cache = SetAssociativeCache(tiny_config, policy)
            rng = random.Random(9)
            return [
                cache.access(rng.randrange(1 << 16)).evicted_tag
                for _ in range(500)
            ]

        assert run(1) == run(1)

    def test_wide_partial_close_to_full(self, small_config, random_blocks):
        """Figure 5's claim at unit-test scale: 10-bit partial tags give
        nearly the same miss count as full tags."""
        blocks = random_blocks(length=8000, universe=900, seed=14)

        def misses(transform_kwargs):
            policy = make_adaptive(
                small_config.num_sets, small_config.ways, **transform_kwargs
            )
            cache = SetAssociativeCache(small_config, policy)
            for block in blocks:
                cache.access(block * small_config.line_bytes)
            return cache.stats.misses

        full = misses({})
        partial = misses({"tag_transform": PartialTagScheme(10)})
        assert abs(partial - full) <= 0.02 * full


class TestInvalidate:
    def test_invalidate_keeps_policy_consistent(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        cache = SetAssociativeCache(tiny_config, policy)
        addresses = addresses_for_set(tiny_config, 0, tiny_config.ways)
        for address in addresses:
            cache.access(address)
        cache.invalidate(addresses[0])
        # Subsequent misses must fill the freed way, then evict normally.
        more = addresses_for_set(tiny_config, 0, tiny_config.ways + 3)
        for address in more:
            cache.access(address)
        assert cache.sets[0].is_full()


class TestStoredTagRows:
    """Each real way's transformed tag is kept per set by on_fill, so a
    victim search never re-transforms the set."""

    @staticmethod
    def _counting_cache(config):
        calls = [0]

        def transform(tag):
            calls[0] += 1
            return tag & 0xF

        policy = AdaptivePolicy(
            config.num_sets, config.ways,
            [LRUPolicy(config.num_sets, config.ways),
             LFUPolicy(config.num_sets, config.ways)],
            tag_transform=transform,
        )
        return SetAssociativeCache(config, policy), calls

    def test_victim_calls_no_transform_once_row_exists(self, small_config):
        cache, calls = self._counting_cache(small_config)
        policy = cache.policy
        victim = policy.victim
        per_victim = []

        def counted_victim(set_index, set_view):
            had_row = policy._rows[set_index] is not None
            before = calls[0]
            way = victim(set_index, set_view)
            if had_row:
                per_victim.append(calls[0] - before)
            return way

        policy.victim = counted_victim
        rng = random.Random(3)
        for _ in range(6000):
            cache.access(rng.randrange(64 * 1024) * 64)
        assert len(per_victim) > 1000
        assert set(per_victim) == {0}
        assert policy.fallback_evictions > 0

    def test_rows_are_derived_state(self, small_config):
        cache, _ = self._counting_cache(small_config)
        rng = random.Random(5)
        for _ in range(3000):
            cache.access(rng.randrange(64 * 1024) * 64)
        policy = cache.policy
        assert any(row is not None for row in policy._rows)
        state = policy.state_dict()
        assert set(state) == {
            "components", "shadows", "selectors", "rng", "clock",
            "stamp", "decisions", "fallback_evictions",
        }
        policy.load_state_dict(state)
        assert policy._rows == [None] * small_config.num_sets

"""Unit tests for the SBAR-like set-sampling policy (Section 4.7)."""

import random

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.tag_array import identity_tag
from repro.core.adaptive import AdaptivePolicy
from repro.core.partial import PartialTagScheme
from repro.core.sbar import SbarPolicy, spread_leader_sets
from repro.experiments.base import build_l2_policy, make_setup
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.workloads.suite import build_workload
from tests.conftest import addresses_for_set


def make_sbar(config, num_leaders=4, **kwargs):
    resident = [
        LRUPolicy(config.num_sets, config.ways),
        LFUPolicy(config.num_sets, config.ways),
    ]
    shadow = [
        LRUPolicy(num_leaders, config.ways),
        LFUPolicy(num_leaders, config.ways),
    ]
    return SbarPolicy(
        config.num_sets, config.ways, resident, shadow,
        num_leaders=num_leaders, **kwargs,
    )


class TestLeaderSelection:
    def test_spread_even(self):
        assert spread_leader_sets(64, 4) == [0, 16, 32, 48]
        assert spread_leader_sets(8, 8) == list(range(8))

    def test_spread_validation(self):
        with pytest.raises(ValueError):
            spread_leader_sets(8, 0)
        with pytest.raises(ValueError):
            spread_leader_sets(8, 9)

    def test_leader_sets_property(self, small_config):
        """The spread sets evict through the leaders, every other set
        through the followers."""
        policy = make_sbar(small_config, num_leaders=4)
        cache = SetAssociativeCache(small_config, policy)
        leaders = []
        for set_index in range(small_config.num_sets):
            before = policy.leader_evictions
            for address in addresses_for_set(
                    small_config, set_index, small_config.ways + 1):
                cache.access(address)
            if policy.leader_evictions > before:
                leaders.append(set_index)
        assert leaders == [0, 16, 32, 48]


class TestConstruction:
    def test_needs_exactly_two(self, small_config):
        with pytest.raises(ValueError, match="exactly two"):
            SbarPolicy(
                small_config.num_sets, small_config.ways,
                [LRUPolicy(small_config.num_sets, small_config.ways)],
                [LRUPolicy(4, small_config.ways)],
                num_leaders=4,
            )

    def test_resident_geometry_checked(self, small_config):
        with pytest.raises(ValueError, match="full cache"):
            SbarPolicy(
                small_config.num_sets, small_config.ways,
                [LRUPolicy(4, small_config.ways),
                 LFUPolicy(4, small_config.ways)],
                [LRUPolicy(4, small_config.ways),
                 LFUPolicy(4, small_config.ways)],
                num_leaders=4,
            )

    def test_shadow_geometry_checked(self, small_config):
        with pytest.raises(ValueError, match="leader sets"):
            make_sbar_bad(small_config)

    def test_psel_bits_validated(self, small_config):
        with pytest.raises(ValueError, match="psel_bits"):
            make_sbar(small_config, psel_bits=1)


def make_sbar_bad(config):
    resident = [
        LRUPolicy(config.num_sets, config.ways),
        LFUPolicy(config.num_sets, config.ways),
    ]
    shadow = [
        LRUPolicy(config.num_sets, config.ways),  # wrong: full geometry
        LFUPolicy(config.num_sets, config.ways),
    ]
    return SbarPolicy(config.num_sets, config.ways, resident, shadow,
                      num_leaders=4)


class TestGlobalSelector:
    def test_selector_learns_lfu_pattern(self, small_config):
        """A scan+hot stream makes LRU miss more in the leader sets, so
        the selector must swing to LFU (component 1)."""
        from repro.workloads.synth import scan_with_hot

        policy = make_sbar(small_config, num_leaders=8)
        cache = SetAssociativeCache(small_config, policy)
        stream = scan_with_hot(
            int(0.4 * small_config.num_lines),
            8 * small_config.num_lines,
            25_000,
            seed=6,
        )
        for line in stream:
            cache.access(line * small_config.line_bytes)
        assert policy.selector.selected() == 1

    def test_selector_learns_lru_pattern(self, small_config):
        from repro.workloads.synth import drifting_working_set

        policy = make_sbar(small_config, num_leaders=8)
        cache = SetAssociativeCache(small_config, policy)
        stream = drifting_working_set(
            int(0.9 * small_config.num_lines), 25_000, 20.0, seed=7
        )
        for line in stream:
            cache.access(line * small_config.line_bytes)
        assert policy.selector.selected() == 0

    def test_psel_stays_bounded(self, small_config):
        policy = make_sbar(small_config, num_leaders=8, psel_bits=4)
        cache = SetAssociativeCache(small_config, policy)
        rng = random.Random(12)
        for _ in range(10_000):
            cache.access(rng.randrange(1 << 18))
            assert 0 <= policy.selector.value <= 15


class TestEffectiveness:
    def _misses(self, config, stream, policy):
        cache = SetAssociativeCache(config, policy)
        for line in stream:
            cache.access(line * config.line_bytes)
        return cache.stats.misses

    def test_beats_lru_on_lfu_friendly(self, small_config):
        from repro.workloads.synth import scan_with_hot

        stream = scan_with_hot(
            int(0.4 * small_config.num_lines),
            8 * small_config.num_lines,
            30_000,
            seed=9,
        )
        sbar = self._misses(small_config, stream,
                            make_sbar(small_config, num_leaders=8))
        lru = self._misses(
            small_config, stream,
            LRUPolicy(small_config.num_sets, small_config.ways),
        )
        assert sbar < lru

    def test_tracks_lru_on_lru_friendly(self, small_config):
        from repro.workloads.synth import drifting_working_set

        stream = drifting_working_set(
            int(0.9 * small_config.num_lines), 30_000, 20.0, seed=10
        )
        sbar = self._misses(small_config, stream,
                            make_sbar(small_config, num_leaders=8))
        lru = self._misses(
            small_config, stream,
            LRUPolicy(small_config.num_sets, small_config.ways),
        )
        assert sbar <= 1.25 * lru

    def test_partial_tag_leaders(self, small_config):
        """Section 4.7: partial tags in the leaders barely change the
        outcome (0.09% overhead configuration)."""
        from repro.workloads.synth import scan_with_hot

        stream = scan_with_hot(
            int(0.4 * small_config.num_lines),
            8 * small_config.num_lines,
            20_000,
            seed=11,
        )
        full = self._misses(
            small_config, stream,
            build_l2_policy(small_config, "sbar", ("lru", "lfu"),
                            num_leaders=8),
        )
        partial = self._misses(
            small_config, stream,
            build_l2_policy(small_config, "sbar", ("lru", "lfu"),
                            num_leaders=8, partial_bits=8),
        )
        assert abs(partial - full) <= 0.05 * full


class TestLeadersAreAlgorithm1:
    """With every set a leader, SBAR *is* the adaptive policy: the same
    per-access hits and evictions as :class:`AdaptivePolicy` over the
    same components and tags."""

    @pytest.mark.parametrize("partial_bits", [None, 3, 8])
    @pytest.mark.parametrize("workload", ["ammp", "art-1", "mcf", "unepic"])
    def test_all_leader_sbar_matches_adaptive(self, workload, partial_bits):
        config = make_setup("mini", accesses=4000).l2
        addresses, writes = build_workload(
            workload, config, accesses=4000
        ).memory_stream()
        sets, ways = config.num_sets, config.ways
        transform = PartialTagScheme(partial_bits) if partial_bits else identity_tag

        sbar = SbarPolicy(
            sets, ways,
            [LRUPolicy(sets, ways), LFUPolicy(sets, ways)],
            [LRUPolicy(sets, ways), LFUPolicy(sets, ways)],
            num_leaders=sets, tag_transform=transform,
        )
        adaptive = AdaptivePolicy(
            sets, ways, [LRUPolicy(sets, ways), LFUPolicy(sets, ways)],
            tag_transform=transform,
        )
        streams = []
        for policy in (sbar, adaptive):
            cache = SetAssociativeCache(config, policy)
            streams.append([
                (result.hit, result.evicted_tag)
                for result in map(cache.access, map(int, addresses),
                                  map(bool, writes))
            ])
        assert streams[0] == streams[1]
        assert sbar.follower_evictions == 0
        assert sbar.leader_evictions > 0
        assert sbar.fallback_evictions == adaptive.fallback_evictions

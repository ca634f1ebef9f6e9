"""Unit tests for the fault injector and its narrow mutation hooks."""

import random

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.tag_array import TagArray
from repro.core.history import (
    BitVectorHistory,
    CounterHistory,
    SaturatingCounterHistory,
)
from repro.core.multi import make_adaptive
from repro.core.sbar import SbarPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.utils.rng import DeterministicRNG


def make_sbar(config, num_leaders=4):
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
        num_leaders=num_leaders,
    )


def drive(config, policy, length=3000, universe=400, seed=1):
    """Simulate a random block stream; return the cache for its stats."""
    cache = SetAssociativeCache(config, policy)
    rng = random.Random(seed)
    for _ in range(length):
        cache.access(rng.randrange(universe) * config.line_bytes)
    return cache


class TestArming:
    def test_arm_registers_and_returns_self(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        injector = FaultInjector(FaultPlan.uniform(0.5))
        assert injector.arm(policy) is injector
        assert policy.fault_injector is injector

    def test_double_arm_rejected(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        injector = FaultInjector(FaultPlan.uniform(0.5)).arm(policy)
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm(policy)


    def test_plain_policy_rejected(self, tiny_config):
        lru = LRUPolicy(tiny_config.num_sets, tiny_config.ways)
        with pytest.raises(TypeError, match="no"):
            FaultInjector(FaultPlan.uniform(0.5)).arm(lru)


class TestInjection:
    def test_faults_land_on_adaptive(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        injector = FaultInjector(FaultPlan.uniform(1.0)).arm(policy)
        cache = drive(tiny_config, policy, length=500)
        log = injector.log
        assert log.accesses == cache.stats.accesses == 500
        assert log.shadow_tag_flips > 0
        assert log.history_scrambles > 0
        # Plain adaptive has no selector: those events are inapplicable.
        assert log.selector_writes == 0
        assert log.inapplicable > 0

    def test_faults_land_on_sbar_selector(self, tiny_config):
        policy = make_sbar(tiny_config)
        injector = FaultInjector(FaultPlan.uniform(1.0)).arm(policy)
        drive(tiny_config, policy, length=500)
        assert injector.log.selector_writes > 0
        assert injector.log.inapplicable == 0

    def test_sbar_ticks_on_follower_accesses(self, tiny_config):
        policy = make_sbar(tiny_config, num_leaders=1)
        injector = FaultInjector(FaultPlan.uniform(0.0)).arm(policy)
        cache = drive(tiny_config, policy, length=400)
        # Every access ticks the injector, leader or follower.
        assert injector.log.accesses == cache.stats.accesses

    def test_stats_stay_consistent_under_total_fault_rate(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        FaultInjector(FaultPlan.uniform(1.0)).arm(policy)
        cache = drive(tiny_config, policy, length=2000)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.evictions <= stats.misses

    def test_armed_quiet_is_bit_identical(self, small_config):
        baseline = make_adaptive(small_config.num_sets, small_config.ways)
        unfaulted = drive(small_config, baseline)

        armed = make_adaptive(small_config.num_sets, small_config.ways)
        injector = FaultInjector(FaultPlan.uniform(0.0)).arm(armed)
        faulted = drive(small_config, armed)

        assert faulted.stats.misses == unfaulted.stats.misses
        assert faulted.stats.hits == unfaulted.stats.hits
        assert injector.log.injected() == 0

    def test_history_clear_mode(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        plan = FaultPlan(specs=[FaultSpec("history", 1.0, mode="clear")])
        injector = FaultInjector(plan).arm(policy)
        drive(tiny_config, policy, length=300)
        assert injector.log.history_clears == 300
        assert injector.log.history_scrambles == 0

    def test_window_limits_injection(self, tiny_config):
        policy = make_adaptive(tiny_config.num_sets, tiny_config.ways)
        plan = FaultPlan(specs=[
            FaultSpec("history", 1.0, start=100, stop=150, mode="clear")
        ])
        injector = FaultInjector(plan).arm(policy)
        drive(tiny_config, policy, length=300)
        assert injector.log.history_clears == 50


class TestCorruptStored:
    def make_array(self, sets=4, ways=4):
        return TagArray(sets, ways, LRUPolicy(sets, ways))

    def test_flip_resident_tag(self):
        array = self.make_array()
        array.lookup_stored(0, 5, False)
        assert array.corrupt_stored(0, 5, 7)
        assert not array.contains_stored(0, 5)
        assert array.contains_stored(0, 7)

    def test_absent_tag_is_noop(self):
        array = self.make_array()
        array.lookup_stored(0, 5, False)
        assert not array.corrupt_stored(0, 9, 11)
        assert array.contains_stored(0, 5)

    def test_identical_tag_is_noop(self):
        array = self.make_array()
        array.lookup_stored(0, 5, False)
        assert not array.corrupt_stored(0, 5, 5)
        assert array.contains_stored(0, 5)

    def test_collision_drops_block(self):
        array = self.make_array()
        array.lookup_stored(0, 5, False)
        array.lookup_stored(0, 7, False)
        assert array.corrupt_stored(0, 5, 7)
        # The aliased duplicate is dropped, not stored twice.
        assert array.resident_tags(0).count(7) == 1
        assert not array.contains_stored(0, 5)


class TestHistoryHooks:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: CounterHistory(2),
            lambda: SaturatingCounterHistory(2, bits=3),
            lambda: BitVectorHistory(2, window=4),
        ],
    )
    def test_clear_forgets_everything(self, factory):
        history = factory()
        for _ in range(5):
            history.record([True, False])
        assert history.misses(0) > 0
        history.clear()
        assert history.misses(0) == 0
        assert history.misses(1) == 0
        assert history.best_component() == 0

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: CounterHistory(2),
            lambda: SaturatingCounterHistory(2, bits=3),
            lambda: BitVectorHistory(2, window=4),
        ],
    )
    def test_scramble_keeps_invariants(self, factory):
        history = factory()
        for _ in range(3):
            history.record([False, True])
        history.scramble(DeterministicRNG(7))
        # Scrambled state is still a valid history: scores are
        # non-negative and best_component() resolves.
        assert history.misses(0) >= 0
        assert history.misses(1) >= 0
        assert history.best_component() in (0, 1)
        # And it keeps recording normally afterwards.
        assert history.record([True, False])


class TestSelectorHook:
    def test_set_selector_clamps(self, tiny_config):
        policy = make_sbar(tiny_config)
        policy.set_selector(10**9)
        assert policy.selected_component() == 1
        policy.set_selector(-5)
        assert policy.selected_component() == 0
        policy.set_selector(policy.selector_max)
        assert policy.selected_component() == 1

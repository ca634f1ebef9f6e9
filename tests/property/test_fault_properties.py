"""Property-based tests: fault injection cannot break the adaptive cache.

The paper's robustness argument (Section 3.2) is structural — the
adaptive machinery's auxiliary state is performance-only — so it must
hold for *every* access stream and *every* fault rate, not just the
sampled ones in the ext-faults experiment. Hypothesis searches for a
counterexample: a stream/rate pair where selection stops terminating or
the cache's statistics go inconsistent.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.history import (
    BitVectorHistory,
    CounterHistory,
    SaturatingCounterHistory,
)
from repro.core.multi import make_adaptive
from repro.faults import ALL_SITES, FaultInjector, FaultPlan, FaultSpec
from tests import strategies

pytestmark = pytest.mark.faults

CONFIG = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64)  # 8 sets

block_streams = strategies.block_streams(max_block=200, max_size=300)

fault_rates = strategies.fault_rates()

history_factories = st.sampled_from([
    lambda n: BitVectorHistory(n, window=CONFIG.ways),
    lambda n: CounterHistory(n),
    lambda n: SaturatingCounterHistory(n, bits=3),
])

history_modes = st.sampled_from(["scramble", "clear"])


def run_blocks(cache, blocks):
    for block in blocks:
        cache.access(block << CONFIG.offset_bits)


class TestFaultedAdaptiveInvariants:
    @given(
        blocks=block_streams,
        rate=fault_rates,
        factory=history_factories,
        mode=history_modes,
        seed=strategies.seeds(),
    )
    @settings(max_examples=60, deadline=None)
    def test_terminates_with_consistent_stats(
        self, blocks, rate, factory, mode, seed
    ):
        policy = make_adaptive(
            CONFIG.num_sets, CONFIG.ways, history_factory=factory
        )
        plan = FaultPlan(
            specs=[FaultSpec(site, rate, mode=mode) for site in ALL_SITES],
            seed=seed,
        )
        injector = FaultInjector(plan).arm(policy)
        cache = SetAssociativeCache(CONFIG, policy)
        run_blocks(cache, blocks)  # termination is the first property

        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(blocks)
        assert sum(stats.per_set_misses) == stats.misses
        assert stats.evictions <= stats.misses
        assert injector.log.accesses == len(blocks)
        if rate == 0.0:
            assert injector.log.injected() == 0

    @given(
        blocks=block_streams,
        rate=fault_rates,
        factory=history_factories,
        seed=strategies.seeds(),
    )
    @settings(max_examples=40, deadline=None)
    def test_selection_stays_in_range(self, blocks, rate, factory, seed):
        policy = make_adaptive(
            CONFIG.num_sets, CONFIG.ways, history_factory=factory
        )
        FaultInjector(FaultPlan.uniform(rate, seed=seed)).arm(policy)
        cache = SetAssociativeCache(CONFIG, policy)
        run_blocks(cache, blocks)
        # However scrambled the histories got, selection still resolves
        # to a legal component for every set.
        for history in policy.histories:
            assert history.best_component() in (0, 1)
            assert all(history.misses(c) >= 0 for c in (0, 1))

    @given(blocks=block_streams, seed=strategies.seeds(max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_armed_quiet_never_changes_behavior(self, blocks, seed):
        plain = make_adaptive(CONFIG.num_sets, CONFIG.ways)
        unfaulted = SetAssociativeCache(CONFIG, plain)
        run_blocks(unfaulted, blocks)

        armed = make_adaptive(CONFIG.num_sets, CONFIG.ways)
        FaultInjector(FaultPlan.uniform(0.0, seed=seed)).arm(armed)
        faulted = SetAssociativeCache(CONFIG, armed)
        run_blocks(faulted, blocks)

        assert faulted.stats.misses == unfaulted.stats.misses
        assert faulted.stats.hits == unfaulted.stats.hits

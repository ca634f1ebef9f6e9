"""Property-based tests for the prefetch engine and hybrid selector."""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.policies.lru import LRUPolicy
from repro.prefetch.engine import PrefetchingCache
from repro.prefetch.hybrid import AdaptiveHybridPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.stride import StridePrefetcher
from tests import strategies

CONFIG = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64)

block_streams = strategies.block_streams(max_block=300, max_size=300)


def make_engine(prefetcher, budget=4):
    cache = SetAssociativeCache(
        CONFIG, LRUPolicy(CONFIG.num_sets, CONFIG.ways)
    )
    engine = PrefetchingCache(cache, prefetcher)
    engine.degree_budget = budget
    return engine


class TestEngineInvariants:
    @given(blocks=block_streams,
           degree=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_prefetch_accounting_balances(self, blocks, degree):
        """useful + useless + still-pending == issued, always."""
        engine = make_engine(NextLinePrefetcher(degree=degree))
        for block in blocks:
            engine.access(block << CONFIG.offset_bits)
        stats = engine.stats
        assert stats.useful + stats.useless + len(engine._pending) \
            == stats.issued
        assert stats.demand_hits + stats.demand_misses == \
            stats.demand_accesses

    @given(blocks=block_streams)
    @settings(max_examples=25, deadline=None)
    def test_structure_preserved_with_prefetching(self, blocks):
        hybrid = AdaptiveHybridPrefetcher(
            [NextLinePrefetcher(degree=2), StridePrefetcher()]
        )
        hybrid.probation = 16
        engine = make_engine(hybrid)
        for block in blocks:
            engine.access(block << CONFIG.offset_bits)
        for cache_set in engine.cache.sets:
            assert cache_set.occupancy() <= CONFIG.ways

    @given(blocks=block_streams)
    @settings(max_examples=20, deadline=None)
    def test_demand_results_unaffected_by_budget_zero_equivalent(self, blocks):
        """A prefetcher that proposes nothing leaves the demand stream
        exactly as an unwrapped cache would see it."""

        class Silent(NextLinePrefetcher):
            def observe(self, block, was_hit):
                return []

        engine = make_engine(Silent())
        plain = SetAssociativeCache(
            CONFIG, LRUPolicy(CONFIG.num_sets, CONFIG.ways)
        )
        for block in blocks:
            address = block << CONFIG.offset_bits
            wrapped = engine.access(address)
            bare = plain.access(address)
            assert wrapped.hit == bare.hit
        assert engine.stats.demand_misses == plain.stats.misses


class TestHybridSelectorProperties:
    outcomes = st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.booleans()),
        min_size=1, max_size=200,
    )

    @given(outcomes=outcomes)
    @settings(max_examples=50, deadline=None)
    def test_selector_always_valid(self, outcomes):
        from repro.prefetch.base import Prefetcher, PrefetchRequest

        class Named(Prefetcher):
            def __init__(self, name):
                self.name = name

            def observe(self, block, was_hit):
                return [PrefetchRequest(block + 1, self.name)]

        hybrid = AdaptiveHybridPrefetcher([Named("a"), Named("b")])
        hybrid.probation = 0
        for source, useful in outcomes:
            hybrid.record_outcome(PrefetchRequest(0, source), useful)
            assert hybrid.selected_component() in (0, 1)
        requests = hybrid.observe(10, False)
        assert len(requests) == 1

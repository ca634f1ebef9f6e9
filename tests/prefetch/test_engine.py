"""Unit tests for the prefetch issuing engine."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.policies.lru import LRUPolicy
from repro.prefetch.base import Prefetcher
from repro.prefetch.engine import PrefetchingCache, PrefetchStats
from repro.prefetch.hybrid import AdaptiveHybridPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher


def make_engine(config, prefetcher, budget=4):
    cache = SetAssociativeCache(
        config, LRUPolicy(config.num_sets, config.ways)
    )
    engine = PrefetchingCache(cache, prefetcher)
    engine.degree_budget = budget
    return engine


class SilentPrefetcher(Prefetcher):
    name = "silent"

    def observe(self, block, was_hit):
        return []


class TestDemandStats:
    def test_demand_counts(self, tiny_config):
        engine = make_engine(tiny_config, SilentPrefetcher())
        engine.access(0x1000)
        engine.access(0x1000)
        assert engine.stats.demand_accesses == 2
        assert engine.stats.demand_misses == 1
        assert engine.stats.demand_hits == 1

    def test_mpki(self):
        stats = PrefetchStats(demand_misses=10)
        assert stats.mpki(1000) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            stats.mpki(0)


class TestIssuing:
    def test_prefetch_installs_line(self, tiny_config):
        engine = make_engine(tiny_config, NextLinePrefetcher(degree=1))
        engine.access(0x1000)  # miss; prefetch 0x1040
        assert engine.stats.issued == 1
        assert engine.cache.contains(0x1040)

    def test_resident_lines_not_reissued(self, tiny_config):
        engine = make_engine(tiny_config, NextLinePrefetcher(degree=1))
        engine.access(0x1000)
        engine.access(0x2000)
        issued_before = engine.stats.issued
        engine.access(0x1FC0)  # miss; next line 0x2000 already resident
        assert engine.stats.issued == issued_before

    def test_budget_respected(self, tiny_config):
        engine = make_engine(tiny_config, NextLinePrefetcher(degree=8),
                             budget=2)
        engine.access(0x1000)
        assert engine.stats.issued == 2


class TestUsefulness:
    def test_useful_prefetch(self, tiny_config):
        engine = make_engine(tiny_config, NextLinePrefetcher(degree=1))
        engine.access(0x1000)   # prefetches 0x1040
        result = engine.access(0x1040)
        assert result.hit
        assert engine.stats.useful == 1
        assert engine.stats.useless == 0
        assert not engine._pending

    def test_useless_prefetch_detected_on_eviction(self, tiny_config):
        engine = make_engine(tiny_config, NextLinePrefetcher(degree=1),
                             budget=1)
        engine.access(0x1000)  # prefetches the next line
        # Flood the prefetched line's set with demand traffic until the
        # prefetched line is evicted untouched.
        target_set = tiny_config.set_index(0x1040)
        for tag in range(100, 100 + 2 * tiny_config.ways):
            address = tiny_config.rebuild_address(tag, target_set)
            engine.access(address)
        assert engine.stats.useless >= 1

    def test_accuracy(self):
        stats = PrefetchStats(demand_misses=8, useful=2, useless=2)
        assert stats.accuracy == pytest.approx(0.5)

    def test_accuracy_empty(self):
        assert PrefetchStats().accuracy == 0.0


class TestHybridFeedback:
    def test_duplicate_component_names_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unique"):
            AdaptiveHybridPrefetcher(
                [NextLinePrefetcher(degree=1), NextLinePrefetcher(degree=2)]
            )

    def test_outcomes_update_history(self, tiny_config):
        class Named(NextLinePrefetcher):
            def __init__(self, name, degree):
                super().__init__(degree)
                self.name = name

        hybrid = AdaptiveHybridPrefetcher([Named("n1", 1), Named("n2", 1)])
        hybrid.probation = 0
        engine = make_engine(tiny_config, hybrid)
        engine.access(0x1000)   # n1 (selected) prefetches 0x1040
        engine.access(0x1040)   # useful
        assert hybrid.history.misses(1) == 1  # "everyone else missed"
        assert hybrid.history.misses(0) == 0


class TestReduction:
    def test_prefetching_cuts_demand_misses_on_stream(self, small_config):
        silent = make_engine(small_config, SilentPrefetcher())
        prefetching = make_engine(small_config, NextLinePrefetcher(degree=2))
        for line in range(4000):
            address = line * small_config.line_bytes
            silent.access(address)
            prefetching.access(address)
        assert prefetching.stats.demand_misses < \
            0.5 * silent.stats.demand_misses

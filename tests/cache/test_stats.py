"""Unit tests for CacheStats."""

import pytest

from repro.cache.stats import CacheStats


class TestRatios:
    def test_empty_stats(self):
        stats = CacheStats()
        assert stats.miss_ratio == 0.0
        assert stats.hit_ratio == 0.0

    def test_ratios(self):
        stats = CacheStats(accesses=10, hits=7, misses=3)
        assert stats.miss_ratio == pytest.approx(0.3)
        assert stats.hit_ratio == pytest.approx(0.7)


class TestMpki:
    def test_mpki(self):
        stats = CacheStats(misses=50)
        assert stats.mpki(10_000) == pytest.approx(5.0)

    def test_mpki_rejects_nonpositive_instructions(self):
        with pytest.raises(ValueError):
            CacheStats(misses=1).mpki(0)


class TestReset:
    def test_reset_zeros_everything(self):
        stats = CacheStats(
            accesses=5, hits=3, misses=2, evictions=1, writebacks=1,
            per_set_misses=[1, 1, 0, 0],
        )
        stats.reset()
        assert stats.accesses == 0
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.evictions == 0
        assert stats.writebacks == 0
        assert stats.per_set_misses == [0, 0, 0, 0]

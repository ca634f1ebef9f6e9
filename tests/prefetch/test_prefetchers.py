"""Unit tests for the component prefetchers."""

import pytest

from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.stride import StridePrefetcher


class TestNextLine:
    def test_prefetches_on_miss(self):
        prefetcher = NextLinePrefetcher(degree=2)
        requests = prefetcher.observe(100, was_hit=False)
        assert [r.block for r in requests] == [101, 102]
        assert all(r.source == "nextline" for r in requests)

    def test_silent_on_hit_by_default(self):
        prefetcher = NextLinePrefetcher(degree=2)
        assert prefetcher.observe(100, was_hit=True) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)


def make_stride(**settings):
    """A stride prefetcher with some of its constants overridden."""
    prefetcher = StridePrefetcher()
    for name, value in settings.items():
        setattr(prefetcher, name, value)
    return prefetcher


class TestStride:
    def test_learns_positive_stride(self):
        prefetcher = StridePrefetcher()
        blocks = [100, 104, 108, 112]
        requests = []
        for block in blocks:
            requests = prefetcher.observe(block, was_hit=False)
        assert [r.block for r in requests] == [116, 120]

    def test_learns_negative_stride(self):
        prefetcher = StridePrefetcher()
        requests = []
        for block in (200, 197, 194, 191):
            requests = prefetcher.observe(block, was_hit=False)
        assert [r.block for r in requests] == [188, 185]

    def test_needs_confidence(self):
        prefetcher = StridePrefetcher()
        assert prefetcher.observe(10, False) == []  # allocate
        assert prefetcher.observe(14, False) == []  # first delta: conf 1
        assert prefetcher.observe(18, False) != []  # conf 2: fires

    def test_stride_change_resets_confidence(self):
        prefetcher = StridePrefetcher()
        for block in (10, 14, 18):  # trained on +4
            prefetcher.observe(block, False)
        assert prefetcher.observe(19, False) == []  # +1: retrain
        assert prefetcher.observe(20, False) != []  # +1 confirmed

    def test_zero_delta_ignored(self):
        prefetcher = make_stride(confidence_threshold=1)
        prefetcher.observe(10, False)
        assert prefetcher.observe(10, False) == []

    def test_regions_independent(self):
        prefetcher = StridePrefetcher()
        # Interleave two regions with different strides.
        a = [0, 2, 4, 6]
        b = [1000, 1003, 1006, 1009]
        requests_a = requests_b = []
        for x, y in zip(a, b):
            requests_a = prefetcher.observe(x, False)
            requests_b = prefetcher.observe(y, False)
        assert [r.block for r in requests_a] == [8, 10]
        assert [r.block for r in requests_b] == [1012, 1015]

    def test_table_capacity_evicts_lru_region(self):
        prefetcher = make_stride(region_bits=4, table_entries=2)
        prefetcher.observe(0, False)      # region 0
        prefetcher.observe(100, False)    # region 6
        prefetcher.observe(200, False)    # region 12: evicts region 0
        assert len(prefetcher._table) == 2
        assert 0 not in prefetcher._table

    def test_never_proposes_negative_blocks(self):
        prefetcher = make_stride(degree=4)
        for block in (9, 6, 3, 0):
            requests = prefetcher.observe(block, False)
        assert all(r.block >= 0 for r in requests)

    def test_reset(self):
        prefetcher = StridePrefetcher()
        prefetcher.observe(10, False)
        prefetcher.reset()
        assert prefetcher._table == {}

"""Timing-model tests focused on the write path (stores + writebacks)."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cpu.config import ProcessorConfig
from repro.cpu.timing import (
    L2_LOAD,
    L2_STORE,
    L2_WRITEBACK,
    CompiledWorkload,
    simulate,
)
from repro.policies.lru import LRUPolicy
from tests.cpu import l2_columns


@pytest.fixture
def processor():
    l1 = CacheConfig(size_bytes=1024, ways=4, line_bytes=64, hit_latency=2)
    l2 = CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64,
                     hit_latency=15)
    return ProcessorConfig(l1d=l1, l1i=l1, l2=l2)


def l2_cache(processor):
    config = processor.l2
    return SetAssociativeCache(config, LRUPolicy(config.num_sets, config.ways))


class TestWritePath:
    def test_store_hits_cheap_misses_expensive(self, processor):
        hits = CompiledWorkload(
            name="h", instructions=1000,
            **l2_columns([(50, L2_STORE, 0x1000)] * 40),
        )
        misses = CompiledWorkload(
            name="m", instructions=1000,
            **l2_columns([(50, L2_STORE, i * 0x10000) for i in range(40)]),
        )
        cheap = simulate(hits, l2_cache(processor), processor)
        costly = simulate(misses, l2_cache(processor), processor)
        assert costly.breakdown["store_stall"] >= \
            cheap.breakdown["store_stall"]
        assert costly.l2_misses > cheap.l2_misses

    def test_writebacks_are_not_instructions(self, processor):
        with_wb = CompiledWorkload(
            name="wb", instructions=1000,
            **l2_columns([(10, L2_LOAD, 0x1000), (0, L2_WRITEBACK, 0x2000)]),
            tail_instructions=989,
        )
        result = simulate(with_wb, l2_cache(processor), processor)
        # 10 gap + 1 load instruction + 989 tail = 1000; the writeback
        # adds no instruction, only (possible) store-buffer pressure.
        assert result.instructions == 1000
        assert result.l2_accesses == 2

    def test_writeback_dirties_l2(self, processor):
        cache = l2_cache(processor)
        compiled = CompiledWorkload(
            name="wb", instructions=100,
            **l2_columns([(0, L2_WRITEBACK, 0x3000)]),
        )
        simulate(compiled, cache, processor)
        config = processor.l2
        way = cache.sets[config.set_index(0x3000)].find(config.tag(0x3000))
        assert way is not None
        assert cache.sets[config.set_index(0x3000)].state_dict()["dirty"][way]

    def test_writeback_burst_backpressure(self, processor):
        """A burst of miss-bound writebacks with a tiny buffer stalls
        the core; the same burst through a large buffer does not."""
        burst = [(0, L2_WRITEBACK, i * 0x10000) for i in range(30)]
        compiled = CompiledWorkload(
            name="burst", instructions=500, **l2_columns(burst),
            tail_instructions=500,
        )
        small = simulate(
            compiled, l2_cache(processor),
            processor.scaled(store_buffer_entries=2),
        )
        large = simulate(
            compiled, l2_cache(processor),
            processor.scaled(store_buffer_entries=64),
        )
        assert small.breakdown["store_stall"] > 0
        assert large.breakdown["store_stall"] == 0
        assert small.cycles > large.cycles

    def test_write_combining_repeated_line(self, processor):
        """Back-to-back writebacks of one line combine into one entry,
        so even a 1-entry buffer does not stall on them."""
        same_line = [(0, L2_WRITEBACK, 0x4000)] * 20
        compiled = CompiledWorkload(
            name="combine", instructions=100, **l2_columns(same_line),
        )
        result = simulate(
            compiled, l2_cache(processor),
            processor.scaled(store_buffer_entries=1),
        )
        assert result.breakdown["store_stall"] == 0

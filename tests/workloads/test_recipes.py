"""Tests for the suite's composite recipes (ammp, mgrid, art, dither)."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.multi import make_adaptive
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.workloads.suite import (
    ammp_recipe,
    art_recipe,
    chase_recipe,
    dither_recipe,
    drift_recipe,
    gcc1_recipe,
    mgrid_recipe,
    resident_recipe,
    scan_hot_recipe,
    stride_recipe,
    zipf_recipe,
)


@pytest.fixture(scope="module")
def config():
    return CacheConfig(size_bytes=16 * 1024, ways=8, line_bytes=64)


def simulate_stream(config, stream, policy):
    cache = SetAssociativeCache(config, policy)
    for line in stream:
        cache.access(line * config.line_bytes)
    return cache


class TestCompositeRecipes:
    @pytest.mark.parametrize(
        "recipe", [ammp_recipe, mgrid_recipe, art_recipe, gcc1_recipe]
    )
    def test_length_and_determinism(self, config, recipe):
        a = recipe(config, 5000, 42)
        b = recipe(config, 5000, 42)
        assert len(a) == 5000
        assert a == b
        assert recipe(config, 5000, 43) != a

    def test_ammp_spatial_phase(self, config):
        """ammp's first third must touch both set halves with different
        patterns (the Figure 7a spatial structure)."""
        stream = ammp_recipe(config, 9000, 7)
        first_third = stream[:3000]
        low_half = [line for line in first_third
                    if line % config.num_sets < config.num_sets // 2]
        high_half = [line for line in first_third
                     if line % config.num_sets >= config.num_sets // 2]
        assert len(low_half) > 500
        assert len(high_half) > 500

    def test_ammp_ends_lru_friendly(self, config):
        """ammp's final phase is a drifting working set: on that
        segment alone, LRU must beat LFU."""
        stream = ammp_recipe(config, 18000, 7)
        tail = stream[12000:]
        lru = simulate_stream(config, tail,
                              LRUPolicy(config.num_sets, config.ways))
        lfu = simulate_stream(config, tail,
                              LFUPolicy(config.num_sets, config.ways))
        assert lru.stats.misses < lfu.stats.misses


class TestRecipeFactories:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: drift_recipe(0.8),
            lambda: zipf_recipe(2.0),
            lambda: scan_hot_recipe(0.3),
            lambda: chase_recipe(1.5),
            lambda: stride_recipe(1.6, 5),
            lambda: resident_recipe(0.4),
        ],
    )
    def test_factory_recipes_produce_streams(self, config, factory):
        recipe = factory()
        stream = recipe(config, 2000, 9)
        assert len(stream) == 2000
        assert all(isinstance(line, int) and line >= 0 for line in stream)

    def test_stride_recipe_coprime_nudge(self, config):
        """A stride dividing the nominal footprint must not collapse
        coverage (the wupwise bug)."""
        stream = stride_recipe(1.5, 3)(config, 5000, 0)
        # 1.5 x 256 = 384 is divisible by 3; the nudge makes the sweep
        # cover (essentially) the whole footprint anyway.
        assert len(set(stream)) > 1.2 * config.num_lines

    def test_resident_recipe_fits(self, config):
        stream = resident_recipe(0.4)(config, 5000, 1)
        assert len(set(stream)) <= 0.5 * config.num_lines


class TestDitherRecipe:
    def test_loop_cursor_advances(self, config):
        """The loop must cycle its full footprint across phases, not
        restart — otherwise the 'loop' never leaves the cache."""
        recipe = dither_recipe(1.25, 0.3, 3.0)
        stream = recipe(config, 12000, 11)
        loop_lines = [line for line in stream
                      if line < 2 * config.num_lines]
        # The loop footprint is 1.25x capacity; the cursor must have
        # covered essentially all of it.
        assert len(set(loop_lines)) > 1.0 * config.num_lines

    def test_loop_and_hot_phases_split_evenly(self, config):
        # A tiny, slow-drifting hot set stays below line 64 while the
        # loop sweeps 0..320, so high lines identify loop accesses.
        stream = dither_recipe(1.25, 0.05, 3.0)(config, 8000, 3)
        loop_share = sum(1 for line in stream if line > 64) / len(stream)
        assert 0.35 < loop_share < 0.5

    def test_dither_penalizes_adaptivity_slightly(self, config):
        """The suite's unepic/tigr behaviour: adaptive ends within a
        few percent of the better component but (slightly) above it."""
        stream = dither_recipe(1.25, 0.3, 3.0)(config, 24000, 5)
        lru = simulate_stream(config, stream,
                              LRUPolicy(config.num_sets, config.ways))
        lfu = simulate_stream(config, stream,
                              LFUPolicy(config.num_sets, config.ways))
        adaptive = simulate_stream(
            config, stream, make_adaptive(config.num_sets, config.ways)
        )
        best = min(lru.stats.misses, lfu.stats.misses)
        assert adaptive.stats.misses >= best  # the dither costs something
        assert adaptive.stats.misses <= 1.1 * best  # but stays bounded

"""Unit tests for per-set policy-choice maps (Figure 7 machinery)."""

import pytest

from repro.analysis.setmap import NO_DECISION, SetMap, collect_setmap
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.multi import make_adaptive
from repro.policies.lru import LRUPolicy
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.synth import drifting_working_set, scan_with_hot
from repro.workloads.phases import concat_phases


@pytest.fixture
def map_config():
    return CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64)


def make_trace(config, name="phase-trace"):
    """LFU-friendly first half, LRU-friendly second half."""
    stream = concat_phases(
        scan_with_hot(int(0.4 * config.num_lines), 6 * config.num_lines,
                      8000, seed=1),
        drifting_working_set(int(0.9 * config.num_lines), 8000, 25.0, seed=2),
    )
    builder = WorkloadBuilder(seed=3, branches=None,
                              line_bytes=config.line_bytes)
    return builder.build(name, stream)


class TestCollect:
    def test_requires_adaptive_policy(self, map_config):
        cache = SetAssociativeCache(
            map_config, LRUPolicy(map_config.num_sets, map_config.ways)
        )
        with pytest.raises(TypeError, match="AdaptivePolicy"):
            collect_setmap(make_trace(map_config), cache)

    def test_dimensions(self, map_config):
        policy = make_adaptive(map_config.num_sets, map_config.ways)
        cache = SetAssociativeCache(map_config, policy)
        setmap = collect_setmap(make_trace(map_config), cache,
                                sample_every=2000)
        assert setmap.num_sets == map_config.num_sets
        assert setmap.num_samples == 8  # 16000 refs / 2000
        assert setmap.component_names == ["lru", "lfu"]

    def test_phase_transition_visible(self, map_config):
        """First-half quanta must be LFU-heavy, last quanta LRU-heavy."""
        policy = make_adaptive(map_config.num_sets, map_config.ways)
        cache = SetAssociativeCache(map_config, policy)
        setmap = collect_setmap(make_trace(map_config), cache,
                                sample_every=2000)
        early_lfu = setmap.component_fraction(1, sample=1)
        late_lfu = setmap.component_fraction(1, sample=setmap.num_samples - 1)
        assert early_lfu > 0.5
        assert late_lfu < 0.5

    def test_sample_every_validated(self, map_config):
        policy = make_adaptive(map_config.num_sets, map_config.ways)
        cache = SetAssociativeCache(map_config, policy)
        with pytest.raises(ValueError):
            collect_setmap(make_trace(map_config), cache, sample_every=0)


class TestSetMapRendering:
    def test_render(self):
        setmap = SetMap(
            component_names=["lru", "lfu"],
            cells=[[0, 1, NO_DECISION], [1, 1, 0]],
        )
        text = setmap.render()
        assert text.splitlines() == ["#. ", "..#"]

    def test_render_needs_enough_glyphs(self):
        setmap = SetMap(
            component_names=["a", "b", "c", "d", "e", "f"],
            cells=[[0, 1, 5]],
        )
        with pytest.raises(ValueError):
            setmap.render()

    def test_component_fraction(self):
        setmap = SetMap(
            component_names=["lru", "lfu"],
            cells=[[0, 1], [1, NO_DECISION]],
        )
        assert setmap.component_fraction(1) == pytest.approx(2 / 3)
        assert setmap.component_fraction(1, sample=0) == pytest.approx(0.5)
        assert setmap.component_fraction(0, sample=1) == pytest.approx(0.0)

    def test_fraction_empty_map(self):
        setmap = SetMap(component_names=["a", "b"],
                        cells=[[NO_DECISION, NO_DECISION]])
        assert setmap.component_fraction(0) == 0.0

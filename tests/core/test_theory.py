"""Unit tests for the empirical theory checker (Appendix 2x bound)."""

import random

import pytest

from repro.cache.config import CacheConfig
from repro.core.theory import BoundReport, adversarial_trace, check_miss_bound


@pytest.fixture
def bound_config():
    return CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)


class TestAdversarialTrace:
    def test_targets_set_zero(self):
        trace = adversarial_trace(ways=4, phase_length=100, phases=4,
                                  num_sets=8)
        for block in trace:
            assert block % 8 == 0

    def test_length(self):
        trace = adversarial_trace(ways=4, phase_length=100, phases=4)
        assert len(trace) == 400

    def test_phases_differ(self):
        trace = adversarial_trace(ways=4, phase_length=50, phases=2)
        loop_phase = set(trace[:50])
        stream_phase = set(trace[50:])
        assert len(loop_phase) == 5  # ways + 1 cyclic blocks
        assert len(stream_phase) > 20  # mostly fresh blocks

    def test_validation(self):
        with pytest.raises(ValueError):
            adversarial_trace(ways=0, phase_length=10, phases=2)


class TestBoundHolds:
    def test_on_adversarial_trace(self, bound_config):
        trace = adversarial_trace(
            ways=bound_config.ways, phase_length=500, phases=8,
            num_sets=bound_config.num_sets,
        )
        report = check_miss_bound(trace, bound_config)
        assert report.holds(), report.violations()
        assert report.worst_ratio() <= 2.0

    def test_on_random_traces(self, bound_config):
        for seed in range(3):
            rng = random.Random(seed)
            blocks = [rng.randrange(600) for _ in range(8000)]
            report = check_miss_bound(blocks, bound_config)
            assert report.holds(), (seed, report.violations())

    def test_other_component_pairs(self, bound_config):
        rng = random.Random(99)
        blocks = [rng.randrange(400) for _ in range(6000)]
        for pair in (("fifo", "mru"), ("lru", "fifo"), ("lfu", "mru")):
            report = check_miss_bound(blocks, bound_config,
                                      component_names=pair)
            assert report.holds(), pair


class TestBoundReport:
    def test_violations_detected(self):
        report = BoundReport(
            adaptive_misses=[10, 100],
            component_misses=[[5, 10], [8, 12]],
            slack=2,
            factor=2.0,
        )
        # Set 0: 10 <= 2*5+2 ok. Set 1: 100 > 2*10+2 -> violation.
        assert report.violations() == [1]
        assert not report.holds()
        assert report.best_component_misses(1) == 10

    def test_worst_ratio(self):
        report = BoundReport(
            adaptive_misses=[12],
            component_misses=[[4], [10]],
            slack=2,
            factor=2.0,
        )
        assert report.worst_ratio() == pytest.approx(12 / 6)

    def test_zero_denominator_ignored(self):
        report = BoundReport(
            adaptive_misses=[0],
            component_misses=[[0], [0]],
            slack=0,
            factor=2.0,
        )
        assert report.worst_ratio() == 0.0
        assert report.holds()

"""Unit tests for trace characterization (stack distances, MRC)."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.policies.lru import LRUPolicy
from repro.workloads.characterize import (
    characterize,
    miss_ratio_curve,
    stack_distances,
)
from repro.workloads.trace import KIND_LOAD, Trace


class TestStackDistances:
    def test_cold_references(self):
        assert stack_distances([1, 2, 3]) == [-1, -1, -1]

    def test_immediate_rereference(self):
        assert stack_distances([1, 1]) == [-1, 0]

    def test_classic_sequence(self):
        # a b c a : 'a' saw two distinct blocks (b, c) since its last use.
        assert stack_distances([1, 2, 3, 1]) == [-1, -1, -1, 2]

    def test_repeats_do_not_inflate_distance(self):
        # a b b b a : only ONE distinct block between the two a's.
        assert stack_distances([1, 2, 2, 2, 1]) == [-1, -1, 0, 0, 1]

    def test_cyclic_loop(self):
        # Loop over 4 blocks: every warm reference has distance 3.
        stream = [0, 1, 2, 3] * 5
        distances = stack_distances(stream)
        assert distances[:4] == [-1] * 4
        assert all(d == 3 for d in distances[4:])

    def test_matches_naive_reference(self):
        import random

        rng = random.Random(7)
        stream = [rng.randrange(40) for _ in range(400)]

        def naive(blocks):
            out = []
            for i, block in enumerate(blocks):
                try:
                    previous = max(
                        j for j in range(i) if blocks[j] == block
                    )
                except ValueError:
                    out.append(-1)
                    continue
                out.append(len(set(blocks[previous + 1:i])))
            return out

        assert stack_distances(stream) == naive(stream)


class TestMissRatioCurve:
    def test_monotone_nonincreasing(self):
        import random

        rng = random.Random(3)
        stream = [rng.randrange(200) for _ in range(3000)]
        curve = miss_ratio_curve(stream, [8, 32, 128, 512])
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_capacity_beyond_footprint_only_cold_misses(self):
        stream = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        (ratio,) = miss_ratio_curve(stream, [100])
        assert ratio == pytest.approx(3 / 9)

    def test_matches_fully_associative_simulation(self):
        """The Mattson identity: MRC from stack distances equals a real
        fully-associative LRU cache's miss ratio."""
        import random

        rng = random.Random(11)
        stream = [rng.randrange(100) for _ in range(2000)]
        for capacity in (16, 64):
            (predicted,) = miss_ratio_curve(stream, [capacity])
            config = CacheConfig(
                size_bytes=capacity * 64, ways=capacity, line_bytes=64
            )
            cache = SetAssociativeCache(
                config, LRUPolicy(config.num_sets, config.ways)
            )
            for block in stream:
                cache.access(block * 64)
            assert predicted == pytest.approx(cache.stats.miss_ratio)

    def test_validation(self):
        with pytest.raises(ValueError):
            miss_ratio_curve([], [4])
        with pytest.raises(ValueError):
            miss_ratio_curve([1], [0])


class TestCharacterize:
    def test_profile_fields(self):
        from repro.workloads.suite import build_workload

        config = CacheConfig(size_bytes=16 * 1024, ways=8, line_bytes=64)
        trace = build_workload("tiff2rgba", config, accesses=5000)
        profile = characterize(trace, curve_capacities=(64, 1024))
        assert profile.references == 5000
        assert profile.footprint_lines == trace.footprint_lines()
        # tiff2rgba is half one-pass scan: many single-use lines.
        assert profile.single_use_fraction > 0.5
        assert 0.2 < profile.store_fraction < 0.5
        assert profile.miss_curve[64] >= profile.miss_curve[1024]
        assert "FA-LRU miss ratio" in profile.render()

    def test_locality_classes_separate(self):
        """The profile distinguishes the suite's classes: a scan-heavy
        trace has far more single-use lines than a resident one."""
        from repro.workloads.suite import build_workload

        config = CacheConfig(size_bytes=16 * 1024, ways=8, line_bytes=64)
        scan = characterize(
            build_workload("xanim", config, accesses=4000)
        )
        resident = characterize(
            build_workload("crafty", config, accesses=4000)
        )
        assert scan.single_use_fraction > 2 * resident.single_use_fraction
        assert resident.median_stack_distance < config.num_lines

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            characterize(Trace("empty"))

    def test_single_record(self):
        profile = characterize(Trace.from_records("one", [(KIND_LOAD, 0x1000, 0)]))
        assert profile.footprint_lines == 1
        assert profile.median_stack_distance == -1

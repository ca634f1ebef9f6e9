"""Unit tests for the named workload suite."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.workloads.suite import (
    EXTENDED_SET,
    PRIMARY_SET,
    build_workload,
    get_spec,
    workload_names,
    workload_seed,
)


@pytest.fixture(scope="module")
def suite_config():
    return CacheConfig(size_bytes=16 * 1024, ways=8, line_bytes=64)


class TestSuiteStructure:
    def test_primary_set_matches_paper(self):
        """The 26 benchmark names of Figures 3/4/6/8, in figure order."""
        expected = [
            "ammp", "applu", "art-1", "art-2", "bzip2", "equake", "facerec",
            "fma3d", "ft", "gap", "gcc-1", "gcc-2", "lucas", "mcf", "mgrid",
            "parser", "swim", "tiff2rgba", "twolf", "unepic", "vpr-1",
            "vpr-2", "wupwise", "x11quake-1", "x11quake-2", "xanim",
        ]
        assert workload_names(primary_only=True) == expected

    def test_extended_set_has_100_programs(self):
        """The paper's evaluation counts 100 application/input pairs."""
        assert len(EXTENDED_SET) == 100

    def test_names_unique(self):
        names = workload_names()
        assert len(names) == len(set(names))

    def test_primary_is_prefix_of_extended(self):
        assert EXTENDED_SET[: len(PRIMARY_SET)] == PRIMARY_SET

    def test_suites_represented(self):
        suites = {spec.suite for spec in EXTENDED_SET}
        for expected in ("spec-fp", "spec-int", "mediabench", "mibench",
                         "biobench", "pointer", "graphics"):
            assert expected in suites

    def test_locality_labels_valid(self):
        valid = {"lru", "lfu", "mru", "phase", "stream", "dither", "low"}
        for spec in EXTENDED_SET:
            assert spec.locality in valid, spec.name

    def test_get_spec(self):
        assert get_spec("lucas").locality == "lru"
        with pytest.raises(ValueError, match="unknown workload"):
            get_spec("doom-eternal")

    def test_workload_seed_stable(self):
        assert workload_seed("lucas") == workload_seed("lucas")
        assert workload_seed("lucas") != workload_seed("art-1")
        assert workload_seed("lucas", 1) != workload_seed("lucas", 0)


class TestBuildWorkload:
    def test_deterministic(self, suite_config):
        a = build_workload("mcf", suite_config, accesses=2000)
        b = build_workload("mcf", suite_config, accesses=2000)
        assert list(a) == list(b)

    def test_seed_offset_changes_trace(self, suite_config):
        a = build_workload("mcf", suite_config, accesses=2000)
        b = build_workload("mcf", suite_config, accesses=2000, seed_offset=1)
        assert list(a) != list(b)

    def test_access_count_respected(self, suite_config):
        trace = build_workload("bzip2", suite_config, accesses=3000)
        assert trace.memory_access_count() == 3000

    def test_rejects_nonpositive_accesses(self, suite_config):
        with pytest.raises(ValueError):
            build_workload("bzip2", suite_config, accesses=0)

    @pytest.mark.parametrize("name", workload_names(primary_only=True))
    def test_every_primary_workload_builds(self, name, suite_config):
        trace = build_workload(name, suite_config, accesses=600)
        assert trace.memory_access_count() == 600
        assert trace.instruction_count > 600


class TestLocalityClasses:
    """The suite's whole point: named workloads exhibit the locality
    class the paper reports for them."""

    def _misses(self, name, config, policy_cls, accesses=20_000):
        trace = build_workload(name, config, accesses=accesses)
        cache = SetAssociativeCache(
            config, policy_cls(config.num_sets, config.ways)
        )
        for kind, address, _gap in trace.memory_records():
            cache.access(address, is_write=(kind == 1))
        return cache.stats.misses

    def test_lucas_is_lru_friendly(self, suite_config):
        lru = self._misses("lucas", suite_config, LRUPolicy)
        lfu = self._misses("lucas", suite_config, LFUPolicy)
        assert lru < 0.5 * lfu

    def test_art_is_lfu_friendly(self, suite_config):
        lru = self._misses("art-1", suite_config, LRUPolicy)
        lfu = self._misses("art-1", suite_config, LFUPolicy)
        assert lfu < 0.8 * lru

    def test_tiff2rgba_is_lfu_friendly(self, suite_config):
        lru = self._misses("tiff2rgba", suite_config, LRUPolicy)
        lfu = self._misses("tiff2rgba", suite_config, LFUPolicy)
        assert lfu < lru

    def test_low_workloads_mostly_hit(self, suite_config):
        misses = self._misses("crafty", suite_config, LRUPolicy,
                              accesses=10_000)
        assert misses < 1500  # cache-resident by construction

    def test_primary_workloads_miss_meaningfully(self, suite_config):
        """The primary set is defined by >1 MPKI under LRU; at suite
        scale every primary workload must at least produce real L2
        pressure."""
        for name in workload_names(primary_only=True):
            misses = self._misses(name, suite_config, LRUPolicy,
                                  accesses=8000)
            assert misses > 40, name

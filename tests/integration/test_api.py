"""Public-API surface tests: what README promises must import and work."""

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart_names(self):
        # The exact imports the README's quickstart uses.
        from repro import CacheConfig, SetAssociativeCache, make_adaptive

        config = CacheConfig(size_bytes=16 * 1024, ways=8, line_bytes=64)
        policy = make_adaptive(config.num_sets, config.ways, ("lru", "lfu"))
        cache = SetAssociativeCache(config, policy)
        cache.access(0x1000)
        assert cache.stats.accesses == 1
        assert len(policy.component_misses()) == 2


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.cache", "repro.core", "repro.cpu", "repro.policies",
            "repro.workloads", "repro.analysis", "repro.prefetch",
            "repro.experiments", "repro.utils",
        ],
    )
    def test_imports_clean(self, module):
        __import__(module)

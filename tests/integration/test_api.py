"""Public-API surface tests: what README promises must import and work."""

import importlib
import inspect

import pytest

import repro


class TestExports:
    def test_all_exports_resolve(self):
        # Each public name of the root is the object its defining
        # module holds, not a copy or a second definition.
        public = [name for name in vars(repro) if not name.startswith("_")
                  and not inspect.ismodule(getattr(repro, name))]
        assert public
        for name in public:
            obj = getattr(repro, name)
            home = importlib.import_module(obj.__module__)
            assert obj.__module__ != "repro", name
            assert getattr(home, name) is obj, name

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

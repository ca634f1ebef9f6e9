"""repro — Adaptive Caches: Effective Shaping of Cache Behavior to Workloads.

A from-scratch Python reproduction of Subramanian, Smaragdakis & Loh
(MICRO 2006): adaptive cache replacement via parallel (shadow) tag
arrays and per-set miss histories, with partial tags and an SBAR-style
set-sampling variant, evaluated on a synthetic workload suite through a
cycle-approximate out-of-order timing model.

Quickstart::

    from repro import CacheConfig, SetAssociativeCache, make_adaptive

    config = CacheConfig(size_bytes=64 * 1024, ways=8, line_bytes=64)
    policy = make_adaptive(config.num_sets, config.ways, ("lru", "lfu"))
    cache = SetAssociativeCache(config, policy)
    for address in addresses:
        cache.access(address)
    print(cache.stats.miss_ratio)
"""

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.tag_array import TagArray
from repro.core.multi import make_adaptive
from repro.policies.registry import make_policy

"""One reference, one observation.

Algorithm 1 assumes each reference updates the shadow directories
once, so every store a request reaches must observe its key exactly
once. The bare shard and the engine, and the WAL wrapper and live
recovery over it, keep that rule. The ladder, the tier walk and the
cluster ring fill a miss with a plain ``put`` and observe the key a
second time; they are expected to fail here until ROADMAP item 1 gives
the KV contract a ``fill``, and ``strict`` makes that change flip them.
"""

from collections import Counter

import pytest

from repro.cluster.cache import ClusterKVCache
from repro.online.engine import AdaptiveKVCache
from repro.online.shard import CacheShard
from repro.tiers.kv import TieredKVCache
from tests.invariants.machine import Clock
from tests.online.test_contract import LAYERS

#: Layers that observe a key twice on a get-or-compute miss today.
DOUBLE_OBSERVERS = {
    "resilient-engine", "resilient-persistent", "resilient-live",
    "resilient-tiered", "tiered-front", "client-local", "cluster",
}

REQUESTS = [
    ("get", "k"), ("put", "k"), ("get", "k"),
    ("get_or_compute", "m"), ("get_or_compute", "m"),
    ("get_or_compute", "k"), ("put", "m"),
]


def _shards(store) -> list:
    """Every shard beneath a composition, cluster members included."""
    if isinstance(store, CacheShard):
        return [store]
    if isinstance(store, AdaptiveKVCache):
        return list(store.shards)
    if isinstance(store, TieredKVCache):
        return [shard for tier in store.tiers for shard in _shards(tier.store)]
    if isinstance(store, ClusterKVCache):
        return [shard for node in store.nodes.values()
                for shard in node.engine.shards]
    return _shards(store.cache)


def _count_observations(layer) -> Counter:
    """Per-shard ``observe`` calls, counted from now on."""
    counts = Counter()
    for index, shard in enumerate(_shards(layer)):
        observe = shard.policy.observe

        def counted(*args, _index=index, _observe=observe):
            counts[_index] += 1
            return _observe(*args)

        shard.policy.observe = counted
    return counts


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="a miss fills with a second observation "
                            "(ROADMAP item 1)"))
    if name in DOUBLE_OBSERVERS else name
    for name in sorted(LAYERS)
])
def test_each_request_observes_its_key_once_per_store(name, tmp_path):
    layer = LAYERS[name](tmp_path, Clock())
    counts = _count_observations(layer)
    for op, key in REQUESTS:
        counts.clear()
        if op == "put":
            layer.put(key, (op, key))
        else:
            getattr(layer, op)(key, **(
                {"loader": lambda k: ("loaded", k)}
                if op == "get_or_compute" else {}))
        assert counts and set(counts.values()) == {1}, (op, key, counts)

"""Every serving layer honours the one KV contract.

Each layer of the stack — shard, engine, WAL wrapper, live recovery,
resilient ladder, tiered fronts and the cluster ring — must be a
:class:`~repro.online.contract.KVStore`, take its loader under the one
name (``loader``) and answer a scripted request sequence exactly as a
plain dict would, at a capacity where nothing is evicted. ``in`` and
``len`` are residency probes on every layer: a tier walk counts a key
once per tier holding a copy. Probes change nothing: no lazy expiry,
no policy event, no counter.
"""

import pytest

from repro.cluster.cache import ClusterKVCache
from repro.online.contract import AsyncKVStore, KVStore
from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import LiveRecoveringKVCache
from repro.online.persistence import PersistentKVCache
from repro.online.policies import build_shard_policy
from repro.online.resilience import ResilientKVCache
from repro.online.shard import CacheShard
from repro.tiers.kv import TieredKVCache, client_local_topology, tiered_front

_MISS = object()


class _Clock:
    """A settable engine clock: TTLs lapse when a test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _engine(clock):
    return AdaptiveKVCache(capacity_entries=256, num_shards=4, clock=clock)


#: Every durable layer snapshots often and acks each operation only
#: once it is on disk, so a crash loses no acknowledged write.
WAL_SETTINGS = {"snapshot_every": 4, "wal_flush_ops": 1}


def _persistent(directory, clock):
    return PersistentKVCache(_engine(clock), str(directory / "wal"),
                             **WAL_SETTINGS)


def _live(directory, clock):
    seeded = _persistent(directory, clock)
    seeded.put("seeded", 0)
    seeded.close()
    live = LiveRecoveringKVCache(str(directory / "wal"), clock=clock,
                                 **WAL_SETTINGS)
    live.finish()
    live.delete("seeded")
    return live


#: Layer name -> builder taking a scratch directory and an engine clock.
LAYERS = {
    "shard": lambda d, clock: CacheShard(
        256, build_shard_policy("lru", 256), clock=clock
    ),
    "engine": lambda d, clock: _engine(clock),
    "persistent": _persistent,
    "live": _live,
    "resilient-engine": lambda d, clock: ResilientKVCache(_engine(clock)),
    "resilient-persistent": lambda d, clock: ResilientKVCache(
        _persistent(d, clock)
    ),
    "resilient-live": lambda d, clock: ResilientKVCache(_live(d, clock)),
    "resilient-tiered": lambda d, clock: ResilientKVCache(tiered_front(
        _engine(clock), near_capacity=8, far_capacity=256
    )),
    "tiered-front": lambda d, clock: tiered_front(
        _engine(clock), near_capacity=8, far_capacity=256
    ),
    "client-local": lambda d, clock: client_local_topology(
        ClusterKVCache(capacity_per_node=256),
        local_capacity=8, cluster_capacity=256,
    ),
    "cluster": lambda d, clock: ClusterKVCache(capacity_per_node=256),
}

#: Layers whose ``put`` takes a TTL (a tier walk refuses one, and the
#: cluster ring has no TTL argument).
TTL_LAYERS = {
    "shard", "engine", "persistent", "live",
    "resilient-engine", "resilient-persistent", "resilient-live",
}


def _unreachable(key):
    raise AssertionError(f"loader ran for resident key {key!r}")


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_layer_honours_the_contract(name, tmp_path):
    layer = LAYERS[name](tmp_path, _Clock())
    assert isinstance(layer, KVStore)
    reference = {}
    loads = []

    def loader(key):
        loads.append(key)
        return ("loaded", key)

    script = [
        ("get", "a"), ("put", "a", 1), ("get", "a"), ("put", "a", 2),
        ("goc", "b"), ("goc", "b"), ("goc", "a"), ("delete", "a"),
        ("get", "a"), ("delete", "a"), ("put", ("t", 3), None),
        ("get", ("t", 3)), ("goc", 7), ("delete", "b"), ("goc", "b"),
    ]
    for step in script:
        op, key = step[0], step[1]
        if op == "get":
            assert layer.get(key, _MISS) == reference.get(key, _MISS), step
        elif op == "put":
            layer.put(key, step[2])
            reference[key] = step[2]
            assert key in layer and len(layer) >= len(reference), step
        elif op == "delete":
            assert bool(layer.delete(key)) == (key in reference), step
            reference.pop(key, None)
            assert key not in layer and len(layer) >= len(reference), step
        else:
            resident = key in reference
            value = layer.get_or_compute(
                key, loader=_unreachable if resident else loader
            )
            expected = reference.setdefault(key, ("loaded", key))
            assert value == expected, step
    assert loads == ["b", 7, "b"]
    for key in reference:
        layer.delete(key)
    assert len(layer) == 0
    for wrapped in (layer, getattr(layer, "cache", None)):
        if isinstance(wrapped, PersistentKVCache):
            wrapped.close()


def _observed(store):
    """What a probe must leave as it found it: counters, and the full
    state (entries, TTLs, policy) of every shard and engine beneath."""
    if isinstance(store, (CacheShard, AdaptiveKVCache)):
        return store.state_dict()
    if isinstance(store, TieredKVCache):
        return store.stats(), [_observed(tier.store) for tier in store.tiers]
    if isinstance(store, ClusterKVCache):
        return store.stats(), [
            node.engine.state_dict() for node in store.nodes.values()
        ]
    return store.stats(), _observed(store.cache)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_probes_change_nothing(name, tmp_path):
    clock = _Clock()
    layer = LAYERS[name](tmp_path, clock)
    for key in range(6):
        layer.put(key, key)
    layer.get(0)
    layer.get_or_compute("loaded", loader=lambda key: key)
    if name in TTL_LAYERS:
        layer.put("lapsed", 1, ttl=5.0)
        clock.now = 10.0
    before = _observed(layer)
    assert "lapsed" not in layer and "absent" not in layer
    assert all(key in layer for key in range(6))
    assert len(layer) >= 7
    if isinstance(layer, TieredKVCache):
        assert not any("absent" in tier.store for tier in layer.tiers)
        assert all(any(key in tier.store for tier in layer.tiers)
                   for key in range(6))
    assert _observed(layer) == before
    for wrapped in (layer, getattr(layer, "cache", None)):
        if isinstance(wrapped, PersistentKVCache):
            wrapped.close()


@pytest.mark.parametrize("name", ["resilient-engine", "resilient-tiered"])
def test_async_fronts_honour_the_async_contract(name, tmp_path):
    front = LAYERS[name](tmp_path, _Clock())
    assert isinstance(front, AsyncKVStore)
    assert front.serving_fraction() == 1.0


def test_ladder_needs_an_engine_beneath_the_tiers():
    with pytest.raises(TypeError, match="holds no AdaptiveKVCache"):
        ResilientKVCache(LAYERS["client-local"](None, _Clock()))


def test_tier_walk_refuses_a_ttl():
    with pytest.raises(ValueError, match="no TTL"):
        LAYERS["tiered-front"](None, _Clock()).put("k", 1, ttl=5.0)

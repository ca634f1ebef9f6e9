"""Unit tests for the KV tier walker and the canonical topologies."""

from collections import Counter

import pytest

from repro.cluster.cache import ClusterKVCache, WriteQuorumError
from repro.online.engine import AdaptiveKVCache
from repro.online.policies import build_shard_policy
from repro.online.resilience import (
    CircuitBreaker,
    LoaderUnavailable,
    ResilientKVCache,
)
from repro.online.shard import CacheShard
from repro.tiers.adaptive import AdaptivePlacement
from repro.tiers.kv import (
    KVTier,
    TieredKVCache,
    client_local_topology,
    tiered_front,
)
from repro.tiers.placement import LeaveCopyDown, ProbabilisticLCD
from tests.conftest import retry_policy


def resident_in(cache, key):
    """Names of the tiers holding ``key``, probed without events."""
    return [tier.name for tier in cache.tiers if key in tier.store]


def make_shard(capacity, policy="lru", seed=0):
    return CacheShard(capacity, build_shard_policy(policy, capacity, seed=seed))


def two_tier(placement=None, near=4, far=32):
    return TieredKVCache(
        [
            KVTier("near", make_shard(near), near, hit_latency=1),
            KVTier("far", make_shard(far, seed=1), far, hit_latency=10),
        ],
        placement=placement,
        backing_latency=100,
    )


class TestWalk:
    def test_cold_fetch_fills_everywhere_under_lce(self):
        cache = two_tier()
        result = cache.fetch("k", lambda key: f"v:{key}")
        assert result.served_by == "backing"
        assert result.value == "v:k"
        assert result.latency == 1 + 10 + 100
        assert result.admitted == ("near", "far")
        assert resident_in(cache, "k") == ["near", "far"]
        warm = cache.get_detailed("k")
        assert warm.served_by == "near"
        assert warm.latency == 1

    def test_plain_get_miss_consults_no_backing(self):
        cache = two_tier()
        result = cache.get_detailed("absent", default="fallback")
        assert not result.found
        assert result.value == "fallback"
        assert cache.backing_fetches == 0

    def test_far_hit_promotes_under_lce(self):
        cache = two_tier()
        cache.tiers[1].admit("k", "v")
        result = cache.get_detailed("k")
        assert result.served_by == "far"
        assert result.latency == 1 + 10
        assert result.admitted == ("near",)
        assert cache.get_detailed("k").served_by == "near"

    def test_lcd_climbs_one_tier_per_hit(self):
        cache = two_tier(placement=LeaveCopyDown())
        cache.get_or_compute("k", lambda key: "v")   # -> far only
        assert resident_in(cache, "k") == ["far"]
        second = cache.get_detailed("k")             # far serve -> near
        assert second.served_by == "far"
        assert resident_in(cache, "k") == ["near", "far"]
        assert cache.get_detailed("k").served_by == "near"

    def test_put_invalidates_skipped_tiers(self):
        cache = two_tier(placement=LeaveCopyDown())
        cache.put("k", "v1")
        cache.get("k")       # promote into near
        assert resident_in(cache, "k") == ["near", "far"]
        cache.put("k", "v2")  # LCD put targets far; near copy must die
        assert resident_in(cache, "k") == ["far"]
        assert cache.get("k") == "v2"

    def test_put_never_dropped_when_strategy_declines(self):
        cache = two_tier(placement=ProbabilisticLCD(p=0.0))
        cache.put("k", "v")
        assert resident_in(cache, "k") == ["far"]
        assert cache.get("k") == "v"

    def test_delete_clears_every_tier(self):
        cache = two_tier()
        cache.get_or_compute("k", lambda key: "v")
        assert cache.delete("k")
        assert resident_in(cache, "k") == []
        assert not cache.delete("k")

    def test_residency_probes_fire_no_events(self):
        cache = two_tier()
        cache.get_or_compute("k", lambda key: "v")
        before = cache.stats()
        near_hits = cache.tiers[0].store.hits
        assert "k" in cache and "other" not in cache
        assert resident_in(cache, "k") == ["near", "far"]
        # Under LCE both tiers hold a copy, and len counts each.
        assert len(cache) == 2
        cache.tiers[0].invalidate("k")
        assert "k" in cache and len(cache) == 1
        assert cache.stats() == before
        assert cache.tiers[0].store.hits == near_hits

    def test_stats_shape(self):
        cache = two_tier()
        cache.get_or_compute("a", lambda key: 1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["gets"] == 3
        assert stats["backing_fetches"] == 1
        assert stats["tier_hits"] == 1
        assert stats["serves"]["near"] == 1
        assert stats["placement"]["name"] == "lce"
        assert stats["mean_latency"] > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one tier"):
            TieredKVCache([])
        with pytest.raises(ValueError, match="unique"):
            TieredKVCache([
                KVTier("t", make_shard(4), 4),
                KVTier("t", make_shard(4), 4),
            ])
        with pytest.raises(ValueError):
            KVTier("t", make_shard(4), 0)


def three_tier(placement=None, far=32):
    return TieredKVCache(
        [
            KVTier("t0", make_shard(4), 4, hit_latency=1),
            KVTier("t1", make_shard(8, seed=1), 8, hit_latency=5),
            KVTier("t2", make_shard(far, seed=2), far, hit_latency=20),
        ],
        placement=placement,
        backing_latency=100,
    )


class TestThreeTierWalk:
    def test_cold_fetch_latency_arithmetic(self):
        cache = three_tier()
        result = cache.fetch("k", lambda key: "v")
        # Every probe, then the backing fetch.
        assert result.latency == 1 + 5 + 20 + 100
        assert result.admitted == ("t0", "t1", "t2")
        assert cache.stats()["total_latency"] == result.latency

    def test_mid_tier_hit_under_lce(self):
        cache = three_tier()
        cache.tiers[1].admit("k", "v")
        result = cache.get_detailed("k")
        assert result.served_by == "t1"
        assert result.latency == 1 + 5
        assert result.admitted == ("t0",)
        assert resident_in(cache, "k") == ["t0", "t1"]

    def test_lcd_climbs_one_tier_per_hit(self):
        cache = three_tier(placement=LeaveCopyDown())
        assert cache.fetch("k", lambda key: "v").admitted == ("t2",)
        served = [cache.get_detailed("k").served_by for _ in range(3)]
        assert served == ["t2", "t1", "t0"]
        assert resident_in(cache, "k") == ["t0", "t1", "t2"]

    def test_problcd_p_zero_never_climbs(self):
        cache = three_tier(placement=ProbabilisticLCD(p=0.0))
        cache.put("k", "v")
        for _ in range(5):
            result = cache.get_detailed("k")
            assert result.served_by == "t2"
            assert result.admitted == ()
        assert resident_in(cache, "k") == ["t2"]

    @pytest.mark.parametrize(
        "placement, resident",
        [
            (None, ["t0", "t1", "t2"]),
            (LeaveCopyDown(), ["t2"]),
            (ProbabilisticLCD(p=1.0), ["t2"]),
            (ProbabilisticLCD(p=0.0), ["t2"]),
        ],
        ids=["lce", "lcd", "problcd-p1", "problcd-p0"],
    )
    def test_put_places_and_invalidates(self, placement, resident):
        cache = three_tier(placement=placement)
        for tier in cache.tiers:
            tier.admit("k", "stale")
        assert cache.put("k", "fresh").admitted == tuple(resident)
        # Tiers the write skipped hold no stale copy.
        assert resident_in(cache, "k") == resident
        assert cache.get("k") == "fresh"

    def test_bottom_tier_eviction_refetches_from_backing(self):
        cache = three_tier(placement=LeaveCopyDown(), far=4)
        loads = []

        def loader(key):
            loads.append(key)
            return key

        for key in range(5):
            cache.get_or_compute(key, loader)
        # Five cold keys through a 4-entry bottom tier: key 0 was evicted
        # and never climbed, so it goes back to the backing loader.
        assert resident_in(cache, 0) == []
        assert cache.fetch(0, loader).served_by == "backing"
        assert loads == [0, 1, 2, 3, 4, 0]
        assert cache.backing_fetches == 6


class TestAdaptivePlacementOverKV:
    def test_adaptive_walker_end_to_end(self):
        tiers = [
            KVTier("near", make_shard(8), 8, hit_latency=1),
            KVTier("far", make_shard(64, seed=1), 64, hit_latency=10),
        ]
        cache = TieredKVCache(
            tiers,
            placement=AdaptivePlacement([8, 64], num_partitions=2),
            backing_latency=100,
        )
        for i in range(300):
            cache.get_or_compute(i % 40, lambda key: key)
        stats = cache.stats()
        assert stats["placement"]["name"] == "adaptive"
        assert sum(stats["placement"]["decisions"]) == 300
        assert stats["tier_hits"] > 0


class TestCanonicalTopologies:
    def test_tiered_front_over_adaptive_kv_cache(self):
        far = AdaptiveKVCache(capacity_entries=64, num_shards=4,
                              policy="adaptive")
        front = tiered_front(far, near_capacity=8, far_capacity=64)
        for i in range(50):
            front.get_or_compute(f"key:{i % 20}", lambda key: key.upper())
        assert front.stats()["tier_hits"] > 0
        # The far engine really is the AdaptiveKVCache: its own stats
        # moved, and values are shared between the fronts.
        assert far.stats().gets > 0
        assert front.get("key:0") == "KEY:0"
        assert far.get("key:0") == "KEY:0"

    def test_client_local_topology_over_cluster(self):
        with ClusterKVCache(num_nodes=3, replication=2, seed=5) as ring:
            topo = client_local_topology(
                ring, local_capacity=4, cluster_capacity=256
            )
            topo.put("user:1", {"name": "ada"})
            assert topo.get("user:1") == {"name": "ada"}
            # The ring holds the value independently of the local tier.
            assert ring.get("user:1") == {"name": "ada"}
            topo.delete("user:1")
            assert ring.get("user:1") is None
            value = topo.get_or_compute("user:2", lambda key: "computed")
            assert value == "computed"
            assert topo.serves["backing"] == 1
            assert topo.get("user:2") == "computed"

    def test_fill_short_of_quorum_still_serves(self):
        """A read-through answers like the ring's own ``get_or_compute``
        when the ring refuses the fill; a put still raises."""
        ring = ClusterKVCache(3, 3, 64, policy="lru")
        topo = client_local_topology(ring, 8, 64)
        ring.nodes["n1"].crash()
        ring.nodes["n2"].crash()
        result = topo.fetch("b", lambda key: "loaded")
        assert result.value == "loaded"
        assert result.served_by == "backing"
        assert result.admitted == ("local",)
        assert ring.stats().failed_writes == 1
        assert topo.get_or_compute("c", lambda key: "loaded") == "loaded"
        with pytest.raises(WriteQuorumError):
            topo.put("d", "written")


#: Replica traffic of one request through a healthy client-local
#: topology over a 3-replica ring: local shard gets, routes
#: (``ClusterView.owners``), node gets, peeks and puts, local puts.
TRAFFIC = {
    "local hit": (1, 0, 0, 0, 0, 0),
    "ring hit": (1, 1, 1, 2, 0, 1),
    "total miss": (1, 2, 2, 1, 3, 1),
    "write": (0, 1, 0, 0, 3, 1),
}


@pytest.mark.parametrize("request_kind", sorted(TRAFFIC))
def test_replica_traffic_per_request(request_kind, monkeypatch):
    ring = ClusterKVCache(3, 3, 64, policy="lru")
    topo = client_local_topology(ring, 8, 64)
    if request_kind == "local hit":
        topo.get_or_compute("k", lambda key: "v")
    elif request_kind == "ring hit":
        ring.put("k", "v")
    calls = Counter()

    def count(owner, method, label):
        original = getattr(owner, method)

        def counted(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, method, counted)

    local = topo.tiers[0].store
    count(local, "get", "local get")
    count(local, "put", "local put")
    count(ring.view, "owners", "route")
    count(ring.ring, "owners", "ring owners")
    for node in ring.nodes.values():
        for method in ("get", "peek", "put"):
            count(node, method, f"node {method}")
    if request_kind == "write":
        topo.put("k", "v")
    else:
        assert topo.get_or_compute("k", lambda key: "v") == "v"
    labels = ("local get", "route", "node get", "node peek", "node put",
              "local put")
    assert tuple(calls[label] for label in labels) == TRAFFIC[request_kind]
    # Every route goes through the view.
    assert calls["ring owners"] == calls["route"]


class TestResilientLadderOverTieredFront:
    """The serve harness's tiered regime: the one resilient ladder over
    ``tiered_front(engine)``, with breakers, stale serving and health
    on the far engine."""

    def test_failing_loader_serves_stale_trips_and_degrades(self):
        now = [0.0]
        engine = AdaptiveKVCache(capacity_entries=64, num_shards=4,
                                 default_ttl=1.0, clock=lambda: now[0])
        tiered = tiered_front(engine, near_capacity=8, far_capacity=64)
        ladder = ResilientKVCache(
            tiered,
            retry=retry_policy(1),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, recovery_timeout=10.0,
                clock=lambda: now[0],
            ),
            clock=lambda: now[0],
        )
        assert ladder.engine is engine
        shard = engine.shard_index("k")
        missing = next(
            key for key in (f"m{i}" for i in range(1000))
            if engine.shard_index(key) == shard
        )

        def down(key):
            raise IOError("backend down")

        assert ladder.get_or_compute("k", str.upper) == "K"
        # The far copy expires; the near tier (no TTL) loses its copy.
        now[0] = 5.0
        tiered.tiers[0].invalidate("k")
        assert not tiered.tiers[0].store.contains("k")
        assert engine.shards[shard].peek_stale("k") == (True, "K")
        hits = engine.stats().hits
        tier_hits = tiered.stats()["tier_hits"]

        assert ladder.get_or_compute("k", down) == "K"
        with pytest.raises(LoaderUnavailable):
            ladder.get_or_compute(missing, down)

        stats = engine.stats()
        assert (stats.stale_hits, stats.degraded) == (1, 1)
        assert stats.hits == hits
        assert tiered.stats()["tier_hits"] == tier_hits
        assert ladder.breakers[shard].trips == 1
        health = ladder.health()
        assert health["shards"][shard]["breaker"] == "open"
        assert (health["stale_hits"], health["degraded"]) == (1, 1)
        assert health["ready"]

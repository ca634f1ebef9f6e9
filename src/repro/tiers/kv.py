"""Tiered key-value serving: placement strategies over KV stores.

A :class:`KVTier` wraps any :class:`~repro.online.contract.KVStore` — a
:class:`~repro.online.shard.CacheShard`, a whole
:class:`~repro.online.engine.AdaptiveKVCache`, or a
:class:`~repro.cluster.cache.ClusterKVCache` ring — with its probe
cost, and a :class:`TieredKVCache` walks requests through a near→far
tier list under a pluggable
:class:`~repro.tiers.placement.PlacementStrategy`: a ``get`` on each
store probes it, a ``put`` places a copy (:meth:`KVTier.admit`), a
``delete`` invalidates one.

Two canonical topologies ship as helpers:

* :func:`tiered_front` — a small near shard in front of an
  :class:`AdaptiveKVCache` (the process-local hot-entry tier);
* :func:`client_local_topology` — a client-local shard in front of a
  :class:`ClusterKVCache` ring (the cluster as bottom tier).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.cache import WriteQuorumError
from repro.tiers.placement import (
    LeaveCopyEverywhere,
    PlacementStrategy,
)

#: Probe-miss sentinel: stores signal misses via their ``default``
#: argument, and None is a legitimate cached value.
_MISS = object()


class KVTier:
    """One tier of a key-value topology.

    Wraps any :class:`~repro.online.contract.KVStore` — which all
    three engines are — plus the cost of probing it.

    Args:
        name: unique tier name (reporting, stats).
        store: the wrapped store.
        capacity: entry capacity, used to size adaptive placement's
            shadow topologies (informational otherwise).
        hit_latency: cost charged for probing this tier.
    """

    __slots__ = ("name", "store", "capacity", "hit_latency")

    def __init__(self, name: str, store, capacity: int, hit_latency: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if hit_latency <= 0:
            raise ValueError(f"hit_latency must be positive, got {hit_latency}")
        self.name = name
        self.store = store
        self.capacity = capacity
        self.hit_latency = hit_latency

    def admit(self, key, value) -> None:
        """Install ``key`` in this tier (store handles its own eviction)."""
        self.store.put(key, value)

    def invalidate(self, key) -> bool:
        """Drop ``key`` from this tier if resident."""
        return bool(self.store.delete(key))


class TieredKVResult:
    """Outcome of one request walked through a KV tier list.

    Attributes:
        found: whether any tier (or the backing loader) produced a value.
        value: the value served (None on a plain-get total miss).
        served_by: tier name, the backing name, or None (total miss on
            a plain get, which consults no backing).
        latency: accumulated probe + backing cost.
        admitted: names of tiers that installed a copy, near-to-far.
    """

    __slots__ = ("found", "value", "served_by", "latency", "admitted")

    def __init__(self, found, value, served_by, latency, admitted):
        self.found = found
        self.value = value
        self.served_by = served_by
        self.latency = latency
        self.admitted = admitted

    def __repr__(self) -> str:
        return (
            f"TieredKVResult(found={self.found}, served_by={self.served_by!r}, "
            f"latency={self.latency}, admitted={self.admitted!r})"
        )


class TieredKVCache:
    """A near→far list of KV tiers under a placement strategy.

    The walk mirrors the hardware deferred walk: probe tiers in order
    until one serves, then ask the placement strategy which tiers keep
    a copy (hit promotion on ``get``, fill placement on
    ``get_or_compute``). Admits run far-to-near so a near-tier copy
    never exists without the strategy having placed it.

    Args:
        tiers: near-to-far :class:`KVTier` list.
        placement: placement strategy; defaults to LCE.
        backing_latency: cost charged when ``get_or_compute`` runs its
            loader.
    """

    #: Reporting name for the loader level.
    backing_name = "backing"

    def __init__(
        self,
        tiers: Sequence[KVTier],
        placement: Optional[PlacementStrategy] = None,
        backing_latency: int = 100,
    ):
        if not tiers:
            raise ValueError("need at least one tier")
        names = [tier.name for tier in tiers]
        if len(set(names)) != len(names) or self.backing_name in names:
            raise ValueError(f"tier names must be unique, got {names!r}")
        if backing_latency <= 0:
            raise ValueError(
                f"backing_latency must be positive, got {backing_latency}"
            )
        self.tiers: List[KVTier] = list(tiers)
        self.placement = placement or LeaveCopyEverywhere()
        self.backing_latency = backing_latency
        self.serves: Dict[str, int] = {name: 0 for name in names}
        self.serves[self.backing_name] = 0
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.backing_fetches = 0
        self.total_latency = 0
        self._observe_placement = (
            type(self.placement).observe_access
            is not PlacementStrategy.observe_access
        )

    @property
    def engine(self):
        """The far store if it is an
        :class:`~repro.online.engine.AdaptiveKVCache`, else its
        ``engine``: where a resilient ladder over this cache keeps its
        breakers and stale peeks. TypeError if there is none (a ring).
        """
        from repro.online.engine import AdaptiveKVCache

        far = self.tiers[-1].store
        engine = getattr(far, "engine", far)
        if not isinstance(engine, AdaptiveKVCache):
            raise TypeError(f"far tier {type(far).__name__} holds no "
                            "AdaptiveKVCache; a resilient ladder needs one")
        return engine

    def _walk(self, key, loader, default) -> TieredKVResult:
        """Probe tiers near-to-far; place copies of what serves.

        A total miss runs ``loader`` and places its value. Without a
        loader (a plain get) it consults no backing and reports the
        miss to the caller, matching ``CacheShard.get``.

        Copies go in far-to-near, to the tiers the strategy names;
        ``admitted`` lists the tiers that took one, near-to-far. A tier
        that refuses its copy — a ring whose write fell short of
        quorum — is left out, and the walk still serves the value.
        """
        self.gets += 1
        if self._observe_placement:
            self.placement.observe_access(key, False)
        tiers = self.tiers
        latency = 0
        for served, tier in enumerate(tiers):
            latency += tier.hit_latency
            value = tier.store.get(key, _MISS)  # a probe, never a fill
            if value is not _MISS:
                name = tier.name
                self.serves[name] += 1
                break
        else:
            if loader is None:
                self.total_latency += latency
                return TieredKVResult(False, default, None, latency, ())
            served, name = len(tiers), self.backing_name
            self.backing_fetches += 1
            self.serves[name] += 1
            latency += self.backing_latency
            value = loader(key)
        self.total_latency += latency
        targets = self.placement.copy_tiers(len(tiers), served, key)
        if not targets:
            return TieredKVResult(True, value, name, latency, ())
        if len(targets) > 1:
            targets = sorted(targets, reverse=True)
        admitted = []
        for index in targets:
            tier = tiers[index]
            try:
                tier.store.put(key, value)  # tier.admit, inline
            except WriteQuorumError:
                continue
            admitted.append(tier.name)
        if len(admitted) > 1:
            admitted.reverse()
        return TieredKVResult(True, value, name, latency, tuple(admitted))

    def get_detailed(self, key, default=None) -> TieredKVResult:
        """Probe all tiers; on a hit, promote per the placement strategy.

        A total miss consults no backing loader — only
        :meth:`get_or_compute` fills.
        """
        return self._walk(key, None, default)

    def get(self, key, default=None):
        """Value under ``key`` from the nearest holding tier, else
        ``default``."""
        return self.get_detailed(key, default).value

    def fetch(self, key, loader) -> TieredKVResult:
        """:meth:`get_or_compute` with full provenance."""
        return self._walk(key, loader, None)

    def get_or_compute(self, key, loader):
        """Serve from the nearest tier, running ``loader(key)`` (and
        placing the result) on a topology-wide miss."""
        return self.fetch(key, loader).value

    def put(self, key, value, ttl=None) -> TieredKVResult:
        """Write ``key`` through the topology.

        The placement strategy is consulted as for a backing-served
        fill (the value arrives from outside the topology). Tiers the
        strategy skips get the key *invalidated* so no stale copy
        survives the write; if the strategy places the value nowhere
        (probabilistic LCD declining), the far tier takes it — a put
        must never be dropped entirely. No tier walk carries a TTL:
        passing ``ttl`` raises ValueError.
        """
        if ttl is not None:
            raise ValueError(f"a tier walk carries no TTL (got ttl={ttl!r})")
        self.puts += 1
        if self._observe_placement:
            self.placement.observe_access(key, True)
        num_tiers = len(self.tiers)
        targets = set(
            self.placement.copy_tiers(num_tiers, num_tiers, key)
        ) or {num_tiers - 1}
        admitted = []
        for index in range(num_tiers - 1, -1, -1):
            tier = self.tiers[index]
            if index in targets:
                tier.admit(key, value)
                admitted.append(tier.name)
            else:
                tier.invalidate(key)
        admitted.reverse()
        return TieredKVResult(True, value, None, 0, tuple(admitted))

    def delete(self, key) -> bool:
        """Drop ``key`` from every tier; True if any held it."""
        self.deletes += 1
        removed = False
        for tier in self.tiers:
            removed = tier.invalidate(key) or removed
        return removed

    def __contains__(self, key) -> bool:
        """Whether any tier holds ``key`` (no policy events, nothing logged)."""
        return any(key in tier.store for tier in self.tiers)

    def __len__(self) -> int:
        """Entries the tiers hold; a key copied into two tiers counts twice."""
        return sum(len(tier.store) for tier in self.tiers)

    def stats(self) -> dict:
        """Counter snapshot plus the placement strategy's summary."""
        tier_hits = sum(self.serves[tier.name] for tier in self.tiers)
        return {
            "gets": self.gets,
            "puts": self.puts,
            "deletes": self.deletes,
            "tier_hits": tier_hits,
            "hit_ratio": tier_hits / self.gets if self.gets else 0.0,
            "backing_fetches": self.backing_fetches,
            "serves": dict(self.serves),
            "total_latency": self.total_latency,
            "mean_latency": (
                self.total_latency / self.gets if self.gets else 0.0
            ),
            "placement": self.placement.state_summary(),
        }


#: :func:`tiered_front`'s latency model: near probe, far probe, backing
#: fetch.
NEAR_LATENCY = 1
FAR_LATENCY = 10
BACKING_LATENCY = 100


def tiered_front(
    far,
    near_capacity: int,
    far_capacity: int,
    placement: Optional[PlacementStrategy] = None,
    near_policy: str = "lru",
    seed: int = 0,
) -> TieredKVCache:
    """A small near shard in front of an existing far store.

    The optional near/far front for :class:`AdaptiveKVCache`: the far
    store keeps its full behavior (sharding, adaptivity, persistence);
    the near tier is a single process-local
    :class:`~repro.online.shard.CacheShard` absorbing the hottest keys.

    Args:
        far: the far store (any
            :class:`~repro.online.contract.KVStore`).
        near_capacity: entry capacity of the near shard.
        far_capacity: entry capacity of ``far`` (placement sizing).
        placement: placement strategy (default LCE).
        near_policy: registry policy for the near shard.
    """
    from repro.online.policies import build_shard_policy
    from repro.online.shard import CacheShard

    near = CacheShard(
        near_capacity,
        build_shard_policy(near_policy, near_capacity, seed=seed),
    )
    return TieredKVCache(
        [
            KVTier("near", near, near_capacity, hit_latency=NEAR_LATENCY),
            KVTier("far", far, far_capacity, hit_latency=FAR_LATENCY),
        ],
        placement=placement,
        backing_latency=BACKING_LATENCY,
    )


def client_local_topology(
    cluster,
    local_capacity: int,
    cluster_capacity: int,
) -> TieredKVCache:
    """A client-local shard over a cluster ring as bottom tier.

    Wires :class:`~repro.cluster.cache.ClusterKVCache` into the tier
    model: the ring (replication, quorums, read-repair and all) serves
    as the far tier, with a client-local LRU shard in front. Hits cost
    1 (local) and 20 (cluster), the loader 200; placement is LCE.
    """
    from repro.online.policies import build_shard_policy
    from repro.online.shard import CacheShard

    local = CacheShard(local_capacity, build_shard_policy("lru", local_capacity))
    return TieredKVCache(
        [
            KVTier("local", local, local_capacity, hit_latency=1),
            KVTier("cluster", cluster, cluster_capacity, hit_latency=20),
        ],
        backing_latency=200,
    )

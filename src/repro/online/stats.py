"""Statistics snapshots for the online key-value engine.

Follows the conventions of :class:`repro.cache.stats.CacheStats`
(counter dataclass, ratio properties, explicit reset-free snapshots):
shards accumulate plain integer counters under their locks, and
:meth:`repro.online.engine.AdaptiveKVCache.stats` merges them into one
immutable :class:`KVCacheStats` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class KVCacheStats:
    """One consistent snapshot of an online cache's counters.

    Attributes:
        gets: lookup calls (``get`` / ``get_or_compute``).
        hits: lookups answered from the cache.
        misses: lookups that found nothing (or only an expired entry).
        puts: store calls (inserts plus updates).
        inserts: stores of a previously absent key.
        updates: stores overwriting a resident key.
        deletes: explicit removals that found their key.
        evictions: entries displaced by capacity pressure.
        expirations: entries dropped because their TTL had passed.
        stale_hits: expired entries served anyway by the resilience
            layer (stale-while-revalidate); deliberately *not* counted
            as hits, so the hit ratio keeps meaning "fresh answers".
        degraded: requests answered in degraded mode (loader down and
            no stale entry available to serve).
        policy_switches: imitation-target changes across all selectors
            (per-shard and, in sampled mode, the global one).
        occupancy: resident entries at snapshot time.
        occupancy_bytes: always 0, and not a constructor argument; the
            cache keeps no byte budget. The field stays so the stats
            shape, which the e2e pins hash through ``asdict``, does not
            change.
        capacity_entries: total entry capacity across shards.
        shards: shard count.
        per_shard_occupancy: resident entries per shard (load-balance
            introspection; mirrors ``CacheStats.per_set_misses``).
    """

    gets: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    evictions: int = 0
    expirations: int = 0
    stale_hits: int = 0
    degraded: int = 0
    policy_switches: int = 0
    occupancy: int = 0
    occupancy_bytes: int = field(default=0, init=False)
    capacity_entries: int = 0
    shards: int = 0
    per_shard_occupancy: List[int] = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        """Hits / gets; 0.0 when nothing was looked up."""
        if self.gets == 0:
            return 0.0
        return self.hits / self.gets

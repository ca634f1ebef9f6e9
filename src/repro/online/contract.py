"""The request surface every online layer serves, and their shared base.

Shard, engine, WAL wrapper, live recovery, resilient ladder, tiered
front and cluster ring all answer the four calls of :class:`KVStore`;
the asyncio admission front serves through :class:`AsyncKVStore`.
:class:`KVLayer` is the base of the wrappers over one engine, so each
of them writes only the calls it changes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.online.engine import AdaptiveKVCache


@runtime_checkable
class KVStore(Protocol):
    """The synchronous key-value request surface."""

    def get(self, key, default=None):
        """Value stored under ``key``, or ``default`` on a miss."""

    def put(self, key, value):
        """Store ``value`` under ``key``."""

    def delete(self, key) -> bool:
        """Remove ``key``; True if it was resident."""

    def get_or_compute(self, key, loader):
        """The cached value, else ``loader(key)``, filled on the way."""


@runtime_checkable
class AsyncKVStore(Protocol):
    """What :class:`~repro.serve.front.AsyncServingFront` serves through."""

    async def aget_or_compute(self, key, loader, retry_budget=None):
        """The cached value, else the awaited ``loader(key)``."""

    def put(self, key, value, ttl=None) -> None:
        """Store ``value`` under ``key``."""

    def stats(self):
        """The wrapped store's counters (a tier walk's are a dict);
        ``stale_hits`` and ``degraded`` are on ``engine.stats()``."""

    def serving_fraction(self) -> float:
        """Fraction of capacity serving normally, 0.0..1.0."""


class KVLayer:
    """A wrapper over one :class:`~repro.online.engine.AdaptiveKVCache`.

    ``cache`` is what it wraps (the engine, another layer over it, or
    a tiered front over it) and takes the requests; ``engine`` is the
    engine beneath every layer and takes the shard-level probes
    (routing, ``peek_stale``).
    """

    def __init__(self, cache):
        self.cache = cache
        self.engine = (
            cache if isinstance(cache, AdaptiveKVCache) else cache.engine
        )

    def stats(self):
        """The wrapped cache's merged counter snapshot."""
        return self.cache.stats()

    def __len__(self) -> int:
        """Resident entries across shards."""
        return len(self.cache)

    def __contains__(self, key) -> bool:
        """Residency probe (no policy events, nothing logged)."""
        return key in self.cache

"""One shard of the online key-value cache.

A shard is the online analogue of a cache *set*: a bounded pool of
entries managed by one :class:`~repro.policies.base.ReplacementPolicy`
(fixed or adaptive) through the exact event protocol the simulator's
:class:`~repro.cache.cache.SetAssociativeCache` drives — ``observe``
before lookup, ``on_hit`` on a hit, ``victim``/``on_fill`` on a miss
that installs, ``on_invalidate`` on removal. The policy sees the shard
as a single set whose associativity equals the shard's entry capacity,
with key fingerprints standing in for tags; the paper's machinery
therefore runs unmodified on top (an
:class:`~repro.core.adaptive.AdaptivePolicy` shard carries two shadow
*directories* — tags-only :class:`~repro.cache.tag_array.TagArray`
instances over partial key fingerprints — plus a miss history, exactly
as Figure 1 adds structures beside a conventional cache).

Each shard carries its own lock; all public methods are thread-safe.
The engine (:mod:`repro.online.engine`) routes keys to shards and
aggregates their counters.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence

from repro.online.keyspace import key_fingerprint
from repro.policies.base import ReplacementPolicy, SetView


class _Entry:
    """One resident key-value pair (internal)."""

    __slots__ = ("key", "value", "fingerprint", "size", "expires_at")

    def __init__(self, key, value, fingerprint, size, expires_at):
        self.key = key
        self.value = value
        self.fingerprint = fingerprint
        self.size = size
        self.expires_at = expires_at


class ShardView(SetView):
    """The shard's slot table, viewed as one cache set.

    ``tag_at`` returns the resident entry's *full* fingerprint; the
    policy applies its own tag transform, mirroring how the simulator's
    real cache stores full tags while shadow arrays store partial ones.
    ``index`` is the shard's key->way dict, which the view only counts.
    """

    def __init__(self, slots: List[Optional[_Entry]], index: dict):
        self._slots = slots
        self._index = index

    @property
    def ways(self) -> int:
        """Entry capacity of the shard."""
        return len(self._slots)

    def tag_at(self, way: int) -> Optional[int]:
        """Fingerprint of the entry in ``way``, or None if empty."""
        entry = self._slots[way]
        return None if entry is None else entry.fingerprint

    def valid_ways(self) -> Sequence[int]:
        """Ways currently holding entries."""
        return [w for w, e in enumerate(self._slots) if e is not None]

    def valid_count(self) -> int:
        """Number of occupied ways, O(1): the size of the shard's
        key->way index, which holds exactly one key per occupied way."""
        return len(self._index)


class _ProtectedView(SetView):
    """A view that hides one way from the policy (internal).

    Used by byte-pressure eviction so the entry just written is never
    chosen as its own victim.
    """

    def __init__(self, inner: SetView, protected_way: int):
        self._inner = inner
        self._protected = protected_way

    @property
    def ways(self) -> int:
        return self._inner.ways

    def tag_at(self, way: int) -> Optional[int]:
        return self._inner.tag_at(way)

    def valid_ways(self) -> Sequence[int]:
        return [w for w in self._inner.valid_ways() if w != self._protected]

    def valid_count(self) -> int:
        """One fewer than the inner view: the protected way (the entry
        just written) is always valid."""
        return self._inner.valid_count() - 1


class CacheShard:
    """A thread-safe, policy-managed pool of at most ``capacity`` entries.

    Args:
        capacity: entry capacity; must equal ``policy.ways``.
        policy: the replacement policy managing the shard, built for a
            1 x ``capacity`` geometry (``num_sets=1``).
        default_ttl: seconds before an entry expires, or None for no
            expiry. Expiry is lazy: expired entries are dropped when a
            lookup or store touches their key.
        capacity_bytes: optional byte budget; stores evict (other)
            entries until the accounted total fits. A lone entry larger
            than the budget stays resident — the budget bounds hoarding,
            not single-object size.
        sizeof: value-size estimator used when a ``put`` gives no
            explicit size (required if ``capacity_bytes`` is set).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        capacity: int,
        policy: ReplacementPolicy,
        default_ttl: Optional[float] = None,
        capacity_bytes: Optional[int] = None,
        sizeof: Optional[Callable] = None,
        clock: Callable[[], float] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy.num_sets != 1 or policy.ways != capacity:
            raise ValueError(
                f"shard policy geometry ({policy.num_sets}x{policy.ways}) "
                f"must be 1x{capacity}"
            )
        if capacity_bytes is not None and sizeof is None:
            raise ValueError("capacity_bytes requires a sizeof estimator")
        if default_ttl is not None and default_ttl <= 0:
            raise ValueError(f"default_ttl must be positive, got {default_ttl}")
        self.capacity = capacity
        self.policy = policy
        self.default_ttl = default_ttl
        self.capacity_bytes = capacity_bytes
        self._sizeof = sizeof
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._slots: List[Optional[_Entry]] = [None] * capacity
        self._key_to_way = {}
        self._view = ShardView(self._slots, self._key_to_way)
        self._free = list(range(capacity - 1, -1, -1))
        self.bytes_used = 0
        # Counters; read via snapshot() for a consistent view.
        self.gets = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        self.evictions = 0
        self.expirations = 0
        # Degraded-mode counters, bumped by the resilience layer
        # (repro.online.resilience): kept separate from hits/misses so
        # stale serves never inflate the real hit rate.
        self.stale_hits = 0
        self.degraded = 0

    # ------------------------------------------------------------------
    # Public, thread-safe operations
    # ------------------------------------------------------------------

    def get(self, key, default=None):
        """Value stored under ``key``, or ``default`` on a miss."""
        fingerprint = key_fingerprint(key)
        with self._lock:
            self.gets += 1
            self.policy.observe(0, fingerprint, False)
            entry, way = self._live_entry(key)
            if entry is None:
                self.misses += 1
                return default
            self.hits += 1
            self.policy.on_hit(0, way)
            return entry.value

    def get_many(self, keys, default=None) -> list:
        """Batched :meth:`get`: one lock acquisition for the whole batch.

        Decision-identical to calling :meth:`get` per key in order —
        the policy sees the same event stream — but amortises the lock
        round-trip and per-call overhead, which is what makes bulk
        replays (the online experiment, the hot-path benchmark) cheap.

        Returns:
            Values in key order, ``default`` for misses.
        """
        key_fp = key_fingerprint
        out = []
        append = out.append
        with self._lock:
            policy = self.policy
            observe = policy.observe
            on_hit = policy.on_hit
            live = self._live_entry
            for key in keys:
                self.gets += 1
                observe(0, key_fp(key), False)
                entry, way = live(key)
                if entry is None:
                    self.misses += 1
                    append(default)
                else:
                    self.hits += 1
                    on_hit(0, way)
                    append(entry.value)
        return out

    def get_or_compute(self, key, compute, ttl: Optional[float] = None):
        """Return the cached value, computing and inserting on a miss.

        This is the demand-caching access the paper's theory assumes —
        every miss fills — and the memoization primitive the engine
        exposes. ``compute`` runs under the shard lock (no stampede per
        shard); it must not reenter the cache.
        """
        fingerprint = key_fingerprint(key)
        with self._lock:
            self.gets += 1
            self.policy.observe(0, fingerprint, False)
            entry, way = self._live_entry(key)
            if entry is not None:
                self.hits += 1
                self.policy.on_hit(0, way)
                return entry.value
            self.misses += 1
            value = compute(key)
            self._store(key, fingerprint, value, ttl, None, count_put=False)
            return value

    def put(self, key, value, ttl: Optional[float] = None,
            size: Optional[int] = None) -> None:
        """Store ``value`` under ``key``, inserting or overwriting.

        Args:
            ttl: per-entry override of the shard's default TTL.
            size: byte size to account for this entry; defaults to
                ``sizeof(value)`` when byte capacity is tracked.
        """
        fingerprint = key_fingerprint(key)
        with self._lock:
            self.policy.observe(0, fingerprint, True)
            self._store(key, fingerprint, value, ttl, size, count_put=True)

    def delete(self, key) -> bool:
        """Remove ``key``; returns True if it was (validly) resident."""
        with self._lock:
            entry, way = self._live_entry(key)
            if entry is None:
                return False
            self._remove_way(way)
            self.deletes += 1
            return True

    def contains(self, key) -> bool:
        """Whether ``key`` is resident and unexpired (no policy events)."""
        with self._lock:
            return self._live_entry(key)[0] is not None

    def peek_stale(self, key):
        """(found, value) for ``key`` even if expired — non-destructively.

        The stale-while-revalidate read: no policy events fire, no lazy
        expiry runs, counters stay untouched, so probing for a stale
        fallback before a loader attempt cannot perturb replacement
        decisions (and cannot destroy the stale value the probe is
        looking for, which the destructive :meth:`get` path would).
        """
        with self._lock:
            way = self._key_to_way.get(key)
            if way is None:
                return False, None
            return True, self._slots[way].value

    def record_stale_serve(self) -> None:
        """Count one expired entry served in degraded mode."""
        with self._lock:
            self.stale_hits += 1

    def record_degraded(self) -> None:
        """Count one request answered degraded (loader down, no stale)."""
        with self._lock:
            self.degraded += 1

    def occupancy(self) -> int:
        """Number of resident entries (expired-but-untouched included)."""
        with self._lock:
            return len(self._key_to_way)

    def resident_keys(self) -> list:
        """Keys currently resident (snapshot; order unspecified)."""
        with self._lock:
            return list(self._key_to_way)

    def selector_switches(self) -> int:
        """Imitation-target changes of this shard's policy (0 if fixed)."""
        counter = getattr(self.policy, "selector_switches", None)
        return counter() if callable(counter) else 0

    def snapshot(self) -> dict:
        """One consistent dict of all counters plus occupancy."""
        with self._lock:
            return {
                "gets": self.gets,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "inserts": self.inserts,
                "updates": self.updates,
                "deletes": self.deletes,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "stale_hits": self.stale_hits,
                "degraded": self.degraded,
                "occupancy": len(self._key_to_way),
                "occupancy_bytes": self.bytes_used,
                "policy_switches": self.selector_switches(),
            }

    def state_dict(self) -> dict:
        """Pickle-safe snapshot of the entire shard: entries, way
        allocation, counters and the policy's replacement state.

        TTLs are stored as *remaining* seconds relative to the shard
        clock at snapshot time — monotonic clocks do not survive a
        process restart, so absolute deadlines would be meaningless in
        the recovering process. Already-expired-but-untouched entries
        keep their (non-positive) remaining TTL and are restored still
        expired, preserving lazy-expiry decision identity.

        The free-list order is captured verbatim: way allocation is part
        of the oracle-equivalence contract, so a restored shard must
        hand out exactly the ways the original would have.
        """
        with self._lock:
            now = self._clock()
            entries = []
            for entry in self._slots:
                if entry is None:
                    entries.append(None)
                else:
                    remaining = (
                        None if entry.expires_at is None
                        else entry.expires_at - now
                    )
                    entries.append(
                        [entry.key, entry.value, entry.fingerprint,
                         entry.size, remaining]
                    )
            return {
                "entries": entries,
                "free": list(self._free),
                "bytes_used": self.bytes_used,
                "counters": {
                    "gets": self.gets,
                    "hits": self.hits,
                    "misses": self.misses,
                    "puts": self.puts,
                    "inserts": self.inserts,
                    "updates": self.updates,
                    "deletes": self.deletes,
                    "evictions": self.evictions,
                    "expirations": self.expirations,
                    "stale_hits": self.stale_hits,
                    "degraded": self.degraded,
                },
                "policy": self.policy.state_dict(),
            }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this shard.

        The shard must have been constructed with the same capacity and
        an identically-configured policy; afterwards it issues the same
        replacement decisions as the shard that produced the snapshot.
        """
        with self._lock:
            now = self._clock()
            # Cleared in place: the view counts occupancy through it.
            self._key_to_way.clear()
            self.bytes_used = 0
            for way, row in enumerate(state["entries"]):
                if row is None:
                    self._slots[way] = None
                    continue
                key, value, fingerprint, size, remaining = row
                expires_at = None if remaining is None else now + remaining
                self._slots[way] = _Entry(
                    key, value, fingerprint, size, expires_at
                )
                self._key_to_way[key] = way
            self.bytes_used = int(state["bytes_used"])
            self._free = list(state["free"])
            counters = state["counters"]
            self.gets = int(counters["gets"])
            self.hits = int(counters["hits"])
            self.misses = int(counters["misses"])
            self.puts = int(counters["puts"])
            self.inserts = int(counters["inserts"])
            self.updates = int(counters["updates"])
            self.deletes = int(counters["deletes"])
            self.evictions = int(counters["evictions"])
            self.expirations = int(counters["expirations"])
            self.stale_hits = int(counters["stale_hits"])
            self.degraded = int(counters["degraded"])
            self.policy.load_state_dict(state["policy"])

    # ------------------------------------------------------------------
    # Internals (caller holds the lock)
    # ------------------------------------------------------------------

    def _live_entry(self, key):
        """(entry, way) for a resident, unexpired key; expires lazily."""
        way = self._key_to_way.get(key)
        if way is None:
            return None, None
        entry = self._slots[way]
        if entry.expires_at is not None and self._clock() >= entry.expires_at:
            self._remove_way(way)
            self.expirations += 1
            return None, None
        return entry, way

    def _store(self, key, fingerprint, value, ttl, size, count_put):
        expires_at = self._expiry(ttl)
        if size is None:
            size = self._sizeof(value) if self._sizeof is not None else 0
        if count_put:
            self.puts += 1
        entry, way = self._live_entry(key)
        if entry is not None:
            self.bytes_used += size - entry.size
            entry.value = value
            entry.size = size
            entry.expires_at = expires_at
            self.policy.on_hit(0, way)
            if count_put:
                self.updates += 1
            self._evict_for_bytes(protect_way=way)
            return
        way = self._claim_way()
        self._slots[way] = _Entry(key, value, fingerprint, size, expires_at)
        self._key_to_way[key] = way
        self.bytes_used += size
        self.policy.on_fill(0, way, fingerprint)
        if count_put:
            self.inserts += 1
        self._evict_for_bytes(protect_way=way)

    def _claim_way(self) -> int:
        """A free way, evicting the policy's victim if the shard is full."""
        if self._free:
            return self._free.pop()
        way = self.policy.victim(0, self._view)
        self._remove_way(way, notify_policy=False)
        self.evictions += 1
        self._free.pop()
        return way

    def _remove_way(self, way: int, notify_policy: bool = True) -> None:
        entry = self._slots[way]
        self._slots[way] = None
        del self._key_to_way[entry.key]
        self.bytes_used -= entry.size
        self._free.append(way)
        if notify_policy:
            self.policy.on_invalidate(0, way)

    def _evict_for_bytes(self, protect_way: int) -> None:
        """Shed (other) entries until the byte budget is respected."""
        if self.capacity_bytes is None:
            return
        view = _ProtectedView(self._view, protect_way)
        while (self.bytes_used > self.capacity_bytes
               and len(self._key_to_way) > 1):
            way = self.policy.victim(0, view)
            self._remove_way(way)
            self.evictions += 1

    def _expiry(self, ttl: Optional[float]) -> Optional[float]:
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        effective = ttl if ttl is not None else self.default_ttl
        if effective is None:
            return None
        return self._clock() + effective

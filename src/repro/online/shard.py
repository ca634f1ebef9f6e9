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


def check_ttl(ttl: Optional[float]) -> None:
    """Refuse a non-positive per-entry TTL (None: the default)."""
    if ttl is not None and ttl <= 0:
        raise ValueError(f"ttl must be positive, got {ttl}")


class _Entry:
    """One resident key-value pair (internal)."""

    __slots__ = ("key", "value", "fingerprint", "expires_at")

    def __init__(self, key, value, fingerprint, expires_at):
        self.key = key
        self.value = value
        self.fingerprint = fingerprint
        self.expires_at = expires_at


class ShardView(SetView):
    """The shard's slot table, viewed as one cache set.

    ``tag_at`` returns the resident entry's *full* fingerprint; the
    policy applies its own tag transform, mirroring how the simulator's
    real cache stores full tags while shadow arrays store partial ones.
    """

    def __init__(self, slots: List[Optional[_Entry]]):
        self._slots = slots

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


class CacheShard:
    """A thread-safe, policy-managed pool of at most ``capacity`` entries.

    Args:
        capacity: entry capacity; must equal ``policy.ways``.
        policy: the replacement policy managing the shard, built for a
            1 x ``capacity`` geometry (``num_sets=1``).
        default_ttl: seconds before an entry expires, or None for no
            expiry. Expiry is lazy: expired entries are dropped when a
            lookup or store touches their key.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        capacity: int,
        policy: ReplacementPolicy,
        default_ttl: Optional[float] = None,
        clock: Callable[[], float] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy.num_sets != 1 or policy.ways != capacity:
            raise ValueError(
                f"shard policy geometry ({policy.num_sets}x{policy.ways}) "
                f"must be 1x{capacity}"
            )
        if default_ttl is not None and default_ttl <= 0:
            raise ValueError(f"default_ttl must be positive, got {default_ttl}")
        self.capacity = capacity
        self.policy = policy
        self.default_ttl = default_ttl
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._slots: List[Optional[_Entry]] = [None] * capacity
        self._key_to_way = {}
        self._view = ShardView(self._slots)
        self._free = list(range(capacity - 1, -1, -1))
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
        # stale serves never inflate the real hit rate. No WAL record
        # replays them, so state_dict() leaves them out.
        self.stale_hits = 0
        self.degraded = 0

    # ------------------------------------------------------------------
    # Public, thread-safe operations
    # ------------------------------------------------------------------
    # get, get_or_compute, put and peek_stale run on every request, so
    # they take the lock with acquire/try/finally: on CPython 3.11 that
    # costs about half of ``with self._lock``.

    def get(self, key, default=None):
        """Value stored under ``key``, or ``default`` on a miss."""
        fingerprint = key_fingerprint(key)
        lock = self._lock
        lock.acquire()
        try:
            self.gets += 1
            self.policy.observe(0, fingerprint, False)
            way = self._key_to_way.get(key)
            if way is not None:
                entry = self._slots[way]
                if (entry.expires_at is None
                        or self._clock() < entry.expires_at):
                    self.hits += 1
                    self.policy.on_hit(0, way)
                    return entry.value
                self._expire(way)
            self.misses += 1
            return default
        finally:
            lock.release()

    def get_or_compute(self, key, loader, ttl: Optional[float] = None):
        """Return the cached value, loading and inserting on a miss.

        This is the demand-caching access the paper's theory assumes —
        every miss fills — and the memoization primitive the engine
        exposes. ``loader`` runs under the shard lock (no stampede per
        shard); it must not reenter the cache. A non-positive ``ttl``
        is refused before the lookup, so the refusal changes nothing.
        """
        if ttl is not None:
            check_ttl(ttl)
        fingerprint = key_fingerprint(key)
        lock = self._lock
        lock.acquire()
        try:
            self.gets += 1
            self.policy.observe(0, fingerprint, False)
            way = self._key_to_way.get(key)
            if way is not None:
                entry = self._slots[way]
                if (entry.expires_at is None
                        or self._clock() < entry.expires_at):
                    self.hits += 1
                    self.policy.on_hit(0, way)
                    return entry.value
                self._expire(way)
            self.misses += 1
            value = loader(key)
            self._store(key, fingerprint, value, ttl, False)
            return value
        finally:
            lock.release()

    def put(self, key, value, ttl: Optional[float] = None) -> None:
        """Store ``value`` under ``key``, inserting or overwriting.

        Args:
            ttl: per-entry override of the shard's default TTL; a
                non-positive one is refused before the policy sees the
                store, so the refusal changes nothing.
        """
        if ttl is not None:
            check_ttl(ttl)
        fingerprint = key_fingerprint(key)
        lock = self._lock
        lock.acquire()
        try:
            self.policy.observe(0, fingerprint, True)
            self._store(key, fingerprint, value, ttl, True)
        finally:
            lock.release()

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
        """Whether ``key`` is resident and unexpired (no policy events;
        a lapsed entry is left for get, put or delete to expire)."""
        with self._lock:
            way = self._key_to_way.get(key)
            if way is None:
                return False
            expires_at = self._slots[way].expires_at
            return expires_at is None or self._clock() < expires_at

    def peek_stale(self, key):
        """(found, value) for ``key`` even if expired — non-destructively.

        The stale-while-revalidate read: no policy events fire, no lazy
        expiry runs, counters stay untouched, so probing for a stale
        fallback before a loader attempt cannot perturb replacement
        decisions (and cannot destroy the stale value the probe is
        looking for, which the destructive :meth:`get` path would).
        """
        lock = self._lock
        lock.acquire()
        try:
            way = self._key_to_way.get(key)
            if way is None:
                return False, None
            return True, self._slots[way].value
        finally:
            lock.release()

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

    __contains__ = contains
    __len__ = occupancy

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
                "policy_switches": self.selector_switches(),
            }

    def state_dict(self) -> dict:
        """Pickle-safe snapshot of the shard as its WAL rebuilds it:
        entries, way allocation, request counters and the policy's
        replacement state (not ``stale_hits`` or ``degraded``, which no
        WAL record replays).

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
                        [entry.key, entry.value, entry.fingerprint, remaining]
                    )
            return {
                "entries": entries,
                "free": list(self._free),
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
            self._key_to_way.clear()
            for way, row in enumerate(state["entries"]):
                if row is None:
                    self._slots[way] = None
                    continue
                key, value, fingerprint, remaining = row
                expires_at = None if remaining is None else now + remaining
                self._slots[way] = _Entry(key, value, fingerprint, expires_at)
                self._key_to_way[key] = way
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
            self._expire(way)
            return None, None
        return entry, way

    def _expire(self, way: int) -> None:
        """Drop the lapsed entry in ``way``."""
        self._remove_way(way)
        self.expirations += 1

    def _store(self, key, fingerprint, value, ttl, count_put):
        # _live_entry and _expiry, written out: every put passes here.
        if ttl is None and self.default_ttl is None:
            expires_at = None
        else:
            expires_at = self._expiry(ttl)
        if count_put:
            self.puts += 1
        way = self._key_to_way.get(key)
        if way is not None:
            entry = self._slots[way]
            if entry.expires_at is None or self._clock() < entry.expires_at:
                entry.value = value
                entry.expires_at = expires_at
                self.policy.on_hit(0, way)
                if count_put:
                    self.updates += 1
                return
            self._expire(way)
        if self._free:
            way = self._free.pop()
            self._slots[way] = _Entry(key, value, fingerprint, expires_at)
        else:
            # Full: the policy's victim is evicted and its entry reused
            # in place (the policy always chooses from a full set, as
            # in the simulator; it is not told of the removal).
            way = self.policy.victim(0, self._view)
            entry = self._slots[way]
            del self._key_to_way[entry.key]
            self.evictions += 1
            entry.key = key
            entry.value = value
            entry.fingerprint = fingerprint
            entry.expires_at = expires_at
        self._key_to_way[key] = way
        self.policy.on_fill(0, way, fingerprint)
        if count_put:
            self.inserts += 1

    def _remove_way(self, way: int) -> None:
        entry = self._slots[way]
        self._slots[way] = None
        del self._key_to_way[entry.key]
        self._free.append(way)
        self.policy.on_invalidate(0, way)

    def _expiry(self, ttl: Optional[float]) -> Optional[float]:
        effective = ttl if ttl is not None else self.default_ttl
        if effective is None:
            return None
        return self._clock() + effective

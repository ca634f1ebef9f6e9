"""The sharded, thread-safe adaptive key-value cache.

:class:`AdaptiveKVCache` is the paper's machinery lifted into a serving
shape: keys are fingerprinted (:mod:`repro.online.keyspace`), routed to
one of N locked shards (:mod:`repro.online.shard`), and each shard's
contents are managed by a replacement policy — fixed, fully adaptive
(Algorithm 1 with shadow directories per shard), or sampled (leader
shards train a global PSEL selector that everyone else imitates,
Section 4.7 at shard granularity).

Capacity is expressed in entries; entries may carry TTLs. ``stats()``
returns one merged :class:`~repro.online.stats.KVCacheStats` snapshot.

Example::

    cache = AdaptiveKVCache(capacity_entries=4096, num_shards=8)
    cache.put("user:17", profile)
    profile = cache.get("user:17")
    value = cache.get_or_compute(("q", 42), expensive)
    print(cache.stats().hit_ratio)
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.sbar import DuelingResidentPolicy, spread_leader_sets
from repro.core.selector import GlobalSelector
from repro.online.keyspace import key_fingerprint, shard_routing
from repro.online.policies import LockedVoteSink, build_shard_policy
from repro.online.shard import CacheShard
from repro.online.stats import KVCacheStats
from repro.utils.bitops import is_power_of_two

#: Engine modes: every shard adaptive, sampled leaders + followers, or
#: a fixed registry policy in every shard.
MODES = ("adaptive", "sampled", "fixed")


class AdaptiveKVCache:
    """An in-process, sharded, adaptive key-value cache.

    Args:
        capacity_entries: total entry capacity, spread over the shards
            (shards differing by at most one entry).
        num_shards: power-of-two shard count; each shard has its own
            lock, so this bounds write concurrency.
        policy: ``"adaptive"`` (default — Algorithm 1 per shard),
            ``"sampled"`` (SBAR-style leaders + followers) or any
            registry policy name (``"lru"``, ``"lfu"``, ...).
        components: the two-or-more component policies the adaptive
            modes select between.
        partial_bits: shadow-directory fingerprint width (None = full
            64-bit fingerprints; 16 keeps Section 3.1's storage story).
        num_leader_shards: leader count for ``"sampled"``.
        default_ttl: seconds before entries expire (lazily), or None.
        history_factory: per-shard miss-history override (the theory
            bound check passes a counter history here).
        seed: deterministic seed for stochastic components.
        clock: monotonic time source (injectable for TTL tests).
    """

    def __init__(
        self,
        capacity_entries: int = 1024,
        num_shards: int = 8,
        policy: str = "adaptive",
        components: Sequence[str] = ("lru", "lfu"),
        partial_bits: Optional[int] = 16,
        num_leader_shards: int = 2,
        default_ttl: Optional[float] = None,
        history_factory=None,
        seed: int = 0,
        clock: Callable[[], float] = None,
    ):
        if not is_power_of_two(num_shards):
            raise ValueError(
                f"num_shards must be a power of two, got {num_shards}"
            )
        if capacity_entries < num_shards:
            raise ValueError(
                f"capacity_entries ({capacity_entries}) must be at least "
                f"num_shards ({num_shards})"
            )
        mode = "fixed" if policy not in ("adaptive", "sampled") else policy
        if mode == "sampled" and len(components) != 2:
            raise ValueError("sampled mode adapts over exactly two components")
        self.policy_kind = policy
        self.mode = mode
        self.components = tuple(components)
        self.num_shards = num_shards
        # Worked out once: every request routes through shard_index,
        # often more than once.
        self._route_shift, self._route_mask = shard_routing(num_shards)
        self.capacity_entries = capacity_entries
        # The JSON-serializable constructor arguments, retained so the
        # persistence layer can record them in a snapshot manifest and
        # rebuild an identically-configured engine at recovery time.
        # Callable arguments cannot be serialized: recover() takes the
        # clock as an override, and an engine with a history_factory
        # cannot be persisted.
        self.config = {
            "capacity_entries": capacity_entries,
            "num_shards": num_shards,
            "policy": policy,
            "components": list(components),
            "partial_bits": partial_bits,
            "num_leader_shards": num_leader_shards,
            "default_ttl": default_ttl,
            "seed": seed,
        }

        self.global_selector: Optional[GlobalSelector] = None
        vote_sink = None
        leaders = ()
        if mode == "sampled":
            self.global_selector = GlobalSelector()
            vote_sink = LockedVoteSink(self.global_selector)
            leaders = frozenset(
                spread_leader_sets(num_shards,
                                   min(num_leader_shards, num_shards))
            )
        self.leader_shards: Tuple[int, ...] = tuple(sorted(leaders))

        # Build context retained so rebuild_shard() can construct a
        # replacement shard identical to the original (quarantine
        # recovery swaps shard objects rather than scrubbing in place).
        self._leaders = leaders
        self._vote_sink = vote_sink
        self._partial_bits = partial_bits
        self._history_factory = history_factory
        self._seed = seed
        self._clock = clock if clock is not None else time.monotonic
        self._default_ttl = default_ttl

        base, remainder = divmod(capacity_entries, num_shards)
        self.shards: List[CacheShard] = []
        for index in range(num_shards):
            self.shards.append(self._build_shard(index, base, remainder))

    def _build_shard(self, index: int, base: int, remainder: int) -> CacheShard:
        """Construct shard ``index`` from the retained build context."""
        capacity = base + (1 if index < remainder else 0)
        shard_policy = self._build_policy(
            index, capacity, self._leaders, self._partial_bits,
            self._history_factory, self._seed, self._vote_sink,
        )
        return CacheShard(
            capacity,
            shard_policy,
            default_ttl=self._default_ttl,
            clock=self._clock,
        )

    def rebuild_shard(self, index: int) -> CacheShard:
        """Replace shard ``index`` with a freshly built one.

        The quarantine-recovery primitive: the old shard object (and
        whatever corruption it carries) is dropped wholesale; the new
        shard starts empty, counters included. In-flight operations
        holding the old shard's lock finish against the old object;
        new routes see the replacement.

        Returns:
            The new shard.
        """
        if not 0 <= index < self.num_shards:
            raise IndexError(f"shard index {index} out of range")
        base, remainder = divmod(self.capacity_entries, self.num_shards)
        shard = self._build_shard(index, base, remainder)
        self.shards[index] = shard
        return shard

    def _build_policy(self, index, capacity, leaders, partial_bits,
                      history_factory, seed, vote_sink):
        """The replacement policy for shard ``index``."""
        if self.mode == "fixed":
            return build_shard_policy(
                self.policy_kind, capacity, seed=seed + index
            )
        if self.mode == "adaptive" or index in leaders:
            return build_shard_policy(
                "adaptive",
                capacity,
                components=self.components,
                partial_bits=partial_bits,
                history_factory=history_factory,
                seed=seed + index,
                vote_sink=vote_sink if index in leaders else None,
            )
        return DuelingResidentPolicy(
            [build_shard_policy(name, capacity, seed=seed + index)
             for name in self.components],
            self.global_selector,
        )

    # ------------------------------------------------------------------
    # The serving API
    # ------------------------------------------------------------------

    def shard_index(self, key) -> int:
        """Index of the shard responsible for ``key``.

        The one routing rule: every layer over the engine (persistence,
        live recovery, the resilient ladder, cluster nodes) asks here
        rather than recomputing it.
        """
        return (key_fingerprint(key) >> self._route_shift) & self._route_mask

    def _shard_for(self, key) -> CacheShard:
        """The shard responsible for ``key``."""
        return self.shards[self.shard_index(key)]

    # get, put and get_or_compute route inline (shard_index's rule,
    # written out): they are every request's path.

    def get(self, key, default=None):
        """Value stored under ``key``, or ``default`` on a miss."""
        return self.shards[
            (key_fingerprint(key) >> self._route_shift) & self._route_mask
        ].get(key, default)

    def put(self, key, value, ttl: Optional[float] = None) -> None:
        """Store ``value`` under ``key`` (insert or overwrite).

        Args:
            ttl: per-entry TTL override, seconds.
        """
        self.shards[
            (key_fingerprint(key) >> self._route_shift) & self._route_mask
        ].put(key, value, ttl)

    def get_or_compute(self, key, loader, ttl: Optional[float] = None):
        """Return the cached value, loading and caching it on a miss.

        ``loader(key)`` runs under the key's shard lock — concurrent
        callers of the same shard wait rather than stampede — so it
        must not call back into this cache.
        """
        return self.shards[
            (key_fingerprint(key) >> self._route_shift) & self._route_mask
        ].get_or_compute(key, loader, ttl)

    def delete(self, key) -> bool:
        """Remove ``key``; returns True if it was resident."""
        return self._shard_for(key).delete(key)

    def __contains__(self, key) -> bool:
        """Whether ``key`` is resident and unexpired (no policy events)."""
        return self._shard_for(key).contains(key)

    def __len__(self) -> int:
        """Total resident entries across shards."""
        return sum(shard.occupancy() for shard in self.shards)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> KVCacheStats:
        """Merged counter snapshot across all shards.

        Each shard is snapshotted under its own lock; the merge itself
        is not a global atomic cut (shards keep serving while others
        are read), which is the standard sharded-stats trade-off.
        """
        totals = {}
        per_shard_occupancy = []
        for shard in self.shards:
            snap = shard.snapshot()
            per_shard_occupancy.append(snap["occupancy"])
            for field, value in snap.items():
                totals[field] = totals.get(field, 0) + value
        if self.global_selector is not None:
            totals["policy_switches"] = (
                totals.get("policy_switches", 0) + self.global_selector.switches
            )
        return KVCacheStats(
            gets=totals.get("gets", 0),
            hits=totals.get("hits", 0),
            misses=totals.get("misses", 0),
            puts=totals.get("puts", 0),
            inserts=totals.get("inserts", 0),
            updates=totals.get("updates", 0),
            deletes=totals.get("deletes", 0),
            evictions=totals.get("evictions", 0),
            expirations=totals.get("expirations", 0),
            stale_hits=totals.get("stale_hits", 0),
            degraded=totals.get("degraded", 0),
            policy_switches=totals.get("policy_switches", 0),
            occupancy=totals.get("occupancy", 0),
            capacity_entries=self.capacity_entries,
            shards=self.num_shards,
            per_shard_occupancy=per_shard_occupancy,
        )

    # ------------------------------------------------------------------
    # Crash-recovery state capture
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Pickle-safe snapshot of every shard plus the global selector.

        Shards are snapshotted one at a time under their own locks
        (same consistency model as :meth:`stats`); quiesce writes first
        if a globally atomic cut is required — the persistence layer's
        snapshot path does exactly that.
        """
        state = {
            "config": dict(self.config),
            "shards": [shard.state_dict() for shard in self.shards],
        }
        if self.global_selector is not None:
            state["global_selector"] = self.global_selector.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this engine.

        The engine must have been constructed with the same
        configuration (shard count, capacities, policy kind, seed);
        :func:`repro.online.persistence.recover` checks this against
        the manifest before calling here. Afterwards the engine issues
        byte-identical replacement decisions to the one that produced
        the snapshot.
        """
        saved = state.get("config")
        if saved is not None and saved != self.config:
            raise ValueError(
                "engine configuration does not match the snapshot: "
                f"snapshot {saved!r} vs engine {self.config!r}"
            )
        for shard, shard_state in zip(self.shards, state["shards"]):
            shard.load_state_dict(shard_state)
        if self.global_selector is not None:
            self.global_selector.load_state_dict(state["global_selector"])

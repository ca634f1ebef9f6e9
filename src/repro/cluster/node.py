"""One member of the simulated cache cluster.

A :class:`ClusterNode` wraps a single-shard
:class:`~repro.online.engine.AdaptiveKVCache` — optionally behind the
crash-safe :class:`~repro.online.persistence.PersistentKVCache`
(``RKVSNAP1`` snapshots + WAL) — and adds the three things the cluster
layer needs from a member:

* **Versioned records.** Values are stored as ``(version, value)``
  pairs; versions are issued by the router
  (:class:`~repro.cluster.cache.ClusterKVCache`) so replicas of the
  same key are comparable and read-repair can pick a winner.
* **Lifecycle.** A node is ``up``, ``down`` (crashed: its engine is
  gone, only its persistence directory survives), ``partitioned``
  (healthy but unreachable from the router) or ``rejoining``
  (restarted, not yet admitted back as a replica). Every status
  change goes through one transition check, :data:`LIFECYCLE`.
  ``crash()`` abandons the persistent wrapper *un-flushed*, as a
  process kill does: buffered WAL records die with the process.

Nodes are single-shard on purpose: sharding happens *across* nodes
now, and one shard per node keeps each node's event stream couplable
to one oracle :class:`~repro.oracle.spec.SpecCache`.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Tuple

from repro.online.engine import AdaptiveKVCache
from repro.online.persistence import PersistentKVCache, recover

#: :meth:`ClusterNode.get`'s probe-miss sentinel (None is a value).
_MISS = object()

#: The lifecycle: each transition's name -> (the states it may
#: leave, the state it enters).
LIFECYCLE = {
    "crash": (("up", "partitioned", "down", "rejoining"), "down"),
    "restart": (("down",), "rejoining"),
    "partition": (("up",), "partitioned"),
    "heal": (("partitioned",), "up"),
    "admit": (("rejoining",), "up"),
}


class NodeDownError(RuntimeError):
    """An operation reached a node whose process is dead."""


class ClusterNode:
    """One cluster member: a versioned, optionally durable cache node.

    What a node keeps is bounded by its capacity: nothing on the
    serving path grows with traffic.

    Args:
        node_id: stable identifier (also the ring membership key).
        capacity_entries: entry capacity of the node's cache.
        policy: engine policy kind (``"adaptive"``, over LRU and LFU
            with 16-bit fingerprints, or a registry name).
        seed: deterministic seed for the node's policy machinery.
        directory: persistence directory; ``None`` keeps the node
            memory-only (a crash then loses everything it held).
        snapshot_every: automatic snapshot cadence (persistent only).
        wal_flush_ops: WAL flush cadence (persistent only); the
            unflushed window is what a crash loses.
        latency: optional :class:`~repro.cluster.latency.LatencyModel`
            consulted by the router for hedging decisions.
        clock: monotonic time source for the engine (virtual in
            simulations).
        fault: optional callable ``(op, key) -> None`` invoked before
            every operation; raising makes the node misbehave (a
            flaky replica).
    """

    def __init__(
        self,
        node_id: str,
        capacity_entries: int = 64,
        policy: str = "adaptive",
        seed: int = 0,
        directory: Optional[str] = None,
        snapshot_every: Optional[int] = 400,
        wal_flush_ops: int = 8,
        latency=None,
        clock: Callable[[], float] = None,
        fault: Optional[Callable] = None,
    ):
        self.node_id = node_id
        self.directory = None if directory is None else os.fspath(directory)
        self.snapshot_every = snapshot_every
        self.wal_flush_ops = wal_flush_ops
        self.latency = latency
        self.fault = fault
        self.status = "up"
        self._clock = clock
        self._engine_kwargs = dict(
            capacity_entries=capacity_entries,
            num_shards=1,
            policy=policy,
            components=("lru", "lfu"),
            partial_bits=16,
            seed=seed,
        )
        self.engine = AdaptiveKVCache(clock=clock, **self._engine_kwargs)
        self.store = self.engine if self.directory is None else (
            PersistentKVCache(
                self.engine,
                self.directory,
                snapshot_every=snapshot_every,
                wal_flush_ops=wal_flush_ops,
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _transition(self, name: str, effect: Optional[Callable] = None
                    ) -> None:
        """The one place a node's status changes: make transition
        ``name`` of :data:`LIFECYCLE`, running ``effect`` first.

        Raises:
            RuntimeError: the node is in a state ``name`` cannot leave
                (nothing ran).
        """
        sources, target = LIFECYCLE[name]
        if self.status not in sources:
            raise RuntimeError(
                f"cannot {name} node {self.node_id!r} in state "
                f"{self.status!r}"
            )
        if effect is not None:
            effect()
        self.status = target

    def crash(self) -> None:
        """Kill the node, from any state: abandon the engine, buffered
        WAL and all.

        Models a process death: the persistent wrapper is dropped with
        its buffer *un-flushed* (records since the last flush die), the
        engine object is gone, and only the on-disk snapshot/WAL chain
        survives for :meth:`restart`.
        """
        def die():
            if isinstance(self.store, PersistentKVCache):
                self.store.abandon()
            self.engine = self.store = None

        self._transition("crash", die)

    def restart(self) -> None:
        """Start a crashed node again, ``down`` -> ``rejoining``.

        A durable node rebuilds from its own snapshot + WAL chain; a
        memory-only one has nothing to recover from and starts empty.
        The router admits it once its peers have refilled it
        (:meth:`~repro.cluster.cache.ClusterKVCache.recover`).
        """
        def boot():
            if self.directory is None:
                self.engine = self.store = AdaptiveKVCache(
                    clock=self._clock, **self._engine_kwargs
                )
                return
            self.store = recover(
                self.directory,
                snapshot_every=self.snapshot_every,
                wal_flush_ops=self.wal_flush_ops,
                clock=self._clock,
            )
            self.engine = self.store.cache

        self._transition("restart", boot)

    def partition(self) -> None:
        """Cut a serving node off from the router, ``up`` ->
        ``partitioned``; it keeps its state."""
        self._transition("partition")

    def heal(self) -> None:
        """Reconnect a partitioned node, ``partitioned`` -> ``up``."""
        self._transition("heal")

    def admit(self) -> None:
        """Serve again as a replica, ``rejoining`` -> ``up``."""
        self._transition("admit")

    def close(self) -> None:
        """Flush and release the persistent wrapper, if any."""
        if isinstance(self.store, PersistentKVCache):
            self.store.close()

    # ------------------------------------------------------------------
    # Versioned record operations
    # ------------------------------------------------------------------

    def _check_serving(self, op: str, key) -> None:
        """Refuse ``op`` on a dead node, else run the armed fault.
        Callers skip the call when neither holds."""
        if self.engine is None:
            raise NodeDownError(f"node {self.node_id!r} is down")
        if self.fault is not None:
            self.fault(op, key)

    def get(self, key) -> Tuple[bool, Optional[tuple]]:
        """Policy-visible read: ``(found, (version, value))``."""
        if self.engine is None or self.fault is not None:
            self._check_serving("get", key)
        record = self.store.get(key, _MISS)
        if record is _MISS:
            return False, None
        return True, record

    def put(self, key, version: int, value) -> None:
        """Store ``value`` under ``key`` at ``version``."""
        if self.engine is None or self.fault is not None:
            self._check_serving("put", key)
        self.store.put(key, (version, value))

    def delete(self, key) -> bool:
        """Remove ``key``; True if it was resident."""
        if self.engine is None or self.fault is not None:
            self._check_serving("del", key)
        return self.store.delete(key)

    def peek(self, key) -> Tuple[bool, Optional[tuple]]:
        """Raw replica read: no policy events.

        The read-repair / convergence probe — observing a replica's
        contents must not perturb its replacement decisions, exactly
        like :meth:`~repro.online.shard.CacheShard.peek_stale` in the
        single-node resilience layer. Works on partitioned nodes (the
        *router* can't reach them; the observer can) but not on dead
        ones.
        """
        engine = self.engine
        if engine is None:
            return False, None
        return engine.shards[engine.shard_index(key)].peek_stale(key)

    def resident_keys(self) -> list:
        """Keys resident on this node (no policy events)."""
        if self.engine is None:
            return []
        keys: list = []
        for shard in self.engine.shards:
            keys.extend(shard.resident_keys())
        return keys

    def stats(self):
        """The engine's merged counter snapshot (None when down)."""
        if self.engine is None:
            return None
        return self.engine.stats()

    def __repr__(self) -> str:
        return f"ClusterNode({self.node_id!r}, status={self.status!r})"

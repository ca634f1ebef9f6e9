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
* **Lifecycle.** A node is ``up``, ``down`` (crashed — its engine is
  gone, only its persistence directory survives), ``partitioned``
  (healthy but unreachable from the router) or ``rejoining``
  (recovered from disk, not yet readmitted to the ring). ``crash()``
  abandons the persistent wrapper *un-flushed*, exactly like the
  single-node chaos campaign kills: buffered WAL records die with the
  process.
* **An operation log.** Every applied engine operation is recorded in
  order, which is what lets the chaos campaign (a) replay each node's
  decision stream against the :mod:`repro.oracle` specs and (b) prove
  a recovered node is *byte-identical* to a reference engine that
  replayed exactly the persisted prefix.

Nodes are single-shard on purpose: sharding happens *across* nodes
now, and one shard per node keeps each node's event stream couplable
to one oracle :class:`~repro.oracle.spec.SpecCache`.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple

from repro.online.engine import AdaptiveKVCache
from repro.online.keyspace import key_fingerprint, shard_of
from repro.online.persistence import PersistentKVCache, recover

#: Node lifecycle states.
NODE_STATES = ("up", "down", "partitioned", "rejoining")


class NodeDownError(RuntimeError):
    """An operation reached a node whose process is dead."""


class ClusterNode:
    """One cluster member: a versioned, optionally durable cache node.

    Args:
        node_id: stable identifier (also the ring membership key).
        capacity_entries: entry capacity of the node's cache.
        policy: engine policy kind (``"adaptive"`` or a registry name).
        components: adaptive component policies.
        partial_bits: shadow-directory fingerprint width.
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
            every operation; raising makes the node misbehave (the
            flaky-replica chaos hook).
    """

    def __init__(
        self,
        node_id: str,
        capacity_entries: int = 64,
        policy: str = "adaptive",
        components: Sequence[str] = ("lru", "lfu"),
        partial_bits: Optional[int] = 16,
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
        self._seed = seed
        self._clock = clock
        self._engine_kwargs = dict(
            capacity_entries=capacity_entries,
            num_shards=1,
            policy=policy,
            components=tuple(components),
            partial_bits=partial_bits,
            seed=seed,
        )
        #: Applied operations, in engine order: ``("get", key)``,
        #: ``("put", key, record)`` or ``("del", key, found)``.
        self.op_log: List[tuple] = []
        self.crashes = 0
        self.recoveries = 0
        self._boot(fresh=True)

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------

    def _boot(self, fresh: bool) -> None:
        """Build (or rebuild) the node's engine and wrapper."""
        self.engine = AdaptiveKVCache(
            clock=self._clock, **self._engine_kwargs
        )
        if self.directory is None:
            self.store = self.engine
        elif fresh:
            self.store = PersistentKVCache(
                self.engine,
                self.directory,
                snapshot_every=self.snapshot_every,
                wal_flush_ops=self.wal_flush_ops,
            )
        # else: recover() installs the store itself.

    @property
    def config(self) -> dict:
        """The engine configuration (reference-replay coordinates)."""
        return dict(self._engine_kwargs)

    def crash(self) -> None:
        """Kill the node: abandon the engine, buffered WAL and all.

        Models a process death: the persistent wrapper is dropped with
        its buffer *un-flushed* (records since the last flush die), the
        engine object is gone, and only the on-disk snapshot/WAL chain
        survives for :meth:`recover`.
        """
        if self.status == "down":
            return
        if isinstance(self.store, PersistentKVCache):
            self.store.abandon()
        self.engine = None
        self.store = None
        self.status = "down"
        self.crashes += 1

    def recover_from_disk(self) -> int:
        """Rebuild the node from its own snapshot + WAL chain.

        Returns:
            The number of operations the recovered state covers (the
            persisted prefix length); the in-memory operation log is
            truncated to match, since operations in the lost window
            never survived the crash.

        Raises:
            RuntimeError: the node has no persistence directory.
        """
        if self.directory is None:
            raise RuntimeError(
                f"node {self.node_id!r} is memory-only; nothing to recover"
            )
        self.store = recover(
            self.directory,
            snapshot_every=self.snapshot_every,
            wal_flush_ops=self.wal_flush_ops,
            clock=self._clock,
        )
        self.engine = self.store.cache
        stats = self.engine.stats()
        recovered = stats.gets + stats.puts + stats.deletes
        self.op_log = self._prefix(recovered)
        self.status = "rejoining"
        self.recoveries += 1
        return len(self.op_log)

    def rebuild_empty(self) -> None:
        """Restart the node with a fresh, empty engine (memory-only
        members have nothing to recover from)."""
        self.op_log = []
        self._boot(fresh=True)
        self.status = "rejoining"
        self.recoveries += 1

    def _prefix(self, counted: int) -> List[tuple]:
        """The shortest op-log prefix covering ``counted`` counted ops.

        ``del`` of an absent key is logged but counted by no engine
        counter (and is a no-op on policy state), so the prefix walks
        until the *counted* operations reach the recovered total.
        """
        if counted <= 0:
            return []
        seen = 0
        for index, op in enumerate(self.op_log):
            if op[0] != "del" or op[2]:
                seen += 1
                if seen == counted:
                    return self.op_log[: index + 1]
        return list(self.op_log)

    def close(self) -> None:
        """Flush and release the persistent wrapper, if any."""
        if isinstance(self.store, PersistentKVCache):
            self.store.close()

    # ------------------------------------------------------------------
    # Versioned record operations
    # ------------------------------------------------------------------

    _MISS = object()

    def _check_serving(self, op: str, key) -> None:
        if self.status == "down" or self.engine is None:
            raise NodeDownError(f"node {self.node_id!r} is down")
        if self.fault is not None:
            self.fault(op, key)

    def get(self, key) -> Tuple[bool, Optional[tuple]]:
        """Policy-visible read: ``(found, (version, value))``."""
        self._check_serving("get", key)
        record = self.store.get(key, self._MISS)
        self.op_log.append(("get", key))
        if record is self._MISS:
            return False, None
        return True, record

    def put(self, key, version: int, value) -> None:
        """Store ``value`` under ``key`` at ``version``."""
        self._check_serving("put", key)
        record = (version, value)
        self.store.put(key, record)
        self.op_log.append(("put", key, record))

    def delete(self, key) -> bool:
        """Remove ``key``; True if it was resident."""
        self._check_serving("del", key)
        found = self.store.delete(key)
        self.op_log.append(("del", key, found))
        return found

    def peek(self, key) -> Tuple[bool, Optional[tuple]]:
        """Raw replica read: no policy events, nothing logged.

        The read-repair / convergence probe — observing a replica's
        contents must not perturb its replacement decisions, exactly
        like :meth:`~repro.online.shard.CacheShard.peek_stale` in the
        single-node resilience layer. Works on partitioned nodes (the
        *router* can't reach them; the observer can) but not on dead
        ones.
        """
        if self.status == "down" or self.engine is None:
            return False, None
        shard = self.engine.shards[
            shard_of(key_fingerprint(key), self.engine.num_shards)
        ]
        return shard.peek_stale(key)

    def resident_keys(self) -> list:
        """Keys resident on this node (no policy events)."""
        if self.status == "down" or self.engine is None:
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

"""The replicated cluster cache: routing, quorums, hedging, repair.

:class:`ClusterKVCache` is the client-facing router over a set of
:class:`~repro.cluster.node.ClusterNode` members arranged on a
consistent-hash :class:`~repro.cluster.ring.HashRing`:

* **Writes** go to the key's N-owner preference list and are **acked**
  only when at least ``write_quorum`` owners applied them; a write
  that falls short raises :class:`WriteQuorumError` (replicas that did
  apply it keep their versioned copies — they are real writes, just
  not acknowledged ones).
* **Reads** consult owners in preference order, stopping at the first
  replica that answers. A **hedged read** duplicates the request to
  the next replica when an owner's circuit breaker is open, the owner
  is unreachable, or its (simulated-clock) latency sample exceeds the
  static ``hedge_after`` budget — the serving reply is whichever
  arrives first, so one straggler cannot drag the tail.
* **Read-repair** runs after every read: each owner is looked at
  once — a consulted owner by its reply, any other by a *peek* (no
  policy events) — and any owner holding an older version than the
  newest is rewritten with it, so divergence created by partitions
  or missed writes converges during normal traffic. A replica
  missing the key entirely is left alone — re-inserting evicted
  entries on every read would fight the replacement policy; the
  rebalance sweep refills those.
* **Recovery** restarts a crashed member and refills it from its peers
  while it is still ``rejoining``, out of the router's reach; it is
  admitted back ``up`` only once it took every copy it was owed.

Failures are tracked per node by the same
:class:`~repro.online.resilience.CircuitBreaker` the single-node
resilience layer uses (including its single-probe half-open), so a
dead or flaky member stops eating latency budget after a few failures
and hedges engage immediately.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.latency import LatencyModel, VirtualClock
from repro.cluster.node import ClusterNode
from repro.cluster.ring import HashRing
from repro.cluster.stats import ClusterStats
from repro.online.keyspace import key_fingerprint
from repro.online.resilience import CircuitBreaker
from repro.online.stats import KVCacheStats

#: :meth:`ClusterKVCache._read`'s reply slot for an owner it did not
#: consult.
_UNASKED = object()


class WriteQuorumError(RuntimeError):
    """A write reached fewer than ``write_quorum`` owners (not acked)."""

    def __init__(self, key, version: int, acks: int, quorum: int):
        super().__init__(
            f"write of {key!r} (version {version}) got {acks} ack(s), "
            f"quorum is {quorum}"
        )
        self.key = key
        self.version = version
        self.acks = acks
        self.quorum = quorum


class ClusterView:
    """Read-only observation of a cluster (no side effects, ever).

    Every route lookup goes through :meth:`owners`.

    Args:
        ring: the cluster's consistent-hash ring.
        nodes: every member, keyed by node id. The view never mutates
            either.
    """

    def __init__(self, ring: HashRing, nodes: Dict[str, ClusterNode]):
        self._ring = ring
        self._nodes = nodes

    def owners(self, key, n: int) -> List[str]:
        """The key's preference list (reachability *not* applied)."""
        return self._ring.owners(key_fingerprint(key), n)

    def is_reachable(self, node_id: str) -> bool:
        """Whether the router may send requests to this member."""
        return self._nodes[node_id].status == "up"

    def resident_keys(self) -> list:
        """Keys resident on any non-crashed member, each once.

        The order is fixed: members sorted by id, then each member's
        shard order, keeping a key's first occurrence. Sweeps over it
        (:meth:`ClusterKVCache.rebalance`) therefore run the same in
        every process, whatever ``PYTHONHASHSEED`` is.
        """
        keys: dict = {}
        for nid in sorted(self._nodes):
            keys.update(dict.fromkeys(self._nodes[nid].resident_keys()))
        return list(keys)

    def node_stats(self) -> Dict[str, Optional[KVCacheStats]]:
        """Each member's merged engine counters (None when down)."""
        return {nid: self._nodes[nid].stats() for nid in sorted(self._nodes)}


class ClusterKVCache:
    """A fault-tolerant cache cluster behind one cache-shaped API.

    Args:
        num_nodes: initial member count (ids ``n0`` .. ``n{k-1}``).
        replication: replicas per key (capped at the member count). A
            write counts as acked once a majority of them applied it
            (``write_quorum``); a read consults up to two of them
            (``read_fanout``) before declaring a miss, and the first
            *found* reply is served.
        capacity_per_node: entry capacity of each member's cache.
        policy: per-node engine policy kind (adaptive ones adapt over
            LRU and LFU with 16-bit fingerprints).
        seed: base seed; node ``i`` seeds its machinery with
            ``seed + i``.
        directory: when given, every node persists under
            ``directory/<node_id>`` (snapshots + WAL) and can crash
            and recover; ``None`` keeps members memory-only.
        snapshot_every: per-node automatic snapshot cadence.
        wal_flush_ops: per-node WAL flush cadence (1 = every write
            durable before acked — what the CI SIGKILL smoke uses).
        hedge_after: static latency budget, simulated seconds; a
            primary sample above it triggers a hedged read. None
            disables latency hedging (breaker/unreachable hedging
            stays on).
        latency_factory: ``node_index -> LatencyModel`` override; the
            default gives every node a uniform 1 ms model.

    Time is simulated on the cluster's own
    :class:`~repro.cluster.latency.VirtualClock`, ``clock``; each
    node's breaker trips after 3 consecutive failures with a
    5-simulated-second cooldown on it.
    """

    def __init__(
        self,
        num_nodes: int = 3,
        replication: int = 3,
        capacity_per_node: int = 64,
        policy: str = "adaptive",
        seed: int = 0,
        directory: Optional[str] = None,
        snapshot_every: Optional[int] = 400,
        wal_flush_ops: int = 8,
        hedge_after: Optional[float] = None,
        latency_factory: Optional[Callable[[int], LatencyModel]] = None,
    ):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        replication = min(replication, num_nodes)
        self.replication = replication
        self.write_quorum = replication // 2 + 1
        self.read_fanout = min(2, replication)
        self.hedge_after = hedge_after
        self.clock = VirtualClock()
        if latency_factory is None:
            latency_factory = lambda index: LatencyModel(  # noqa: E731
                seed=seed + 7919 * index
            )

        self.ring = HashRing()
        self.nodes: Dict[str, ClusterNode] = {}
        for index in range(num_nodes):
            node_id = f"n{index}"
            node_dir = (
                None if directory is None
                else os.path.join(os.fspath(directory), node_id)
            )
            self.nodes[node_id] = ClusterNode(
                node_id,
                capacity_entries=capacity_per_node,
                policy=policy,
                seed=seed + index,
                directory=node_dir,
                snapshot_every=snapshot_every,
                wal_flush_ops=wal_flush_ops,
                latency=latency_factory(index),
                clock=self.clock,
            )
            self.ring.add_node(node_id)
        self.view = ClusterView(self.ring, self.nodes)
        self.breakers: Dict[str, CircuitBreaker] = {
            node_id: CircuitBreaker(
                failure_threshold=3, recovery_timeout=5.0, clock=self.clock
            )
            for node_id in self.nodes
        }
        self._seq = 0
        self._stats = ClusterStats()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _note_primary_hedge(self, position: int, hedged: bool) -> bool:
        """Count one hedged read, the single increment site.

        A read is *hedged* the first time its primary (position 0) is
        bypassed or duplicated — unreachable, breaker-refused, errored,
        or answering slower than the hedge budget. Returns the updated
        ``hedged`` flag; repeat calls on an already-hedged read are
        no-ops, so one read never counts twice.
        """
        if position == 0 and not hedged:
            self._stats.hedged_reads += 1
            return True
        return hedged

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put(self, key, value) -> int:
        """Replicate ``value`` to the key's owners; ack on quorum.

        Returns:
            The version the write was issued at (acked).

        Raises:
            WriteQuorumError: fewer than ``write_quorum`` owners
                applied the write. Owners that did apply it keep their
                copies — the version is real, just unacknowledged.
        """
        return self._write(key, value, self.view.owners(key, self.replication))

    def _write(self, key, value, owners: List[str]) -> int:
        """:meth:`put` to an already-routed preference list."""
        self._stats.writes += 1
        self._seq += 1
        version = self._seq
        acks = 0
        reachable = False
        worst_latency = 0.0
        nodes, breakers = self.nodes, self.breakers
        for node_id in owners:
            node = nodes[node_id]
            breaker = breakers[node_id]
            if node.status != "up":
                breaker.record_failure()
                continue
            reachable = True
            if not breaker.allow():
                continue
            try:
                if node.latency is not None:
                    sample = node.latency.sample()
                    if sample > worst_latency:
                        worst_latency = sample
                node.put(key, version, value)
            except Exception:  # noqa: BLE001 — replica boundary
                breaker.record_failure()
                continue
            breaker.record_success()
            acks += 1
        self.clock.advance(worst_latency)
        if not reachable:
            self._stats.unavailable += 1
        if acks >= self.write_quorum:
            self._stats.acked_writes += 1
            return version
        self._stats.failed_writes += 1
        raise WriteQuorumError(key, version, acks, self.write_quorum)

    def delete(self, key) -> bool:
        """Remove ``key`` from every reachable owner."""
        removed = False
        for node_id in self.view.owners(key, self.replication):
            if not self.view.is_reachable(node_id):
                continue
            try:
                removed = self.nodes[node_id].delete(key) or removed
            except Exception:  # noqa: BLE001 — replica boundary
                self.breakers[node_id].record_failure()
        return removed

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key, default=None):
        """Read ``key`` from the cluster (first found reply wins)."""
        found, value = self._read(key, self.view.owners(key, self.replication))
        return value if found else default

    def _read(self, key, owners: List[str]) -> Tuple[bool, object]:
        """``(found, value)`` of a read over an already-routed
        preference list.

        One pass over the owners; ``replies[i]`` ends up as owner
        ``i``'s reply record (None for a miss) if it was consulted, else
        ``_UNASKED``. The serving reply is the first found one with the
        lowest latency.
        """
        self._stats.reads += 1
        nodes, breakers = self.nodes, self.breakers
        replies = [_UNASKED] * len(owners)
        consulted = 0
        budget = self.read_fanout
        hedged = False
        # Pending hedge consults: a slow primary answers, but the
        # request is still duplicated to the next replica (ignoring
        # the usual stop-on-found), and the faster reply serves.
        pending_hedge = 0
        first_latency: Optional[float] = None
        serving: Optional[tuple] = None
        serving_latency = 0.0
        slowest = 0.0
        reachable = False
        for position, node_id in enumerate(owners):
            if pending_hedge == 0 and (
                    serving is not None or consulted >= budget):
                break  # a found reply and no hedge outstanding, or fanout
            node = nodes[node_id]
            breaker = breakers[node_id]
            if node.status != "up":
                breaker.record_failure()
                hedged = self._note_primary_hedge(position, hedged)
                continue
            reachable = True
            if not breaker.allow():
                hedged = self._note_primary_hedge(position, hedged)
                continue
            latency = (
                node.latency.sample() if node.latency is not None else 0.0
            )
            try:
                found, record = node.get(key)
            except Exception:  # noqa: BLE001 — replica boundary
                breaker.record_failure()
                hedged = self._note_primary_hedge(position, hedged)
                continue
            breaker.record_success()
            replies[position] = record
            consulted += 1
            if latency > slowest:
                slowest = latency
            if found and (serving is None or latency < serving_latency):
                serving, serving_latency = record, latency
            if position == 0:
                first_latency = latency
                if (self.hedge_after is not None
                        and latency > self.hedge_after and not hedged):
                    # Slow primary: duplicate the request to the next
                    # replica even though the primary did answer.
                    hedged = self._note_primary_hedge(position, hedged)
                    pending_hedge = 1
            elif pending_hedge > 0:
                pending_hedge -= 1

        if not reachable:
            self._stats.unavailable += 1
        if serving is not None:
            # Served by whichever found reply arrives first.
            self.clock.advance(serving_latency)
            if hedged and first_latency is not None \
                    and serving_latency < first_latency:
                self._stats.hedge_wins += 1
            self._stats.read_hits += 1
            self._read_repair(key, owners, replies, serving)
            return True, serving[1]
        if consulted:
            self.clock.advance(slowest)
        self._stats.read_misses += 1
        self._read_repair(key, owners, replies, None)
        return False, None

    def _read_repair(self, key, owners: List[str], replies: list,
                     best: Optional[tuple]) -> None:
        """Converge owners holding an *older* version than the newest.

        Each owner is looked at once: a consulted owner by the reply
        it gave (``replies``, as :meth:`_read` leaves it), any other by
        a peek (no policy events), so the scan never perturbs
        replacement decisions. ``best`` is the served record (None
        after a miss); a newer resident record supersedes it, and then
        the serving replica is repaired too. Only owners holding an
        older version take a converging write.
        """
        nodes = self.nodes
        newest = None if best is None else best[0]
        diverged = False  # some holder is older than the newest
        for position, node_id in enumerate(owners):
            record = replies[position]
            if record is _UNASKED:
                record = replies[position] = nodes[node_id].peek(key)[1]
            if record is None or record[0] == newest:
                continue
            if newest is None:
                best, newest = record, record[0]
                continue
            diverged = True
            if record[0] > newest:
                best, newest = record, record[0]
        if not diverged:
            return
        for position, node_id in enumerate(owners):
            record = replies[position]
            if record is None or record[0] >= newest:
                continue
            node = nodes[node_id]
            if node.status != "up":
                continue
            try:
                node.put(key, newest, best[1])
            except Exception:  # noqa: BLE001 — replica boundary
                self.breakers[node_id].record_failure()
                continue
            self._stats.read_repairs += 1

    def get_or_compute(self, key, loader):
        """Read-through: on a cluster-wide miss, load and replicate.

        A quorum failure on the fill write does not fail the request —
        the computed value is returned regardless (and counted as a
        failed write); the next read simply misses again.
        """
        owners = self.view.owners(key, self.replication)
        found, value = self._read(key, owners)
        if found:
            return value
        value = loader(key)
        try:
            self._write(key, value, owners)
        except WriteQuorumError:
            pass
        return value

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------

    def recover(self, node_id: str) -> None:
        """Bring a crashed member back as a replica.

        A ``down`` member restarts (from its own snapshot + WAL when
        durable, empty otherwise) and is ``rejoining``; a
        :meth:`rebalance` then refills whatever it is missing from its
        peers, and it is admitted ``up`` only if it took every copy.
        Ring membership never lapsed, so no ranges moved.

        Raises:
            RuntimeError: the member is neither down nor rejoining, or
                refused a copy; then it stays ``rejoining`` (out of
                the router's reach) and a later call retries the
                refill without restarting it.
        """
        node = self.nodes[node_id]
        if node.status == "down":
            node.restart()
        elif node.status != "rejoining":
            raise RuntimeError(
                f"cannot recover node {node_id!r} in state {node.status!r}"
            )
        if node_id in self.rebalance():
            raise RuntimeError(
                f"node {node_id!r} refused a refill copy; still rejoining"
            )
        node.admit()

    def rebalance(self) -> Set[str]:
        """Converge replica placement for every resident key.

        For every key, the highest-version record held by any
        non-crashed member is copied to each ``up`` or ``rejoining``
        owner that is missing it or holds an older version (judged by
        the same one peek per member). This is the sweep form of
        read-repair: it converges divergent replicas and refills a
        rejoining node. Non-owner holders keep their (correct,
        versioned) copies; they are cache entries and age out under
        pressure.

        Returns:
            The owners that refused a copy (a flaky or dying replica;
            the next sweep, or a read-repair, retries).
        """
        refused: Set[str] = set()
        for key in self.view.resident_keys():
            # One peek per member: each one's record, and the newest.
            held: Dict[str, tuple] = {}
            for nid, node in self.nodes.items():
                found, record = node.peek(key)
                if found:
                    held[nid] = record
            best = max(held.values(), key=lambda record: record[0],
                       default=None)
            if best is None:
                continue  # an earlier copy evicted the last holder
            for nid in self.view.owners(key, self.replication):
                node = self.nodes[nid]
                if node.status not in ("up", "rejoining"):
                    continue
                record = held.get(nid)
                if record is None or record[0] < best[0]:
                    try:
                        node.put(key, best[0], best[1])
                    except Exception:  # noqa: BLE001 — replica boundary
                        refused.add(nid)
        return refused

    def stats(self) -> ClusterStats:
        """Router counters plus every member's engine snapshot."""
        snapshot = ClusterStats(
            reads=self._stats.reads,
            read_hits=self._stats.read_hits,
            read_misses=self._stats.read_misses,
            writes=self._stats.writes,
            acked_writes=self._stats.acked_writes,
            failed_writes=self._stats.failed_writes,
            hedged_reads=self._stats.hedged_reads,
            hedge_wins=self._stats.hedge_wins,
            read_repairs=self._stats.read_repairs,
            unavailable=self._stats.unavailable,
            breaker_trips=sum(
                breaker.trips for breaker in self.breakers.values()
            ),
            per_node=self.view.node_stats(),
        )
        return snapshot

    def close(self) -> None:
        """Flush and release every member's persistence, if any."""
        for node in self.nodes.values():
            if node.status != "down":
                node.close()

    def __enter__(self) -> "ClusterKVCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        """Distinct keys resident on at least one member."""
        return len(self.view.resident_keys())

    def __contains__(self, key) -> bool:
        """Whether any live member holds ``key`` (no policy events)."""
        return any(node.peek(key)[0] for node in self.nodes.values())

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
  rebalance sweep (after a rejoin) refills those.

Failures are tracked per node by the same
:class:`~repro.online.resilience.CircuitBreaker` the single-node
resilience layer uses (including its single-probe half-open), so a
dead or flaky member stops eating latency budget after a few failures
and hedges engage immediately.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.latency import LatencyModel, VirtualClock
from repro.cluster.network import ClusterController, ClusterView
from repro.cluster.node import ClusterNode
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.stats import ClusterStats
from repro.online.resilience import CircuitBreaker


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


class ClusterKVCache:
    """A fault-tolerant cache cluster behind one cache-shaped API.

    Args:
        num_nodes: initial member count (ids ``n0`` .. ``n{k-1}``).
        replication: replicas per key (capped at the member count).
        write_quorum: acks required before a write counts as acked;
            default is a majority of ``replication``.
        read_fanout: replicas consulted on a read before declaring a
            miss (first *found* reply is served; default 2).
        capacity_per_node: entry capacity of each member's cache.
        policy: per-node engine policy kind (adaptive ones adapt over
            LRU and LFU with 16-bit fingerprints).
        vnodes: virtual nodes per member on the ring.
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
        write_quorum: Optional[int] = None,
        read_fanout: int = 2,
        capacity_per_node: int = 64,
        policy: str = "adaptive",
        vnodes: int = DEFAULT_VNODES,
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
        if write_quorum is None:
            write_quorum = replication // 2 + 1
        if not 1 <= write_quorum <= replication:
            raise ValueError(
                f"write_quorum must be in [1, {replication}], "
                f"got {write_quorum}"
            )
        if read_fanout < 1:
            raise ValueError(f"read_fanout must be >= 1, got {read_fanout}")
        self.replication = replication
        self.write_quorum = write_quorum
        self.read_fanout = min(read_fanout, replication)
        self.hedge_after = hedge_after
        self.clock = VirtualClock()
        if latency_factory is None:
            latency_factory = lambda index: LatencyModel(  # noqa: E731
                seed=seed + 7919 * index
            )

        self.ring = HashRing(vnodes=vnodes)
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
        self.controller = ClusterController(
            self.nodes, replication, view=self.view
        )
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

    def _next_version(self) -> int:
        self._seq += 1
        return self._seq

    def _owners(self, key) -> List[str]:
        return self.view.owners(key, self.replication)

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
        return self._write(key, value, self._owners(key))

    def _write(self, key, value, owners: List[str]) -> int:
        """:meth:`put` to an already-routed preference list."""
        self._stats.writes += 1
        version = self._next_version()
        acks = 0
        worst_latency = 0.0
        for node_id in owners:
            node = self.nodes[node_id]
            breaker = self.breakers[node_id]
            if not self.view.is_reachable(node_id):
                breaker.record_failure()
                continue
            if not breaker.allow():
                continue
            try:
                if node.latency is not None:
                    sample = node.latency.sample()
                    worst_latency = max(worst_latency, sample)
                node.put(key, version, value)
            except Exception:  # noqa: BLE001 — replica boundary
                breaker.record_failure()
                continue
            breaker.record_success()
            acks += 1
        self.clock.advance(worst_latency)
        if acks == 0 and not any(
            self.view.is_reachable(node_id) for node_id in owners
        ):
            self._stats.unavailable += 1
        if acks >= self.write_quorum:
            self._stats.acked_writes += 1
            return version
        self._stats.failed_writes += 1
        raise WriteQuorumError(key, version, acks, self.write_quorum)

    def delete(self, key) -> bool:
        """Remove ``key`` from every reachable owner."""
        removed = False
        for node_id in self._owners(key):
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
        found, _version, value, _consulted = self.get_details(key)
        return value if found else default

    def get_details(self, key) -> Tuple[bool, Optional[int], object, List[str]]:
        """Read with full provenance: (found, version, value, consulted).

        The mechanics behind :meth:`get`; chaos campaigns use the
        version and consulted-replica list for their invariants.
        """
        return self._read(key, self._owners(key))

    def _read(self, key, owners: List[str]
              ) -> Tuple[bool, Optional[int], object, List[str]]:
        """:meth:`get_details` over an already-routed preference list."""
        self._stats.reads += 1
        replies: List[Tuple[str, bool, Optional[tuple], float]] = []
        budget = self.read_fanout
        hedged = False
        # Pending hedge consults: a slow primary answers, but the
        # request is still duplicated to the next replica (ignoring
        # the usual stop-on-found), and the faster reply serves.
        pending_hedge = 0
        first_latency: Optional[float] = None
        for position, node_id in enumerate(owners):
            if pending_hedge == 0:
                if any(reply[1] for reply in replies):
                    break  # a found reply and no hedge outstanding
                if len(replies) >= budget:
                    break
            node = self.nodes[node_id]
            breaker = self.breakers[node_id]
            if not self.view.is_reachable(node_id):
                breaker.record_failure()
                hedged = self._note_primary_hedge(position, hedged)
                continue
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
            replies.append((node_id, found, record, latency))
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

        consulted = [reply[0] for reply in replies]
        found_replies = [reply for reply in replies if reply[1]]
        if not replies and not any(
            self.view.is_reachable(node_id) for node_id in owners
        ):
            self._stats.unavailable += 1
        if found_replies:
            # Served by whichever found reply arrives first.
            serving = min(found_replies, key=lambda reply: reply[3])
            self.clock.advance(serving[3])
            if hedged and first_latency is not None \
                    and serving[3] < first_latency:
                self._stats.hedge_wins += 1
            self._stats.read_hits += 1
            version, value = serving[2]
            self._read_repair(key, owners, replies, serving[2])
            return True, version, value, consulted
        if replies:
            self.clock.advance(max(reply[3] for reply in replies))
        self._stats.read_misses += 1
        self._read_repair(key, owners, replies, None)
        return False, None, None, consulted

    def _read_repair(self, key, owners: List[str], replies: list,
                     best: Optional[tuple]) -> None:
        """Converge owners holding an *older* version than the newest.

        Each owner is looked at once: a consulted owner by the reply
        it gave, any other by a peek (no policy events), so the scan
        never perturbs replacement decisions. ``best`` is the served
        record (None after a miss); a newer resident record supersedes
        it, and then the serving replica is repaired too. Only owners
        holding an older version take a converging write.
        """
        answered = {reply[0]: reply[1:3] for reply in replies}
        holders: List[Tuple[str, int]] = []
        for node_id in owners:
            reply = answered.get(node_id)
            found, record = (
                reply if reply is not None else self.nodes[node_id].peek(key)
            )
            if not found:
                continue
            holders.append((node_id, record[0]))
            if best is None or record[0] > best[0]:
                best = record
        for node_id, held_version in holders:
            if held_version >= best[0]:
                continue
            if not self.view.is_reachable(node_id):
                continue
            try:
                self.nodes[node_id].put(key, best[0], best[1])
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
        owners = self._owners(key)
        found, _version, value, _consulted = self._read(key, owners)
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
